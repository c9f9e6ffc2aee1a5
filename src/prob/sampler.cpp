#include "prob/sampler.hpp"

#include <algorithm>
#include <stdexcept>

namespace taskdrop {

CdfSampler::CdfSampler(const Pmf& pmf) {
  times_.reserve(pmf.size());
  cdf_.reserve(pmf.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < pmf.size(); ++i) {
    const double p = pmf.prob_at_index(i);
    if (p == 0.0) continue;  // float-eq-ok: exact-zero sparse skip
    acc += p;
    times_.push_back(pmf.time_at(i));
    cdf_.push_back(acc);
  }
}

void PmfCdf::rebuild(const Pmf& pmf) {
  offset_ = pmf.offset();
  stride_ = pmf.stride();
  prefix_.resize(pmf.size() + 1);
  prefix_[0] = 0.0;
  for (std::size_t i = 0; i < pmf.size(); ++i) {
    prefix_[i + 1] = prefix_[i] + pmf.prob_at_index(i);
  }
}

Tick CdfSampler::sample(Rng& rng) const {
  if (!valid()) {
    throw std::logic_error("CdfSampler::sample: empty distribution");
  }
  const double u = rng.uniform01() * cdf_.back();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  const auto i = static_cast<std::size_t>(
      std::min<std::ptrdiff_t>(it - cdf_.begin(),
                               static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
  return times_[i];
}

}  // namespace taskdrop
