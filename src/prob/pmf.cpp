#include "prob/pmf.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "util/audit.hpp"

namespace taskdrop {
namespace {

/// TASKDROP_AUDIT sampling counter of the lump_tail mass check (per thread:
/// PMFs are built concurrently by the sweep's workers).
thread_local std::uint64_t t_audit_lump_counter = 0;

}  // namespace

Pmf Pmf::delta(Tick t) { return Pmf(t, 1, {1.0}); }

Pmf Pmf::from_impulses(std::vector<std::pair<Tick, double>> impulses,
                       Tick stride) {
  if (stride < 1) {
    throw std::invalid_argument("Pmf::from_impulses: stride must be >= 1");
  }
  if (impulses.empty()) return Pmf();
  std::sort(impulses.begin(), impulses.end());
  const Tick lo = impulses.front().first;
  const Tick hi = impulses.back().first;
  if ((hi - lo) % stride != 0) {
    throw std::invalid_argument(
        "Pmf::from_impulses: impulses must lie on a common lattice");
  }
  Pmf out(lo, stride,
          std::vector<double>(static_cast<std::size_t>((hi - lo) / stride + 1),
                              0.0));
  for (const auto& [t, p] : impulses) {
    if (p < 0.0) {
      throw std::invalid_argument(
          "Pmf::from_impulses: impulse mass must be >= 0");
    }
    if ((t - lo) % stride != 0) {
      throw std::invalid_argument("Pmf::from_impulses: impulse off lattice");
    }
    out.probs_[static_cast<std::size_t>((t - lo) / stride)] += p;
  }
  return out;
}

Pmf::Pmf(Tick offset, Tick stride, std::vector<double> probs)
    : offset_(offset), stride_(stride), probs_(std::move(probs)) {
  if (stride_ < 1) {
    throw std::invalid_argument("Pmf: stride must be >= 1");
  }
}

void Pmf::assign(Tick offset, Tick stride, const double* first,
                 const double* last) {
  if (stride < 1) {
    throw std::invalid_argument("Pmf::assign: stride must be >= 1");
  }
  if (first > last) {
    throw std::invalid_argument("Pmf::assign: invalid impulse range");
  }
  probs_.assign(first, last);
  if (probs_.empty()) {
    offset_ = 0;
    stride_ = 1;
  } else {
    offset_ = offset;
    stride_ = stride;
  }
}

void Pmf::slice(std::size_t first, std::size_t last) {
  if (first > last || last > probs_.size()) {
    throw std::invalid_argument("Pmf::slice: invalid bin range");
  }
  if (first == last) {
    probs_.clear();
    offset_ = 0;
    stride_ = 1;
    return;
  }
  if (first > 0) {
    std::move(probs_.begin() + static_cast<std::ptrdiff_t>(first),
              probs_.begin() + static_cast<std::ptrdiff_t>(last),
              probs_.begin());
    offset_ += static_cast<Tick>(first) * stride_;
  }
  probs_.resize(last - first);
}

double Pmf::prob_at(Tick t) const {
  if (empty() || t < offset_ || (t - offset_) % stride_ != 0) return 0.0;
  const auto i = static_cast<std::size_t>((t - offset_) / stride_);
  return i < probs_.size() ? probs_[i] : 0.0;
}

double Pmf::total_mass() const {
  double sum = 0.0;
  for (double p : probs_) sum += p;
  return sum;
}

double Pmf::mass_before(Tick t) const {
  if (empty() || t <= offset_) return 0.0;
  // Number of lattice points strictly below t.
  const Tick span = t - offset_;
  auto count = static_cast<std::size_t>((span + stride_ - 1) / stride_);
  count = std::min(count, probs_.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < count; ++i) sum += probs_[i];
  return sum;
}

double Pmf::mass_at_or_after(Tick t) const { return total_mass() - mass_before(t); }

double Pmf::mean() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < probs_.size(); ++i) {
    sum += static_cast<double>(time_at(i)) * probs_[i];
  }
  return sum;
}

double Pmf::variance() const {
  const double mu = mean();
  double sum = 0.0;
  for (std::size_t i = 0; i < probs_.size(); ++i) {
    const double d = static_cast<double>(time_at(i)) - mu;
    sum += d * d * probs_[i];
  }
  return sum;
}

void Pmf::scale(double factor) {
  for (double& p : probs_) p *= factor;
}

void Pmf::normalize() {
  const double mass = total_mass();
  if (mass <= 0.0) return;
  scale(1.0 / mass);
}

void Pmf::trim(double eps) {
  std::size_t lo = 0;
  std::size_t hi = probs_.size();
  while (lo < hi && probs_[lo] <= eps) ++lo;
  while (hi > lo && probs_[hi - 1] <= eps) --hi;
  if (lo == 0 && hi == probs_.size()) return;
  offset_ += static_cast<Tick>(lo) * stride_;
  probs_ = std::vector<double>(probs_.begin() + static_cast<std::ptrdiff_t>(lo),
                               probs_.begin() + static_cast<std::ptrdiff_t>(hi));
  if (probs_.empty()) {
    offset_ = 0;
    stride_ = 1;
  }
}

void Pmf::lump_tail(Tick horizon) {
  if (empty() || max_time() < horizon) return;
  // First lattice index at or above the horizon.
  Tick span = horizon - offset_;
  if (span < 0) span = 0;
  const auto first = static_cast<std::size_t>((span + stride_ - 1) / stride_);
  if (first >= probs_.size()) return;
  double tail = 0.0;
  for (std::size_t i = first; i < probs_.size(); ++i) tail += probs_[i];
  const double before = audit::kEnabled ? total_mass() : 0.0;
  probs_.resize(first + 1);
  probs_[first] = tail;
  if (audit::due(t_audit_lump_counter)) {
    // Lumping only moves mass: the total may differ from before by the
    // rounding of the two summation orders, never by the 1e-9 of the PMF
    // mass invariant.
    const double after = total_mass();
    if (after > before + 1e-9 * std::max(1.0, before)) {
      audit::fail("lump_tail grew the PMF's mass from " +
                  std::to_string(before) + " to " + std::to_string(after));
    }
  }
}

void Pmf::add_impulse(Tick t, double p) {
  if (p < 0.0) {
    throw std::invalid_argument("Pmf::add_impulse: mass must be >= 0");
  }
  if (empty()) {
    offset_ = t;
    probs_ = {p};
    return;
  }
  if ((t - offset_) % stride_ != 0) {
    throw std::invalid_argument("Pmf::add_impulse: impulse off lattice");
  }
  if (t < offset_) {
    const auto grow = static_cast<std::size_t>((offset_ - t) / stride_);
    probs_.insert(probs_.begin(), grow, 0.0);
    offset_ = t;
  }
  const auto i = static_cast<std::size_t>((t - offset_) / stride_);
  if (i >= probs_.size()) probs_.resize(i + 1, 0.0);
  probs_[i] += p;
}

Pmf Pmf::scale_time(double factor) const {
  if (!(factor > 0.0)) {
    throw std::invalid_argument("Pmf::scale_time: factor must be > 0");
  }
  if (empty()) return Pmf();
  std::vector<std::pair<Tick, double>> impulses;
  impulses.reserve(size());
  for (std::size_t i = 0; i < probs_.size(); ++i) {
    if (probs_[i] == 0.0) continue;  // float-eq-ok: exact-zero sparse skip
    const double scaled = factor * static_cast<double>(time_at(i));
    Tick bin = static_cast<Tick>(
                   std::llround(scaled / static_cast<double>(stride_))) *
               stride_;
    if (bin < stride_) bin = stride_;
    impulses.emplace_back(bin, probs_[i]);
  }
  return Pmf::from_impulses(std::move(impulses), stride_);
}

Tick Pmf::quantile(double p) const {
  if (empty()) {
    throw std::logic_error("Pmf::quantile: empty distribution");
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < probs_.size(); ++i) {
    acc += probs_[i];
    if (acc >= p) return time_at(i);
  }
  return max_time();
}

Tick Pmf::sample(Rng& rng) const {
  if (empty()) {
    throw std::logic_error("Pmf::sample: empty distribution");
  }
  const double u = rng.uniform01() * total_mass();
  double acc = 0.0;
  for (std::size_t i = 0; i < probs_.size(); ++i) {
    acc += probs_[i];
    if (u < acc) return time_at(i);
  }
  return max_time();
}

}  // namespace taskdrop
