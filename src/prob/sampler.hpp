#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "prob/pmf.hpp"
#include "util/rng.hpp"
#include "util/time_types.hpp"

namespace taskdrop {

/// Precomputed inverse-CDF sampler over a PMF.
///
/// The simulation engine draws one "ground-truth" execution time per
/// task-start from the PET matrix; Pmf::sample is a linear scan, so the
/// engine caches one CdfSampler per (task type, machine type) and samples
/// in O(log n) instead.
class CdfSampler {
 public:
  CdfSampler() = default;

  /// `pmf` must be proper (total mass ~ 1).
  explicit CdfSampler(const Pmf& pmf);

  bool valid() const { return !times_.empty(); }

  Tick sample(Rng& rng) const;

 private:
  std::vector<Tick> times_;
  std::vector<double> cdf_;  // inclusive prefix sums
};

/// O(1) cumulative-mass queries over a PMF.
///
/// The PAM mapping heuristic evaluates the chance of success of every
/// unmapped task on every candidate machine at every mapping event; each
/// evaluation folds an execution CDF against the machine's queue-tail PMF.
/// Pmf::mass_before is a linear scan, so the PET matrix caches one PmfCdf
/// per cell and the fold becomes O(|tail|) instead of O(|tail| * |exec|).
class PmfCdf {
 public:
  PmfCdf() = default;
  explicit PmfCdf(const Pmf& pmf) { rebuild(pmf); }

  /// Recomputes the prefix sums for `pmf`, reusing the existing allocation
  /// (the completion model rebuilds one PmfCdf per queue slot on every
  /// chain update; steady-state rebuilds are allocation-free). Summation
  /// runs in ascending bin order, so mass_before returns bit-identical
  /// values to Pmf::mass_before on the source PMF.
  void rebuild(const Pmf& pmf);

  bool valid() const { return !prefix_.empty(); }

  /// P(X < t), identical to Pmf::mass_before on the source PMF. Inline:
  /// the appended-distribution cells and the PAM probes issue tens of
  /// millions of these per trial.
  double mass_before(Tick t) const {
    if (prefix_.size() <= 1 || t <= offset_) return 0.0;
    const Tick span = t - offset_;
    auto bins = static_cast<std::size_t>((span + stride_ - 1) / stride_);
    bins = std::min(bins, prefix_.size() - 1);
    return prefix_[bins];
  }

  /// Cumulative mass of the first `bins_before` bins — mass_before for a
  /// caller that already knows the bin index (the appended-cell window
  /// fold derives it from lattice arithmetic and skips the division).
  double prefix_at(std::size_t bins_before) const {
    return prefix_[bins_before];
  }

  double total_mass() const { return prefix_.empty() ? 0.0 : prefix_.back(); }

 private:
  Tick offset_ = 0;
  Tick stride_ = 1;
  /// prefix_[i] = mass of the first i bins; size = bin count + 1.
  std::vector<double> prefix_;
};

}  // namespace taskdrop
