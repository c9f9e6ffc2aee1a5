#pragma once

#include "core/dropper.hpp"
#include "prob/workspace.hpp"

namespace taskdrop {

/// Approximate-computing dropping — the paper's stated future work
/// (section VI: "we plan to extend the probabilistic analysis to consider
/// approximately computing tasks, in addition to task dropping").
///
/// Like the proactive heuristic, this mechanism walks each machine queue
/// once and examines every pending task i against its effective-depth
/// window. But where the heuristic's only lever is *drop*, this one has
/// two:
///
///   * drop task i           — window utility becomes   sum p^(i)_n
///   * downgrade task i      — task i switches to its approximate variant
///                             (execution PMF time-scaled by the engine's
///                             ApproxModel) and contributes only
///                             `approx_weight` per unit of success chance:
///                             window utility = w * p~_i + sum p~_n
///
/// The baseline is the weighted keep utility (tasks already approximate
/// contribute with weight w). The best option is taken when it beats
/// beta * keep — the same autonomous, threshold-free decision rule as
/// Eq. 8, generalised from robustness to expected utility. Unlike dropping,
/// downgrading is also considered for the *last* task in a queue: it has no
/// influence zone, but shrinking its own execution raises its own chance.
///
/// Like the heuristic, an option whose window_chance_bound-based weighted
/// bound cannot beat beta * keep is never evaluated (see
/// ProactiveHeuristicDropper); decisions are unchanged.
///
/// Requires the engine's approximate-computing extension to be enabled
/// (SystemView::approx_pet non-null); otherwise behaves exactly like
/// ProactiveHeuristicDropper.
class ApproxDropper final : public Dropper {
 public:
  struct Params {
    int effective_depth = 2;  ///< eta
    double beta = 1.0;        ///< utility improvement factor (>= 1)
  };

  ApproxDropper() : params_() {}
  /// Throws std::invalid_argument for eta < 1 or beta < 1 (same contract
  /// as ProactiveHeuristicDropper).
  explicit ApproxDropper(Params params);

  std::string_view name() const override { return "Approx"; }
  const Params& params() const { return params_; }

  void run(SystemView& view, SchedulerOps& ops) override;

 private:
  Params params_;
  std::vector<std::uint64_t> examined_versions_;
  /// Scratch for the provisional keep/drop/downgrade chains.
  PmfWorkspace ws_;
  /// TASKDROP_AUDIT sampling counter for the pruned-window check.
  std::uint64_t audit_counter_ = 0;
};

}  // namespace taskdrop
