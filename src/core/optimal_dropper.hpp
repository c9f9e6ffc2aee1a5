#pragma once

#include "core/dropper.hpp"
#include "prob/workspace.hpp"

namespace taskdrop {

/// Optimal proactive task dropping (section IV-D).
///
/// For each machine queue, exhaustively examines every subset of droppable
/// pending tasks (the last task is excluded — its influence zone is null, so
/// dropping it can only lose robustness) and keeps the subset that maximises
/// the queue's instantaneous robustness (Eq. 3), i.e. the sum of chances of
/// success of the tasks remaining in the queue. With queue size q this is
/// the paper's 2^(q-1) case analysis; it is tractable here because machine
/// queues are bounded (capacity 6 in the evaluation) but its per-event cost
/// is what motivates the heuristic (section IV-F).
///
/// Ties are resolved toward dropping fewer tasks, and the empty subset is
/// always a candidate, so the mechanism never drops without a strict
/// robustness improvement.
///
/// Subsets are enumerated as a branch tree over the lowest dropped
/// position, so chain prefixes shared by many subsets are convolved once
/// (and the all-kept prefix is read straight from the model's cached
/// chain) instead of once per subset; every subset's robustness is still
/// evaluated with the exact summation order of the direct walk, so the
/// selected subset is bit-identical.
///
/// The tree is searched branch-and-bound: a subtree whose running sum plus
/// window_chance_bound over its remaining positions falls below
/// keep_all - 2^(k+1) * 1e-12 (no subset there can ever win the selection,
/// tie tolerance included) is skipped without building its chains and its
/// masks are recorded as -infinity. TASKDROP_AUDIT builds enumerate sampled
/// pruned subtrees in full and fail if any of their masks reaches that
/// floor.
class OptimalDropper final : public Dropper {
 public:
  std::string_view name() const override { return "Optimal"; }
  void run(SystemView& view, SchedulerOps& ops) override;

 private:
  /// Same skip-if-unchanged memoisation as the heuristic dropper: a queue
  /// whose structure is unchanged would re-derive the identical subset.
  std::vector<std::uint64_t> examined_versions_;
  /// Scratch for the candidate chains: one PMF per enumeration depth plus
  /// one robustness slot per subset, reused across machines and events.
  PmfWorkspace ws_;
  std::vector<Pmf> chain_stack_;
  std::vector<double> results_;
  /// TASKDROP_AUDIT sampling counter for the pruned-subtree check.
  std::uint64_t audit_counter_ = 0;
};

}  // namespace taskdrop
