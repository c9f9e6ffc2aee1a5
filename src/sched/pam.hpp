#pragma once

#include <cstdint>
#include <vector>

#include "sched/mapper.hpp"

namespace taskdrop {

/// Pruning-Aware Mapping (PAM) — section V-B3, from Gentry et al. [2].
///
/// Phase 1: for each unmapped task, find the free machine providing the
/// *highest chance of success* (Eq. 2 applied to the provisional queue
/// tail). Phase 2: among those pairs, map the single pair with the lowest
/// expected completion time; ties broken by the shortest expected execution
/// time. Rounds repeat until queues are full or the batch is depleted.
///
/// The original PAM also drops and defers with a predetermined threshold;
/// per section V-B3 deferring is disabled by default here (dropping is
/// supplied by whichever Dropper the experiment composes with the mapper).
/// Construct with `defer_threshold > 0` to restore Gentry et al.'s
/// deferring: a task whose best chance of success falls below the threshold
/// stays in the batch queue this round, waiting for a better slot — the
/// "PAMD" registry entry, ablated in bench/ablation_deferral.
///
/// Phase 1 only probes chances that can change the round's choice; the
/// decisions are those of the exhaustive scan, bit for bit:
///   * without deferral, a round with one free machine maps to it
///     whatever its chance, so nothing is probed;
///   * a candidate's phase-2 key is never below its type's *completion
///     floor* — the minimum expected completion over the free machines,
///     the same floating-point sum — so a candidate whose floor is
///     strictly above the best key so far is skipped unprobed (deferral
///     only ever removes candidates, so this holds for PAMD too).
/// TASKDROP_AUDIT builds re-run sampled skipped probes and fail if one
/// would have changed the round.
class PamMapper final : public Mapper {
 public:
  explicit PamMapper(int candidate_window = 256, double defer_threshold = 0.0)
      : window_(candidate_window), defer_threshold_(defer_threshold) {}

  std::string_view name() const override {
    return defer_threshold_ > 0.0 ? "PAMD" : "PAM";
  }
  void map_tasks(SystemView& view, SchedulerOps& ops) override;

 private:
  /// Phase-2 key of one (task, machine) pair.
  struct Pair {
    TaskId task = -1;
    MachineId machine = -1;
    double completion = 0.0;
    double exec_mean = 0.0;
  };

  /// Phase-2 key of `id` on `machine`.
  static Pair keyed(SystemView& view, TaskId id, MachineId machine);
  /// Phase-2 order: lowest expected completion, ties by shortest expected
  /// execution time; exact ties keep the earlier candidate.
  static bool beats(const Pair& pair, const Pair& best);
  /// Phase 1: the free machine with the highest chance of success for
  /// `task` (the first one on ties); its chance goes to `chance`.
  MachineId highest_chance_machine(SystemView& view, const Task& task,
                                   double& chance) const;
  /// Lower bound on any phase-2 key of `task`'s type this round, computed
  /// once per type per round into `type_floors_`.
  double completion_floor(SystemView& view, const Task& task);
  void audit_floor_skip(SystemView& view, TaskId id, double floor,
                        const Pair& best) const;
  void audit_single_machine(SystemView& view, const Task& task) const;

  int window_;
  double defer_threshold_;
  /// Free-machine scratch reused across the rounds of a mapping event.
  std::vector<MachineId> free_machines_;
  /// Per-task-type completion floors of the current round (NaN = unset).
  std::vector<double> type_floors_;
  /// TASKDROP_AUDIT sampling counter for the skipped-probe checks.
  std::uint64_t audit_counter_ = 0;
};

}  // namespace taskdrop
