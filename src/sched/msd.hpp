#pragma once

#include "sched/mapper.hpp"

namespace taskdrop {

/// MinCompletion-Soonest Deadline (MSD) — section V-B2.
///
/// Phase 1 is MinMin's: pair each unmapped task with the free machine of
/// minimum expected completion time. Phase 2 assigns, per machine with a
/// free slot, the pair with the *soonest deadline*; ties go to the pair
/// with the minimum expected completion time.
class MsdMapper final : public Mapper {
 public:
  explicit MsdMapper(int candidate_window = 256) : window_(candidate_window) {}

  std::string_view name() const override { return "MSD"; }
  void map_tasks(SystemView& view, SchedulerOps& ops) override;

 private:
  int window_;
  /// Free-machine scratch reused across the rounds of a mapping event.
  std::vector<MachineId> free_machines_;
  /// Phase-1 pair scratch, likewise reused across rounds.
  std::vector<mapper_detail::CandidatePair> pairs_;
};

}  // namespace taskdrop
