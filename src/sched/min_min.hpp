#pragma once

#include "sched/mapper.hpp"

namespace taskdrop {

/// MinCompletion-MinCompletion (MinMin / MM) — section V-B1.
///
/// Phase 1: for each unmapped task, find the free machine offering the
/// minimum expected completion time. Phase 2: for each machine with an
/// available slot, assign the provisionally mapped pair with the minimum
/// expected completion time. Rounds repeat until machine queues are full or
/// the batch queue is depleted.
class MinMinMapper final : public Mapper {
 public:
  explicit MinMinMapper(int candidate_window = 256)
      : window_(candidate_window) {}

  std::string_view name() const override { return "MM"; }
  void map_tasks(SystemView& view, SchedulerOps& ops) override;

 private:
  int window_;
  /// Free-machine scratch reused across the rounds of a mapping event.
  std::vector<MachineId> free_machines_;
  /// Phase-1 pair scratch, likewise reused across rounds.
  std::vector<mapper_detail::CandidatePair> pairs_;
};

}  // namespace taskdrop
