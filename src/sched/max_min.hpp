#pragma once

#include "sched/mapper.hpp"

namespace taskdrop {

/// MaxMin — the classic counterpart of MinMin in the HC-scheduling
/// literature (Ibarra & Kim's family, [23]): phase 1 pairs each unmapped
/// task with its minimum-expected-completion machine, phase 2 assigns, per
/// machine, the pair with the *largest* expected completion time. The
/// intuition is to schedule long tasks early so they do not linger behind
/// short ones. Not part of the paper's evaluation; included as an extra
/// baseline for the mapper-sweep benches.
class MaxMinMapper final : public Mapper {
 public:
  explicit MaxMinMapper(int candidate_window = 256)
      : window_(candidate_window) {}

  std::string_view name() const override { return "MaxMin"; }
  void map_tasks(SystemView& view, SchedulerOps& ops) override;

 private:
  int window_;
  /// Free-machine scratch reused across the rounds of a mapping event.
  std::vector<MachineId> free_machines_;
  /// Phase-1 pair scratch, likewise reused across rounds.
  std::vector<mapper_detail::CandidatePair> pairs_;
};

}  // namespace taskdrop
