#include "sched/max_min.hpp"

namespace taskdrop {

void MaxMinMapper::map_tasks(SystemView& view, SchedulerOps& ops) {
  using mapper_detail::CandidatePair;
  for (;;) {
    mapper_detail::machines_with_free_slot(view, free_machines_);
    const auto& free_machines = free_machines_;
    if (free_machines.empty() || view.batch_queue->empty()) return;
    mapper_detail::min_completion_pairs(view, free_machines, window_,
                                        pairs_);
    const auto& pairs = pairs_;
    if (pairs.empty()) return;

    bool assigned_any = false;
    for (MachineId m : free_machines) {
      const CandidatePair* best = nullptr;
      for (const CandidatePair& pair : pairs) {
        if (pair.machine != m) continue;
        if (best == nullptr ||
            pair.expected_completion > best->expected_completion) {
          best = &pair;
        }
      }
      if (best != nullptr) {
        ops.assign_task(best->task, m);
        assigned_any = true;
      }
    }
    if (!assigned_any) return;
  }
}

}  // namespace taskdrop
