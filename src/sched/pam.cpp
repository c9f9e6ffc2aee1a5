#include "sched/pam.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "util/audit.hpp"

namespace taskdrop {

PamMapper::Pair PamMapper::keyed(SystemView& view, TaskId id,
                                 MachineId machine) {
  const Task& task = view.task(id);
  return {id, machine,
          mapper_detail::expected_completion_mean(view, machine, task),
          view.pet->mean_execution(
              task.type,
              (*view.machines)[static_cast<std::size_t>(machine)].type)};
}

bool PamMapper::beats(const Pair& pair, const Pair& best) {
  return best.task < 0 || pair.completion < best.completion ||
         (pair.completion == best.completion &&
          pair.exec_mean < best.exec_mean);
}

MachineId PamMapper::highest_chance_machine(SystemView& view, const Task& task,
                                            double& chance) const {
  // chance_if_appended resolves through the revision-keyed appended-
  // distribution cache, so a probe repeated after an assignment elsewhere
  // costs a memo lookup or one O(|exec|) cell fold.
  MachineId best = -1;
  chance = -1.0;
  for (MachineId m : free_machines_) {
    CompletionModel& model = (*view.models)[static_cast<std::size_t>(m)];
    const double c = model.chance_if_appended(task.type, task.deadline);
    if (c > chance) {
      chance = c;
      best = m;
    }
  }
  return best;
}

double PamMapper::completion_floor(SystemView& view, const Task& task) {
  double& floor = type_floors_[static_cast<std::size_t>(task.type)];
  if (std::isnan(floor)) {
    floor = std::numeric_limits<double>::infinity();
    for (MachineId m : free_machines_) {
      floor = std::min(floor,
                       mapper_detail::expected_completion_mean(view, m, task));
    }
  }
  return floor;
}

void PamMapper::map_tasks(SystemView& view, SchedulerOps& ops) {
  for (;;) {
    mapper_detail::machines_with_free_slot(view, free_machines_);
    if (free_machines_.empty() || view.batch_queue->empty()) return;
    // Without deferral a lone free machine is the phase-1 argmax whatever
    // its chance (chances are >= 0 > the -1 seed): nothing to probe.
    const bool probe = defer_threshold_ > 0.0 || free_machines_.size() > 1;
    type_floors_.assign(static_cast<std::size_t>(view.pet->task_type_count()),
                        std::numeric_limits<double>::quiet_NaN());

    Pair best;
    for (TaskId id : mapper_detail::candidate_window(view, window_)) {
      const Task& task = view.task(id);
      // Whichever machine phase 1 picks, the candidate's phase-2 key is at
      // least its type's floor, bit for bit. A floor strictly above the
      // best key cannot win the round (at equality the exec_mean
      // tie-break still could), so its probes are skipped.
      if (best.task >= 0) {
        const double floor = completion_floor(view, task);
        if (floor > best.completion) {
          if (audit::due(audit_counter_)) {
            audit_floor_skip(view, id, floor, best);
          }
          continue;
        }
      }
      MachineId machine = free_machines_.front();
      if (probe) {
        double chance = 0.0;
        machine = highest_chance_machine(view, task, chance);
        // Deferring variant (PAMD): tasks unlikely to succeed anywhere
        // stay in the batch queue this round rather than wasting a slot.
        if (machine < 0 ||
            (defer_threshold_ > 0.0 && chance < defer_threshold_)) {
          continue;
        }
      } else if (audit::due(audit_counter_)) {
        audit_single_machine(view, task);
      }

      const Pair pair = keyed(view, id, machine);
      if (beats(pair, best)) best = pair;
    }
    if (best.task < 0) return;
    ops.assign_task(best.task, best.machine);
  }
}

void PamMapper::audit_floor_skip(SystemView& view, TaskId id, double floor,
                                 const Pair& best) const {
  const Task& task = view.task(id);
  double chance = 0.0;
  const MachineId machine = highest_chance_machine(view, task, chance);
  const Pair pair = keyed(view, id, machine);
  if (pair.completion < floor) {
    audit::fail("PAM: task " + std::to_string(id) + " completion " +
                std::to_string(pair.completion) + " below its type floor " +
                std::to_string(floor));
  }
  const bool deferred = defer_threshold_ > 0.0 && chance < defer_threshold_;
  if (!deferred && beats(pair, best)) {
    audit::fail("PAM: floor-skipped task " + std::to_string(id) +
                " would have replaced task " + std::to_string(best.task));
  }
}

void PamMapper::audit_single_machine(SystemView& view, const Task& task) const {
  double chance = 0.0;
  const MachineId machine = highest_chance_machine(view, task, chance);
  if (machine != free_machines_.front()) {
    audit::fail("PAM: unprobed single-machine round maps to machine " +
                std::to_string(free_machines_.front()) +
                " but phase 1 picks " + std::to_string(machine));
  }
}

}  // namespace taskdrop
