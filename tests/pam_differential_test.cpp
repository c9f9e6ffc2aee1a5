// Differential lockdown for PAM's phase-1 pruning: the pruned mapper skips
// the chance probes of lone-free-machine rounds and of candidates whose
// completion floor already loses phase 2, and must still make exactly the
// assignments — same tasks, same machines, same order — as the exhaustive
// scan that probes every candidate on every free machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/sandbox.hpp"
#include "sched/pam.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace taskdrop {
namespace {

using test::pet_of;

/// PamMapper::map_tasks before phase-1 pruning, verbatim, plus counters of
/// the situations the pruning must get right (they only count; the
/// decisions are untouched).
class ReferencePam final : public Mapper {
 public:
  ReferencePam(int candidate_window, double defer_threshold)
      : window_(candidate_window), defer_threshold_(defer_threshold) {}

  std::string_view name() const override { return "ReferencePAM"; }

  void map_tasks(SystemView& view, SchedulerOps& ops) override {
    for (;;) {
      mapper_detail::machines_with_free_slot(view, free_machines_);
      const auto& free_machines = free_machines_;
      if (free_machines.empty() || view.batch_queue->empty()) return;
      if (free_machines.size() == 1 && defer_threshold_ > 0.0) {
        ++lone_machine_deferral_rounds;
      }

      TaskId best_task = -1;
      MachineId best_machine = -1;
      double best_completion = 0.0;
      double best_exec_mean = 0.0;

      for (TaskId id : mapper_detail::candidate_window(view, window_)) {
        const Task& task = view.task(id);
        MachineId chance_machine = -1;
        double chance_best = -1.0;
        for (MachineId m : free_machines) {
          CompletionModel& model = (*view.models)[static_cast<std::size_t>(m)];
          const double chance =
              model.chance_if_appended(task.type, task.deadline);
          if (chance > chance_best) {
            chance_best = chance;
            chance_machine = m;
          }
        }
        if (chance_machine < 0) continue;
        if (defer_threshold_ > 0.0 && chance_best < defer_threshold_) {
          ++deferred;
          continue;
        }

        const double completion =
            mapper_detail::expected_completion_mean(view, chance_machine, task);
        const double exec_mean = view.pet->mean_execution(
            task.type,
            (*view.machines)[static_cast<std::size_t>(chance_machine)].type);
        if (best_task >= 0 && completion == best_completion) {
          ++completion_ties;
          if (exec_mean == best_exec_mean) ++exec_ties;
        }
        if (best_task < 0 || completion < best_completion ||
            (completion == best_completion && exec_mean < best_exec_mean)) {
          best_task = id;
          best_machine = chance_machine;
          best_completion = completion;
          best_exec_mean = exec_mean;
        }
      }
      if (best_task < 0) return;
      ops.assign_task(best_task, best_machine);
    }
  }

  /// Candidates whose phase-2 completion equalled the best so far, and
  /// those among them whose expected execution time equalled it too.
  int completion_ties = 0;
  int exec_ties = 0;
  int deferred = 0;
  int lone_machine_deferral_rounds = 0;

 private:
  int window_;
  double defer_threshold_;
  std::vector<MachineId> free_machines_;
};

constexpr double kPamdThreshold = 0.3;  // the "PAMD" registry entry's

/// A system state to map, replayable into any number of sandboxes.
struct State {
  struct Queued {
    MachineId machine;
    TaskTypeId type;
    Tick deadline;
  };
  std::vector<MachineTypeId> machine_types;
  int capacity = 1;
  Tick now = 0;
  std::vector<Queued> queued;
  std::vector<std::pair<MachineId, Tick>> running;  // (machine, run_start)
  std::vector<std::pair<TaskTypeId, Tick>> batch;   // (type, deadline)
};

std::vector<std::pair<TaskId, MachineId>> assignments(const PetMatrix& pet,
                                                      const State& state,
                                                      Mapper& mapper) {
  SystemSandbox sandbox(pet, state.machine_types, state.capacity, state.now);
  for (const State::Queued& q : state.queued) {
    sandbox.enqueue(q.machine, q.type, q.deadline);
  }
  for (const auto& [machine, run_start] : state.running) {
    sandbox.set_running(machine, run_start);
  }
  Tick arrival = 0;
  for (const auto& [type, deadline] : state.batch) {
    sandbox.add_unmapped(type, arrival++, deadline);
  }
  mapper.map_tasks(sandbox.view(), sandbox);
  return sandbox.assigned;
}

/// Situations the reference met; a suite that never reaches them proves
/// nothing about the pruning at them.
struct Reached {
  int completion_ties = 0;
  int exec_ties = 0;
  int deferred = 0;
  int lone_machine_deferral_rounds = 0;
};

/// Maps `state` with the pruned PamMapper and the reference, PAM and PAMD,
/// and requires the same assignment sequence from both.
void expect_same_assignments(const PetMatrix& pet, const State& state,
                             int window, const std::string& label,
                             Reached* reached = nullptr) {
  for (const double threshold : {0.0, kPamdThreshold}) {
    PamMapper pruned(window, threshold);
    ReferencePam reference(window, threshold);
    EXPECT_EQ(assignments(pet, state, pruned),
              assignments(pet, state, reference))
        << pruned.name() << " " << label;
    if (reached != nullptr) {
      reached->completion_ties += reference.completion_ties;
      reached->exec_ties += reference.exec_ties;
      reached->deferred += reference.deferred;
      reached->lone_machine_deferral_rounds +=
          reference.lone_machine_deferral_rounds;
    }
  }
}

/// Random PET of `task_types` x `machine_types` cells. The tie palette uses
/// means 4/6/8 as a point mass or as an even two-point split around the
/// mean, so expected completions and execution means collide exactly; the
/// other flavour draws 1–4 impulses at 1..16 ticks.
PetMatrix random_pet(Rng& rng, int task_types, int machine_types,
                     bool tie_palette) {
  std::vector<std::vector<std::vector<std::pair<Tick, double>>>> cells(
      static_cast<std::size_t>(task_types));
  for (auto& row : cells) {
    for (int m = 0; m < machine_types; ++m) {
      std::vector<std::pair<Tick, double>> impulses;
      if (tie_palette) {
        const Tick mean = 2 * rng.uniform_int(2, 4);
        if (rng.uniform01() < 0.5) {
          impulses = {{mean, 1.0}};
        } else {
          impulses = {{mean - 2, 0.5}, {mean + 2, 0.5}};
        }
      } else {
        const auto bins = rng.uniform_int(1, 4);
        double total = 0.0;
        for (std::int64_t b = 0; b < bins; ++b) {
          const double w = 0.05 + rng.uniform01();
          impulses.emplace_back(rng.uniform_int(1, 16), w);
          total += w;
        }
        std::sort(impulses.begin(), impulses.end());
        for (auto& impulse : impulses) impulse.second /= total;
      }
      row.push_back(std::move(impulses));
    }
  }
  return pet_of(std::move(cells));
}

TEST(PamDifferential, PrunedScanMatchesExhaustiveScanOnRandomStates) {
  Rng rng(20261019);
  Reached reached;
  for (int round = 0; round < 1000; ++round) {
    const bool tie_palette = round % 2 == 0;
    const int task_types = static_cast<int>(rng.uniform_int(1, 5));
    const int machine_types = static_cast<int>(rng.uniform_int(1, 3));
    const PetMatrix pet =
        random_pet(rng, task_types, machine_types, tie_palette);

    State state;
    const auto machines = rng.uniform_int(1, 8);
    // Identical machine types make whole machines interchangeable, so
    // tail_mean + mean_exec ties across machines as well as candidates.
    const bool uniform_machines = rng.uniform01() < 0.3;
    for (std::int64_t m = 0; m < machines; ++m) {
      state.machine_types.push_back(
          uniform_machines ? 0
                           : static_cast<MachineTypeId>(
                                 rng.uniform_int(0, machine_types - 1)));
    }
    state.capacity = static_cast<int>(rng.uniform_int(1, 6));
    state.now = rng.uniform_int(0, 20);
    // A small deadline pool duplicates deadlines across the batch; some
    // lie in the past, so PAMD has hopeless tasks to defer.
    std::vector<Tick> deadlines;
    for (std::int64_t i = rng.uniform_int(1, 6); i > 0; --i) {
      deadlines.push_back(
          std::max<Tick>(0, state.now + rng.uniform_int(-5, 80)));
    }
    const auto pick_deadline = [&] {
      return deadlines[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(deadlines.size()) - 1))];
    };
    const auto pick_type = [&] {
      return static_cast<TaskTypeId>(rng.uniform_int(0, task_types - 1));
    };
    for (MachineId m = 0; m < static_cast<MachineId>(machines); ++m) {
      const auto fill = rng.uniform_int(0, state.capacity);
      for (std::int64_t i = 0; i < fill; ++i) {
        state.queued.push_back({m, pick_type(), pick_deadline()});
      }
      if (fill > 0 && rng.uniform01() < 0.5) {
        state.running.emplace_back(
            m, std::max<Tick>(0, state.now - rng.uniform_int(0, 5)));
      }
    }
    const auto batch = rng.uniform01() < 0.3 ? rng.uniform_int(1, 300)
                                             : rng.uniform_int(1, 40);
    for (std::int64_t i = 0; i < batch; ++i) {
      state.batch.emplace_back(pick_type(), pick_deadline());
    }
    const int window =
        rng.uniform01() < 0.25 ? static_cast<int>(rng.uniform_int(1, 12))
                               : 256;
    expect_same_assignments(pet, state, window,
                            "round " + std::to_string(round), &reached);
    if (::testing::Test::HasFailure()) return;
  }
  // The suite is only as strong as the situations it reaches.
  EXPECT_GT(reached.completion_ties, 0);
  EXPECT_GT(reached.exec_ties, 0);
  EXPECT_GT(reached.deferred, 0);
  EXPECT_GT(reached.lone_machine_deferral_rounds, 0);
}

TEST(PamDifferential, CompletionTieGoesToShorterExecution) {
  // Two free machines: m0 (type 0) with a 10-tick backlog, m1 (type 1)
  // idle. Deadline 16 sends X (type 0) to m1 — 15 there, 18 on m0 — and Y
  // (type 1) to m0 — 15 there, 20 on m1. Both keys are 15; Y's shorter
  // execution (5 vs 15) wins. Y's completion floor is 15, *equal* to the
  // best key, so only a strict floor test leaves it in the running.
  const PetMatrix pet = pet_of({{{{8, 1.0}}, {{15, 1.0}}},
                                {{{5, 1.0}}, {{20, 1.0}}},
                                {{{10, 1.0}}, {{10, 1.0}}}});
  State state;
  state.machine_types = {0, 1};
  state.capacity = 2;
  state.queued = {{0, 2, 100}};
  const TaskId y = 2;  // X is task 1
  state.batch = {{0, 16}, {1, 16}};
  PamMapper pam;
  const auto assigned = assignments(pet, state, pam);
  ASSERT_FALSE(assigned.empty());
  EXPECT_EQ(assigned.front(), std::make_pair(y, MachineId{0}));
  expect_same_assignments(pet, state, 256, "completion tie");
}

TEST(PamDifferential, FullTieKeepsTheEarlierCandidate) {
  // Identical idle machines; X and Y differ in shape but share the mean
  // 6, so both the expected completion and the execution mean tie and the
  // earlier candidate X must be mapped first.
  const PetMatrix pet = pet_of({{{{6, 1.0}}}, {{{4, 0.5}, {8, 0.5}}}});
  State state;
  state.machine_types = {0, 0};
  state.capacity = 1;
  state.batch = {{0, 100}, {1, 100}};
  PamMapper pam;
  const auto assigned = assignments(pet, state, pam);
  ASSERT_EQ(assigned.size(), 2u);
  EXPECT_EQ(assigned.front(), std::make_pair(TaskId{0}, MachineId{0}));
  expect_same_assignments(pet, state, 256, "full tie");
}

TEST(PamDifferential, DeferralStillProbesALoneFreeMachine) {
  // PAMD with one free machine (m1 is full): the hopeless first task
  // (deadline already past) is deferred, which only a probe can tell,
  // and the feasible second task takes the slot.
  const PetMatrix pet = pet_of({{{{4, 1.0}}}});
  State state;
  state.machine_types = {0, 0};
  state.capacity = 1;
  state.now = 10;
  state.queued = {{1, 0, 100}};
  state.batch = {{0, 5}, {0, 50}};
  PamMapper pamd(256, kPamdThreshold);
  const auto assigned = assignments(pet, state, pamd);
  ASSERT_EQ(assigned.size(), 1u);
  EXPECT_EQ(assigned.front(), std::make_pair(TaskId{2}, MachineId{0}));
  // Without deferral the lone machine takes the earlier (hopeless) task.
  PamMapper pam;
  EXPECT_EQ(assignments(pet, state, pam).front().first, TaskId{1});
  expect_same_assignments(pet, state, 256, "lone machine");
}

}  // namespace
}  // namespace taskdrop
