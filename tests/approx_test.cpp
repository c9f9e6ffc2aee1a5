// Approximate-computing extension tests (section VI future work).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/approx_dropper.hpp"
#include "core/sandbox.hpp"
#include "exp/experiment.hpp"
#include "pet/pet_builder.hpp"
#include "prob/convolution.hpp"
#include "sched/registry.hpp"
#include "sim/engine.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"

namespace taskdrop {
namespace {

using test::pet_of;
using test::pmf_of;

// ---------------------------- scale_time -----------------------------

TEST(ScaleTime, HalvesTimesOnTheLattice) {
  const Pmf pmf = pmf_of({{10, 0.5}, {20, 0.5}}, 5);
  const Pmf scaled = pmf.scale_time(0.5);
  EXPECT_EQ(scaled, pmf_of({{5, 0.5}, {10, 0.5}}, 5));
}

TEST(ScaleTime, MergesCollidingBinsAndClampsToOneStride) {
  const Pmf pmf = pmf_of({{1, 0.3}, {2, 0.3}, {10, 0.4}});
  const Pmf scaled = pmf.scale_time(0.1);
  // 1 -> clamp 1, 2 -> clamp 1, 10 -> 1: everything lands on tick 1.
  EXPECT_EQ(scaled, pmf_of({{1, 1.0}}));
  EXPECT_NEAR(scaled.total_mass(), 1.0, 1e-12);
}

TEST(ScaleTime, PreservesMassForAnyFactor) {
  const Pmf pmf = pmf_of({{10, 0.2}, {15, 0.3}, {40, 0.5}}, 5);
  for (const double factor : {0.25, 0.5, 0.75, 1.0, 2.0}) {
    EXPECT_NEAR(pmf.scale_time(factor).total_mass(), 1.0, 1e-12) << factor;
  }
}

TEST(ScaledPet, ScalesEveryCell) {
  const PetMatrix pet =
      pet_of({{{{10, 1.0}}, {{20, 1.0}}}, {{{40, 1.0}}, {{8, 1.0}}}});
  const PetMatrix half = scaled_pet(pet, 0.5);
  EXPECT_TRUE(half.frozen());
  EXPECT_DOUBLE_EQ(half.mean_execution(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(half.mean_execution(0, 1), 10.0);
  EXPECT_DOUBLE_EQ(half.mean_execution(1, 0), 20.0);
  EXPECT_DOUBLE_EQ(half.mean_execution(1, 1), 4.0);
}

// --------------------------- ApproxDropper ---------------------------

/// big {10}, small {1}; the approximate PET halves times (big~ = {5}).
struct ApproxRig {
  PetMatrix pet = pet_of({{{{10, 1.0}}}, {{{1, 1.0}}}});
  PetMatrix approx = scaled_pet(pet, 0.5);

  std::unique_ptr<SystemSandbox> sandbox(int capacity = 6) {
    CompletionModel::Options options;
    options.approx_pet = &approx;
    return std::make_unique<SystemSandbox>(pet, std::vector<MachineTypeId>{0},
                                           capacity, 0, options);
  }
};

TEST(ApproxDropper, DowngradesWhenApproximateVersionSucceeds) {
  ApproxRig rig;
  auto sandbox = rig.sandbox();
  // Full big task (10 ticks) with deadline 8: hopeless at full quality,
  // certain at approximate quality (5 ticks). No successors, so dropping is
  // off the table (last task) — downgrade is the only sensible move:
  // keep utility = 0, downgrade utility = 0.5 * 1.0.
  const TaskId task = sandbox->enqueue(0, 0, 8);
  ApproxDropper dropper;
  dropper.run(sandbox->view(), *sandbox);
  ASSERT_EQ(sandbox->downgraded.size(), 1u);
  EXPECT_EQ(sandbox->downgraded.front(), task);
  EXPECT_TRUE(sandbox->dropped.empty());
  EXPECT_TRUE(sandbox->task(task).approximate);
  EXPECT_NEAR(sandbox->model(0).chance(0), 1.0, 1e-12);
}

TEST(ApproxDropper, PrefersDropWhenDowngradeCannotSave) {
  ApproxRig rig;
  auto sandbox = rig.sandbox();
  // Big head with deadline 3: even the approximate version (5 ticks) misses.
  // Successors gain everything from a drop.
  const TaskId big = sandbox->enqueue(0, 0, 3);
  sandbox->enqueue(0, 1, 4);
  sandbox->enqueue(0, 1, 5);
  ApproxDropper dropper;
  dropper.run(sandbox->view(), *sandbox);
  ASSERT_EQ(sandbox->dropped.size(), 1u);
  EXPECT_EQ(sandbox->dropped.front(), big);
  EXPECT_TRUE(sandbox->downgraded.empty());
}

TEST(ApproxDropper, KeepsCertainTasksAtFullQuality) {
  ApproxRig rig;
  auto sandbox = rig.sandbox();
  sandbox->enqueue(0, 1, 100);
  sandbox->enqueue(0, 1, 101);
  ApproxDropper dropper;
  dropper.run(sandbox->view(), *sandbox);
  EXPECT_TRUE(sandbox->dropped.empty());
  // Downgrading a certain task would shrink its utility from 1.0 to 0.5.
  EXPECT_TRUE(sandbox->downgraded.empty());
}

TEST(ApproxDropper, WithoutApproxPetBehavesLikeHeuristic) {
  const PetMatrix pet = pet_of({{{{10, 1.0}}}, {{{1, 1.0}}}});
  SystemSandbox sandbox(pet, {0}, 6);  // no approx_pet in options
  sandbox.enqueue(0, 0, 5);
  sandbox.enqueue(0, 1, 3);
  sandbox.enqueue(0, 1, 4);
  ApproxDropper dropper;
  dropper.run(sandbox.view(), sandbox);
  EXPECT_EQ(sandbox.dropped.size(), 1u);
  EXPECT_TRUE(sandbox.downgraded.empty());
}

TEST(ApproxDropper, DowngradeIsIdempotentPerTask) {
  ApproxRig rig;
  auto sandbox = rig.sandbox();
  sandbox->enqueue(0, 0, 8);
  ApproxDropper dropper;
  dropper.run(sandbox->view(), *sandbox);
  dropper.run(sandbox->view(), *sandbox);
  EXPECT_EQ(sandbox->downgraded.size(), 1u);  // not downgraded twice
}

/// The approx dropper's pass with no bound: both options' weighted window
/// utilities evaluated at every examined position of machine 0, with the
/// allocating kernels, exactly as the dropper decided before pruning.
void unpruned_approx_pass(SystemSandbox& sandbox, const PetMatrix& approx,
                          int eta, double beta) {
  Machine& machine = sandbox.machine(0);
  CompletionModel& model = sandbox.model(0);
  const std::vector<Task>& tasks = *sandbox.view().tasks;
  const PetMatrix& pet = *sandbox.view().pet;
  const double weight = sandbox.view().approx_weight;
  const auto utility = [&](const Pmf& pred, std::size_t first,
                           std::size_t last, std::size_t skipped,
                           std::size_t downgraded) {
    Pmf chain = pred;
    double sum = 0.0;
    for (std::size_t i = first; i <= last; ++i) {
      if (i == skipped) continue;
      const Task& task = tasks[static_cast<std::size_t>(machine.queue[i])];
      const bool approx_mode = task.approximate || i == downgraded;
      const PetMatrix& cells = approx_mode ? approx : pet;
      chain = deadline_convolve(chain, cells.pmf(task.type, machine.type),
                                task.deadline);
      sum += (approx_mode ? weight : 1.0) * chain.mass_before(task.deadline);
    }
    return sum;
  };
  constexpr std::size_t kNone = ~std::size_t{0};
  std::size_t pos = machine.first_pending_pos();
  while (pos < machine.queue.size()) {
    const bool is_last = pos + 1 == machine.queue.size();
    const std::size_t window_end = std::min(
        pos + static_cast<std::size_t>(eta), machine.queue.size() - 1);
    const Task& task = tasks[static_cast<std::size_t>(machine.queue[pos])];
    const Pmf& pred = model.predecessor(pos);
    double keep = 0.0;
    for (std::size_t n = pos; n <= window_end; ++n) {
      const Task& kept = tasks[static_cast<std::size_t>(machine.queue[n])];
      keep += (kept.approximate ? weight : 1.0) * model.chance(n);
    }
    const double drop =
        is_last ? -1.0 : utility(pred, pos, window_end, pos, kNone);
    const double downgrade =
        task.approximate ? -1.0 : utility(pred, pos, window_end, kNone, pos);
    if (std::max(drop, downgrade) > beta * keep) {
      if (drop >= downgrade) {
        sandbox.drop_queued_task(machine.id, pos);
        continue;
      }
      sandbox.downgrade_task(machine.id, pos);
    }
    ++pos;
  }
}

TEST(ApproxDropper, PrunedPassMatchesUnprunedOnRandomQueues) {
  // Differential over random multi-bin queues: the bound-pruned dropper
  // must drop and downgrade exactly the tasks the full evaluation does.
  int decisions = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    const PetMatrix pet = test::random_pet(rng, 4);
    const PetMatrix approx = scaled_pet(pet, 0.5);
    CompletionModel::Options options;
    options.approx_pet = &approx;
    const int depth = static_cast<int>(rng.uniform_int(1, 7));
    const int eta = static_cast<int>(rng.uniform_int(1, 3));
    const double beta = rng.uniform01() < 0.5 ? 1.0 : 1.3;
    const bool running = rng.uniform01() < 0.4;

    SystemSandbox expected(pet, {0}, depth + 1, 0, options);
    SystemSandbox actual(pet, {0}, depth + 1, 0, options);
    for (int i = 0; i < depth; ++i) {
      const auto type = static_cast<TaskTypeId>(rng.uniform_int(0, 3));
      const Tick deadline = rng.uniform_int(2, 40);
      expected.enqueue(0, type, deadline);
      actual.enqueue(0, type, deadline);
    }
    if (running) {
      expected.set_running(0, 0);
      actual.set_running(0, 0);
    }
    unpruned_approx_pass(expected, approx, eta, beta);
    ApproxDropper dropper(ApproxDropper::Params{eta, beta});
    dropper.run(actual.view(), actual);
    EXPECT_EQ(actual.dropped, expected.dropped) << "seed " << seed;
    EXPECT_EQ(actual.downgraded, expected.downgraded) << "seed " << seed;
    decisions += static_cast<int>(actual.dropped.size() +
                                  actual.downgraded.size());
  }
  EXPECT_GT(decisions, 20);
}

// ----------------------- engine integration --------------------------

TEST(ApproxEngine, ApproximateTasksRunWithScaledDurations) {
  const PetMatrix pet = pet_of({{{{10, 1.0}}}, {{{1, 1.0}}}});
  // Head task arrives first and runs; the big task behind it would miss its
  // deadline at full quality but fits at half duration.
  const Trace trace = {{1, 0, 100}, {0, 1, 9}};
  auto mapper = make_mapper("FCFS");
  auto dropper = make_dropper(DropperConfig::approximate());
  EngineConfig config;
  config.approx.enabled = true;
  config.approx.time_factor = 0.5;
  Engine engine(pet, {0}, *mapper, *dropper, config);
  const SimResult result = engine.run(trace);
  EXPECT_EQ(result.tasks[1].state, TaskState::CompletedOnTime);
  EXPECT_TRUE(result.tasks[1].approximate);
  EXPECT_EQ(result.tasks[1].actual_execution, 5);
  EXPECT_EQ(result.counts().approx_on_time, 1);
}

TEST(ApproxEngine, UtilityWeighsApproxCompletions) {
  const PetMatrix pet = pet_of({{{{10, 1.0}}}, {{{1, 1.0}}}});
  const Trace trace = {{1, 0, 100}, {0, 1, 9}};
  auto mapper = make_mapper("FCFS");
  auto dropper = make_dropper(DropperConfig::approximate());
  EngineConfig config;
  config.approx.enabled = true;
  Engine engine(pet, {0}, *mapper, *dropper, config);
  const SimResult result = engine.run(trace);
  // Both tasks on time; one approximate at weight 0.5 -> utility 75 %.
  EXPECT_NEAR(result.robustness_pct(0, 0), 100.0, 1e-12);
  EXPECT_NEAR(result.utility_pct(0.5, 0, 0), 75.0, 1e-12);
  EXPECT_NEAR(result.utility_pct(1.0, 0, 0), 100.0, 1e-12);
}

TEST(ApproxExperiment, UtilityAtLeastMatchesDropOnlyUnderOversubscription) {
  ExperimentConfig config;
  config.scenario = ScenarioKind::SpecHC;
  config.mapper = "PAM";
  config.workload.n_tasks = 600;
  config.workload.oversubscription = 3.0;
  config.trials = 3;
  config.seed = 21;

  config.dropper = DropperConfig::heuristic();
  const ExperimentResult drop_only = run_experiment(config);
  config.dropper = DropperConfig::approximate();
  const ExperimentResult approx = run_experiment(config);

  // Downgrading converts would-be drops into half-credit completions, so
  // robustness (on-time %) should not fall apart and typically rises.
  EXPECT_GT(approx.robustness.mean + 5.0, drop_only.robustness.mean);
  // And some tasks actually ran approximately.
  long long approx_completions = 0;
  for (const TrialMetrics& trial : approx.trials) {
    approx_completions += trial.approx_on_time;
  }
  EXPECT_GT(approx_completions, 0);
}

}  // namespace
}  // namespace taskdrop
