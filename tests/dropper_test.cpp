#include "core/proactive_heuristic_dropper.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/null_dropper.hpp"
#include "core/sandbox.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace taskdrop {
namespace {

using test::pet_of;
using test::random_pet;

/// Task types on one machine type:
///   0 "big":    {10: 1.0}
///   1 "small":  {1: 1.0}
///   2 "medium": {5: 1.0}
///   3 "coin":   {2: 0.5, 20: 0.5}
PetMatrix dropper_pet() {
  return pet_of({{{{10, 1.0}}}, {{{1, 1.0}}}, {{{5, 1.0}}},
                 {{{2, 0.5}, {20, 0.5}}}});
}

TEST(HeuristicDropper, DropsHopelessHeadThatBlocksSuccessors) {
  const PetMatrix pet = dropper_pet();
  SystemSandbox sandbox(pet, {0}, 6);
  // Head: big task that cannot finish by 5 (chance 0) but would occupy the
  // machine for 10 ticks, dooming both small successors.
  const TaskId big = sandbox.enqueue(0, /*type=*/0, /*deadline=*/5);
  sandbox.enqueue(0, /*type=*/1, /*deadline=*/3);
  sandbox.enqueue(0, /*type=*/1, /*deadline=*/4);

  ProactiveHeuristicDropper dropper;  // eta=2, beta=1
  dropper.run(sandbox.view(), sandbox);

  ASSERT_EQ(sandbox.dropped.size(), 1u);
  EXPECT_EQ(sandbox.dropped.front(), big);
  // The survivors are now certain to succeed.
  EXPECT_NEAR(sandbox.model(0).chance(0), 1.0, 1e-12);
  EXPECT_NEAR(sandbox.model(0).chance(1), 1.0, 1e-12);
}

TEST(HeuristicDropper, NeverDropsTheLastTask) {
  const PetMatrix pet = dropper_pet();
  SystemSandbox sandbox(pet, {0}, 6);
  // A single hopeless task: its influence zone is null (section IV-D), so
  // proactive dropping must leave it alone.
  sandbox.enqueue(0, /*type=*/0, /*deadline=*/2);
  ProactiveHeuristicDropper dropper;
  dropper.run(sandbox.view(), sandbox);
  EXPECT_TRUE(sandbox.dropped.empty());
  EXPECT_EQ(sandbox.machine(0).queue.size(), 1u);
}

TEST(HeuristicDropper, NeverDropsTheRunningTask) {
  const PetMatrix pet = dropper_pet();
  SystemSandbox sandbox(pet, {0}, 6);
  const TaskId running = sandbox.enqueue(0, /*type=*/0, /*deadline=*/5);
  sandbox.enqueue(0, /*type=*/1, /*deadline=*/3);
  sandbox.enqueue(0, /*type=*/1, /*deadline=*/4);
  sandbox.set_running(0, /*run_start=*/0);

  ProactiveHeuristicDropper dropper;
  dropper.run(sandbox.view(), sandbox);
  // The hopeless running task is untouchable (no preemption); at most the
  // pending tasks may go. The first queued position must still hold it.
  EXPECT_EQ(sandbox.machine(0).queue.front(), running);
  for (TaskId dropped : sandbox.dropped) EXPECT_NE(dropped, running);
}

TEST(HeuristicDropper, LargeBetaDisablesDropping) {
  // Note the queue must carry *some* robustness: Eq. 8 with a zero
  // keep-sum (R_keep = 0) confirms a drop for any beta, because any gain
  // beats beta * 0 — dropping is then strictly beneficial no matter how
  // conservative the factor. With positive keep-sum, beta -> infinity
  // disables dropping as section IV-E describes.
  const PetMatrix pet = dropper_pet();
  SystemSandbox sandbox(pet, {0}, 6);
  sandbox.enqueue(0, 3, 3);  // coin: chance 0.5
  sandbox.enqueue(0, 1, 4);
  sandbox.enqueue(0, 1, 5);
  ProactiveHeuristicDropper dropper(
      ProactiveHeuristicDropper::Params{2, 1e9});
  dropper.run(sandbox.view(), sandbox);
  EXPECT_TRUE(sandbox.dropped.empty());
}

TEST(HeuristicDropper, BetaGatesMarginalGains) {
  const PetMatrix pet = dropper_pet();
  // Head "coin" task (delta=3): chance 0.5. Two small successors with
  // deadlines 4 and 5: each has chance 0.5 behind the coin, 1.0 without it.
  // Eq. 8: gain 2.0 vs beta * keep 1.5 -> drops at beta=1, not at beta=1.5.
  for (const double beta : {1.0, 1.5}) {
    SystemSandbox sandbox(pet, {0}, 6);
    sandbox.enqueue(0, 3, 3);
    sandbox.enqueue(0, 1, 4);
    sandbox.enqueue(0, 1, 5);
    ProactiveHeuristicDropper dropper(
        ProactiveHeuristicDropper::Params{2, beta});
    dropper.run(sandbox.view(), sandbox);
    if (beta == 1.0) {
      EXPECT_EQ(sandbox.dropped.size(), 1u) << "beta " << beta;
    } else {
      EXPECT_TRUE(sandbox.dropped.empty()) << "beta " << beta;
    }
  }
}

TEST(HeuristicDropper, EffectiveDepthOneMissesDeeperGains) {
  const PetMatrix pet = dropper_pet();
  // Head: medium task (5 ticks, deadline 4 -> own chance 0, still occupies
  // the machine until 5). Successor 1 (deadline 7) succeeds either way;
  // successor 2 (deadline 3) succeeds only if the head is dropped.
  // eta=1 sees no gain; eta=2 sees it (the paper's Fig. 5 argument for
  // eta=1 being "not effective").
  for (const int eta : {1, 2}) {
    SystemSandbox sandbox(pet, {0}, 6);
    sandbox.enqueue(0, 2, 4);
    sandbox.enqueue(0, 1, 7);
    sandbox.enqueue(0, 1, 3);
    ProactiveHeuristicDropper dropper(
        ProactiveHeuristicDropper::Params{eta, 1.0});
    dropper.run(sandbox.view(), sandbox);
    if (eta == 1) {
      EXPECT_TRUE(sandbox.dropped.empty()) << "eta " << eta;
    } else {
      EXPECT_EQ(sandbox.dropped.size(), 1u) << "eta " << eta;
    }
  }
}

TEST(HeuristicDropper, SinglePassReexaminesShiftedPosition) {
  const PetMatrix pet = dropper_pet();
  SystemSandbox sandbox(pet, {0}, 6);
  // Two risky coin tasks (deadline 3: each succeeds with 0.5 alone, dooms
  // everything behind it on the slow branch) ahead of two certain smalls.
  // Dropping the first coin is worthwhile; the second coin then shifts into
  // the examined position and must be evaluated — and dropped — in the same
  // pass.
  sandbox.enqueue(0, 3, 3);
  sandbox.enqueue(0, 3, 3);
  sandbox.enqueue(0, 1, 4);
  sandbox.enqueue(0, 1, 5);
  ProactiveHeuristicDropper dropper;
  dropper.run(sandbox.view(), sandbox);
  EXPECT_EQ(sandbox.dropped.size(), 2u);
  EXPECT_EQ(sandbox.machine(0).queue.size(), 2u);
  EXPECT_NEAR(sandbox.model(0).instantaneous_robustness(), 2.0, 1e-12);
}

TEST(HeuristicDropper, SecondRunOnUnchangedQueueIsIdempotent) {
  const PetMatrix pet = dropper_pet();
  SystemSandbox sandbox(pet, {0}, 6);
  sandbox.enqueue(0, 0, 5);
  sandbox.enqueue(0, 1, 3);
  sandbox.enqueue(0, 1, 4);
  ProactiveHeuristicDropper dropper;
  dropper.run(sandbox.view(), sandbox);
  const std::size_t after_first = sandbox.dropped.size();
  dropper.run(sandbox.view(), sandbox);
  EXPECT_EQ(sandbox.dropped.size(), after_first);
}

TEST(HeuristicDropper, FreshDropperReachesSameFixpoint) {
  // The version-skip memoisation must not change decisions: a brand-new
  // dropper (no memo) on the post-pass queue finds nothing to drop either.
  const PetMatrix pet = dropper_pet();
  SystemSandbox sandbox(pet, {0}, 6);
  sandbox.enqueue(0, 0, 5);
  sandbox.enqueue(0, 3, 6);
  sandbox.enqueue(0, 1, 3);
  sandbox.enqueue(0, 1, 4);
  ProactiveHeuristicDropper first;
  first.run(sandbox.view(), sandbox);
  const std::size_t dropped = sandbox.dropped.size();
  ProactiveHeuristicDropper fresh;
  fresh.run(sandbox.view(), sandbox);
  EXPECT_EQ(sandbox.dropped.size(), dropped);
}

TEST(HeuristicDropper, NoDropsWhenEveryTaskIsCertain) {
  const PetMatrix pet = dropper_pet();
  SystemSandbox sandbox(pet, {0}, 6);
  for (int i = 0; i < 5; ++i) {
    sandbox.enqueue(0, /*type=*/1, /*deadline=*/100 + i);
  }
  ProactiveHeuristicDropper dropper;
  dropper.run(sandbox.view(), sandbox);
  EXPECT_TRUE(sandbox.dropped.empty());
}

TEST(HeuristicDropper, WindowClampsWhenFewerSuccessorsThanEta) {
  const PetMatrix pet = dropper_pet();
  SystemSandbox sandbox(pet, {0}, 6);
  sandbox.enqueue(0, 0, 5);  // hopeless head
  sandbox.enqueue(0, 1, 3);  // single successor
  ProactiveHeuristicDropper dropper(ProactiveHeuristicDropper::Params{5, 1.0});
  dropper.run(sandbox.view(), sandbox);
  EXPECT_EQ(sandbox.dropped.size(), 1u);
}

TEST(HeuristicDropper, MultiMachinePassCoversAllQueues) {
  const PetMatrix pet = dropper_pet();
  SystemSandbox sandbox(pet, {0, 0}, 6);
  sandbox.enqueue(0, 0, 5);
  sandbox.enqueue(0, 1, 3);
  sandbox.enqueue(0, 1, 4);
  sandbox.enqueue(1, 0, 5);
  sandbox.enqueue(1, 1, 3);
  sandbox.enqueue(1, 1, 4);
  ProactiveHeuristicDropper dropper;
  dropper.run(sandbox.view(), sandbox);
  EXPECT_EQ(sandbox.dropped.size(), 2u);
  EXPECT_EQ(sandbox.machine(0).queue.size(), 2u);
  EXPECT_EQ(sandbox.machine(1).queue.size(), 2u);
}

TEST(WindowChanceBound, TightWhenEveryChanceIsOne) {
  // Idle machine, certain small tasks with slack: every chance of the
  // provisional window is exactly 1, and so is every min(1, mass) term —
  // the bound exceeds the sum by its per-step slack only.
  const PetMatrix pet = dropper_pet();
  SystemSandbox sandbox(pet, {0}, 6);
  for (int i = 0; i < 4; ++i) sandbox.enqueue(0, /*type=*/1, 100 + i);
  CompletionModel& model = sandbox.model(0);
  const Machine& machine = sandbox.machine(0);
  const std::vector<Task>& tasks = *sandbox.view().tasks;
  const Pmf& pred = model.predecessor(0);
  const double sum = window_chance_sum(pred, machine, tasks, pet, 1, 3);
  const double bound = window_chance_bound(pred, machine, tasks, 1, 3);
  EXPECT_EQ(sum, 3.0);
  EXPECT_GE(bound, sum);
  EXPECT_NEAR(bound, 3.0 + (1 + 2 + 3) * kWindowBoundEps, 1e-15);
}

TEST(WindowChanceBound, ZeroExactlyWhenDeadlinesPrecedeTheRoot) {
  // A root entirely at or after every deadline: no slot of the window can
  // succeed, and the bound says so without any slack.
  const PetMatrix pet = dropper_pet();
  SystemSandbox sandbox(pet, {0}, 6, /*now=*/50);
  sandbox.enqueue(0, 1, 60);
  sandbox.enqueue(0, 1, 40);
  sandbox.enqueue(0, 3, 50);
  const Pmf& pred = sandbox.model(0).predecessor(0);
  const std::vector<Task>& tasks = *sandbox.view().tasks;
  EXPECT_EQ(window_chance_bound(pred, sandbox.machine(0), tasks, 1, 2), 0.0);
  EXPECT_EQ(window_chance_sum(pred, sandbox.machine(0), tasks, pet, 1, 2),
            0.0);
}

TEST(HeuristicDropper, BoundEqualToBetaKeepStillEvaluatesEq8) {
  // eta = 1, beta = 1. The big head (10 ticks, deadline 11) succeeds and
  // pushes the small successor (deadline 10) past its deadline, so
  // R_keep = 1 + 0. Dropping the head rescues the successor: R_drop = 1,
  // and the bound's min(1, mass) sum is 1 as well — equal to beta * R_keep.
  // Only the slack keeps the window from being pruned, and Eq. 8's strict
  // '>' then keeps the head.
  const PetMatrix pet = dropper_pet();
  SystemSandbox sandbox(pet, {0}, 6);
  sandbox.enqueue(0, /*type=*/0, 11);
  sandbox.enqueue(0, /*type=*/1, 10);
  CompletionModel& model = sandbox.model(0);
  const double keep_sum = model.chance(0) + model.chance(1);
  ASSERT_EQ(keep_sum, 1.0);
  const std::vector<Task>& tasks = *sandbox.view().tasks;
  const Pmf& pred = model.predecessor(0);
  EXPECT_EQ(window_chance_sum(pred, sandbox.machine(0), tasks, pet, 1, 1),
            1.0);
  EXPECT_GT(window_chance_bound(pred, sandbox.machine(0), tasks, 1, 1),
            keep_sum);

  ProactiveHeuristicDropper dropper(ProactiveHeuristicDropper::Params{1, 1.0});
  dropper.run(sandbox.view(), sandbox);
  EXPECT_TRUE(sandbox.dropped.empty());
}

/// The Eq. 8 pass with no bound: window_chance_sum at every examined
/// position of machine 0, exactly as the dropper evaluated it before
/// pruning. Also checks that the bound holds at every position.
void unpruned_heuristic_pass(SystemSandbox& sandbox, int eta, double beta) {
  Machine& machine = sandbox.machine(0);
  CompletionModel& model = sandbox.model(0);
  const std::vector<Task>& tasks = *sandbox.view().tasks;
  const PetMatrix& pet = *sandbox.view().pet;
  std::size_t pos = machine.first_pending_pos();
  while (pos + 1 < machine.queue.size()) {
    const std::size_t window_end = std::min(
        pos + static_cast<std::size_t>(eta), machine.queue.size() - 1);
    double keep_sum = 0.0;
    for (std::size_t n = pos; n <= window_end; ++n) keep_sum += model.chance(n);
    const Pmf& pred = model.predecessor(pos);
    const double drop_sum =
        window_chance_sum(pred, machine, tasks, pet, pos + 1, window_end);
    EXPECT_LE(drop_sum,
              window_chance_bound(pred, machine, tasks, pos + 1, window_end));
    if (drop_sum > beta * keep_sum) {
      sandbox.drop_queued_task(machine.id, pos);
    } else {
      ++pos;
    }
  }
}

TEST(HeuristicDropper, PrunedPassMatchesUnprunedOnRandomQueues) {
  // Differential: the pruned dropper against the unpruned reference pass,
  // on random multi-bin queues. Every third queue repeats one (type,
  // deadline) pair, which makes R_drop and beta * R_keep tie exactly.
  const double betas[] = {1.0, 1.0 + 1e-12, 1.25, 2.0};
  const int etas[] = {1, 2, 3, 5};
  int drops = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    Rng rng(seed);
    const PetMatrix pet = random_pet(rng, 4);
    const int depth = static_cast<int>(rng.uniform_int(2, 8));
    const bool repeat = seed % 3 == 0;
    const auto repeat_type = static_cast<TaskTypeId>(rng.uniform_int(0, 3));
    const Tick repeat_deadline = rng.uniform_int(4, 30);
    std::vector<std::pair<TaskTypeId, Tick>> specs;
    for (int i = 0; i < depth; ++i) {
      specs.emplace_back(
          repeat ? repeat_type : static_cast<TaskTypeId>(rng.uniform_int(0, 3)),
          repeat ? repeat_deadline : rng.uniform_int(2, 40));
    }
    const bool running = rng.uniform01() < 0.5;
    const int eta = etas[rng.uniform_int(0, 3)];
    const double beta = betas[rng.uniform_int(0, 3)];

    SystemSandbox expected(pet, {0}, depth + 1);
    SystemSandbox actual(pet, {0}, depth + 1);
    for (const auto& [type, deadline] : specs) {
      expected.enqueue(0, type, deadline);
      actual.enqueue(0, type, deadline);
    }
    if (running) {
      expected.set_running(0, 0);
      actual.set_running(0, 0);
    }
    unpruned_heuristic_pass(expected, eta, beta);
    ProactiveHeuristicDropper dropper(
        ProactiveHeuristicDropper::Params{eta, beta});
    dropper.run(actual.view(), actual);
    EXPECT_EQ(actual.dropped, expected.dropped) << "seed " << seed;
    drops += static_cast<int>(actual.dropped.size());
  }
  // The differential must exercise both outcomes of Eq. 8.
  EXPECT_GT(drops, 20);
}

TEST(NullDropper, NeverDropsAnything) {
  const PetMatrix pet = dropper_pet();
  SystemSandbox sandbox(pet, {0}, 6);
  sandbox.enqueue(0, 0, 2);  // hopeless
  sandbox.enqueue(0, 1, 3);
  NullDropper dropper;
  dropper.run(sandbox.view(), sandbox);
  EXPECT_TRUE(sandbox.dropped.empty());
  EXPECT_EQ(dropper.name(), "ReactDrop");
}

}  // namespace
}  // namespace taskdrop
