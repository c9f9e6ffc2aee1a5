#include "util/audit.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/completion_model.hpp"
#include "core/proactive_heuristic_dropper.hpp"
#include "online/online_scheduler.hpp"
#include "sched/registry.hpp"
#include "sim/engine.hpp"
#include "sim/expiry_heap.hpp"
#include "sim/machine.hpp"
#include "test_util.hpp"

namespace taskdrop {
namespace {

using test::pet_of;

/// Restores the audit sampling interval a test overrode, so the rest of
/// the (possibly audited) suite keeps running at the configured density.
class IntervalGuard {
 public:
  IntervalGuard() : saved_(audit::interval()) {}
  ~IntervalGuard() { audit::set_interval_for_testing(saved_); }

 private:
  std::uint64_t saved_;
};

TEST(Audit, DueGateMatchesBuildMode) {
  std::uint64_t counter = 0;
  if constexpr (audit::kEnabled) {
    IntervalGuard guard;
    audit::set_interval_for_testing(3);
    int fired = 0;
    for (int i = 0; i < 9; ++i) fired += audit::due(counter) ? 1 : 0;
    EXPECT_EQ(fired, 3);
    audit::set_interval_for_testing(1);
    EXPECT_TRUE(audit::due(counter));
  } else {
    // Normal builds: the gate folds to constant false, whatever the count.
    for (int i = 0; i < 9; ++i) EXPECT_FALSE(audit::due(counter));
  }
}

TEST(Audit, ZeroTestingIntervalClampsToEveryCall) {
  if constexpr (!audit::kEnabled) GTEST_SKIP() << "needs TASKDROP_AUDIT";
  IntervalGuard guard;
  audit::set_interval_for_testing(0);
  EXPECT_EQ(audit::interval(), 1u);
}

TEST(Audit, FailThrowsLogicError) {
  EXPECT_THROW(audit::fail("synthetic breach"), std::logic_error);
}

TEST(ExpiryHeap, PopsInDeadlineOrderWithIdTieBreak) {
  ExpiryHeap heap;
  heap.push(30, 0);
  heap.push(10, 2);
  heap.push(10, 1);
  heap.push(20, 3);
  std::vector<ExpiryHeap::Entry> popped;
  while (!heap.empty()) {
    popped.push_back(heap.top());
    heap.pop();
  }
  const std::vector<ExpiryHeap::Entry> expected = {
      {10, 1}, {10, 2}, {20, 3}, {30, 0}};
  EXPECT_EQ(popped, expected);
}

TEST(ExpiryHeap, IntrospectionSeesEveryEntry) {
  ExpiryHeap heap;
  heap.push(5, 7);
  heap.push(3, 9);
  heap.push(8, 1);
  EXPECT_EQ(heap.size(), 3u);
  EXPECT_TRUE(heap.is_heap());
  EXPECT_TRUE(heap.contains(3, 9));
  EXPECT_TRUE(heap.contains(8, 1));
  EXPECT_FALSE(heap.contains(3, 7));
  EXPECT_FALSE(heap.contains(4, 9));
  heap.clear();
  EXPECT_TRUE(heap.empty());
  EXPECT_FALSE(heap.contains(3, 9));
}

TEST(Audit, DownMachineChainRebasesWhenTimeAdvances) {
  // Regression for a staleness bug the chain auditor surfaced under
  // failure injection: a machine held down by a failure keeps queued tasks
  // while not running, and set_now used to leave its cached chain rooted
  // at the old base delta(now). Chance queries at a later time must match
  // a model evaluated fresh at that time.
  const PetMatrix pet = test::pet_of({{{{4, 0.6}, {10, 0.4}}}});
  std::vector<Task> tasks(1);
  tasks[0].id = 0;
  tasks[0].type = 0;
  tasks[0].deadline = 12;
  Machine machine(0, 0, 4);
  machine.enqueue(0);
  machine.running = false;  // a failure killed the running task

  CompletionModel stale(&pet, &machine, &tasks, {});
  stale.set_now(0);
  const double at_zero = stale.chance(0);
  stale.set_now(6);
  const double rebased = stale.chance(0);

  CompletionModel fresh(&pet, &machine, &tasks, {});
  fresh.set_now(6);
  EXPECT_EQ(rebased, fresh.chance(0));
  EXPECT_NE(rebased, at_zero);  // deadline 12: only the 4-tick branch fits
}

TEST(Audit, AuditedRunMatchesUnauditedRun) {
  // A stochastic oversubscribed PAM + heuristic-dropper run, executed twice:
  // once at the configured sampling density and once (in audit builds) with
  // every single gate firing. The audit must neither trip nor perturb the
  // outcome — cross-checks recompute into scratch and only compare.
  const PetMatrix pet =
      pet_of({{{{4, 0.5}, {8, 0.3}, {12, 0.2}}}, {{{6, 0.7}, {14, 0.3}}}});
  Trace trace;
  for (int i = 0; i < 60; ++i) {
    trace.push_back({static_cast<TaskTypeId>(i % 2), Tick{i * 2},
                     Tick{i * 2 + 25}});
  }
  const auto run_once = [&] {
    auto mapper = make_mapper("PAM");
    ProactiveHeuristicDropper dropper;
    EngineConfig config;
    config.queue_capacity = 3;
    Engine engine(pet, {0, 0}, *mapper, dropper, config);
    return engine.run(trace);
  };
  const SimResult baseline = run_once();
  IntervalGuard guard;
  if (audit::kEnabled) audit::set_interval_for_testing(1);
  const SimResult audited = run_once();
  ASSERT_EQ(audited.tasks.size(), baseline.tasks.size());
  for (std::size_t i = 0; i < baseline.tasks.size(); ++i) {
    EXPECT_EQ(audited.tasks[i].state, baseline.tasks[i].state) << i;
    EXPECT_EQ(audited.tasks[i].finish_time, baseline.tasks[i].finish_time)
        << i;
  }
  EXPECT_EQ(audited.makespan, baseline.makespan);
  EXPECT_EQ(audited.busy_ticks, baseline.busy_ticks);
}

TEST(Audit, PrunedDropperWindowsSurviveDenseAudit) {
  // Every proactive dropper skips the windows and subtrees its bound rules
  // out; with every audit gate firing, each skip is evaluated anyway and
  // must be within its bound and leave the decision unfired — and the
  // audited run must decide exactly like the sampled one. Tight deadlines
  // keep the queues contested, so both outcomes of each bound occur.
  const PetMatrix pet = pet_of({{{{2, 0.4}, {6, 0.4}, {16, 0.2}}},
                                {{{3, 0.6}, {9, 0.3}, {18, 0.1}}}});
  Trace trace;
  for (int i = 0; i < 80; ++i) {
    trace.push_back({static_cast<TaskTypeId>(i % 2), Tick{i},
                     Tick{i + 12 + (i % 5) * 4}});
  }
  const auto run_once = [&](const std::string& dropper_name) {
    auto mapper = make_mapper("PAM");
    auto dropper = make_dropper(DropperConfig::from_spec(dropper_name));
    EngineConfig config;
    config.queue_capacity = 5;
    config.approx.enabled = dropper_name == "approx";
    Engine engine(pet, {0, 0}, *mapper, *dropper, config);
    return engine.run(trace);
  };
  for (const std::string name : {"heuristic", "optimal", "approx"}) {
    const SimResult baseline = run_once(name);
    IntervalGuard guard;
    if (audit::kEnabled) audit::set_interval_for_testing(1);
    const SimResult audited = run_once(name);
    ASSERT_EQ(audited.tasks.size(), baseline.tasks.size()) << name;
    for (std::size_t i = 0; i < baseline.tasks.size(); ++i) {
      EXPECT_EQ(audited.tasks[i].state, baseline.tasks[i].state)
          << name << " task " << i;
    }
    EXPECT_EQ(audited.makespan, baseline.makespan) << name;
  }
}

TEST(Audit, PrunedPamProbesSurviveDenseAudit) {
  // PAM skips the probes of lone-free-machine rounds (PAM only) and of
  // candidates whose completion floor already loses phase 2 (PAM and
  // PAMD). With every audit gate firing, each skipped candidate is probed
  // and keyed anyway and must lose, and each unprobed lone-machine round
  // must match the phase-1 argmax — and the audited run must decide
  // exactly like the sampled one. Three machines of capacity 2 under a
  // dense stream give both multi-machine and lone-machine rounds.
  const PetMatrix pet = pet_of({{{{2, 0.4}, {6, 0.4}, {16, 0.2}},
                                 {{4, 0.5}, {8, 0.5}}},
                                {{{3, 0.6}, {9, 0.3}, {18, 0.1}},
                                 {{6, 1.0}}},
                                {{{5, 1.0}}, {{2, 0.5}, {10, 0.5}}}});
  Trace trace;
  for (int i = 0; i < 120; ++i) {
    trace.push_back({static_cast<TaskTypeId>(i % 3), Tick{i / 2},
                     Tick{i / 2 + 10 + (i % 7) * 3}});
  }
  const auto run_once = [&](const std::string& mapper_name) {
    auto mapper = make_mapper(mapper_name);
    ProactiveHeuristicDropper dropper;
    EngineConfig config;
    config.queue_capacity = 2;
    Engine engine(pet, {0, 1, 0}, *mapper, dropper, config);
    return engine.run(trace);
  };
  for (const std::string name : {"PAM", "PAMD"}) {
    const SimResult baseline = run_once(name);
    IntervalGuard guard;
    if (audit::kEnabled) audit::set_interval_for_testing(1);
    const SimResult audited = run_once(name);
    ASSERT_EQ(audited.tasks.size(), baseline.tasks.size()) << name;
    for (std::size_t i = 0; i < baseline.tasks.size(); ++i) {
      EXPECT_EQ(audited.tasks[i].state, baseline.tasks[i].state)
          << name << " task " << i;
      EXPECT_EQ(audited.tasks[i].machine, baseline.tasks[i].machine)
          << name << " task " << i;
    }
    EXPECT_EQ(audited.makespan, baseline.makespan) << name;
  }
}

TEST(Audit, AuditedOnlineRunMatchesUnauditedRun) {
  // Same contract for the callback-driven path: the batch-coherence and
  // chain cross-checks fire on OnlineScheduler mutations too (the sampled
  // gates live in the kernels, not in the engine driver), and an audited
  // live-mode run must stream the exact same decisions.
  const PetMatrix pet =
      pet_of({{{{4, 0.5}, {8, 0.3}, {12, 0.2}}}, {{{6, 0.7}, {14, 0.3}}}});
  const auto run_once = [&] {
    auto mapper = make_mapper("PAM");
    ProactiveHeuristicDropper dropper;
    OnlineConfig config;
    config.queue_capacity = 3;
    OnlineScheduler scheduler(pet, {0, 0}, *mapper, dropper, config);
    std::vector<Decision> all;
    const auto drive = [&](const std::vector<Decision>& decisions) {
      all.insert(all.end(), decisions.begin(), decisions.end());
      for (const Decision& decision : decisions) {
        if (decision.kind == DecisionKind::Start) {
          // Deterministic pseudo-ground-truth so both runs see the same
          // environment: duration keyed off the task id.
          scheduler.task_started(decision.time, decision.machine,
                                 decision.task,
                                 4 + (decision.task % 2) * 2);
        }
      }
    };
    for (int i = 0; i < 60; ++i) {
      const Tick t = Tick{i * 2};
      for (MachineId m = 0; m < 2; ++m) {
        if (scheduler.machine(m).running && scheduler.machine(m).run_end <= t) {
          drive(scheduler.task_finished(scheduler.machine(m).run_end, m));
        }
      }
      drive(scheduler.task_arrived(t, static_cast<TaskTypeId>(i % 2),
                                   t + 25));
    }
    return all;
  };
  const std::vector<Decision> baseline = run_once();
  IntervalGuard guard;
  if (audit::kEnabled) audit::set_interval_for_testing(1);
  const std::vector<Decision> audited = run_once();
  ASSERT_EQ(audited.size(), baseline.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(audited[i], baseline[i]) << i;
  }
}

}  // namespace
}  // namespace taskdrop
