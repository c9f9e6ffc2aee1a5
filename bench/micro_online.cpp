// Micro benchmarks for the online admission service: steady-state
// per-decision latency of the OnlineScheduler callback path as a function
// of machine-queue depth. One iteration is one finish + one arrival on a
// single saturated machine — two mapping events — so this is the per-event
// cost a serve daemon pays once warm. Each finish shifts the queue, so the
// proactive dropper re-examines all q positions and the completion chain
// is rebuilt: O(q) convolutions. The dropper's provisional Eq. 8 windows
// used to dominate that cost (eta convolutions per position). Here every
// chance is 1, so each window's bound (window_chance_bound) already rules
// Eq. 8 out and none is built. What remains per event is the chain
// rebuild, the dropper's per-position bound (one prefix sum per window
// slot), and PAM's phase-2 key for the arrival: with one free machine and
// no deferral PAM maps without probing the appended distribution.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/proactive_heuristic_dropper.hpp"
#include "online/online_scheduler.hpp"
#include "online/snapshot.hpp"
#include "sched/registry.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace taskdrop;

const Scenario& scenario() {
  static const Scenario s = make_scenario(ScenarioKind::SpecHC, 42);
  return s;
}

/// Keeps a single machine's queue pinned at `depth` tasks (running head
/// included): every iteration finishes the head and admits one
/// replacement with a far-off deadline, so the dropper never changes the
/// occupancy and the measured work is the pure decision path.
void BM_OnlineSteadyState(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const Scenario& scn = scenario();
  auto mapper = make_mapper("PAM");
  ProactiveHeuristicDropper dropper;
  OnlineConfig config;
  config.queue_capacity = depth;
  OnlineScheduler scheduler(scn.pet, {0}, *mapper, dropper, config);

  // Far enough out that every queued task's completion chance stays at
  // one; tight deadlines would let the dropper drain the queue.
  const Tick slack = 1 << 28;
  Tick now = 0;
  const auto confirm = [&](const std::vector<Decision>& decisions) {
    for (const Decision& decision : decisions) {
      if (decision.kind == DecisionKind::Start) {
        scheduler.task_started(now, decision.machine, decision.task);
      }
    }
  };
  TaskTypeId next_type = 0;
  const auto arrive = [&] {
    confirm(scheduler.task_arrived(now, next_type, now + slack));
    next_type = static_cast<TaskTypeId>(
        (next_type + 1) % scn.pet.task_type_count());
  };
  for (int i = 0; i < depth; ++i) arrive();

  for (auto _ : state) {
    ++now;
    confirm(scheduler.task_finished(now, 0));
    arrive();
  }
  state.SetItemsProcessed(state.iterations() * 2);  // mapping events
}
BENCHMARK(BM_OnlineSteadyState)->RangeMultiplier(2)->Range(8, 64);

/// Snapshot/restore round trip at a given fleet backlog: one iteration
/// serializes a warm scheduler and restores the text into a fresh kernel
/// stack — the price of one checkpoint plus one cold resume of the
/// admission daemon. Derived state (completion chains) rebuilds lazily
/// after restore, so this measures the serialization path itself.
void BM_OnlineSnapshotRoundTrip(benchmark::State& state) {
  const int backlog = static_cast<int>(state.range(0));
  const Scenario& scn = scenario();
  auto mapper = make_mapper("PAM");
  ProactiveHeuristicDropper dropper;
  OnlineConfig config;
  config.queue_capacity = 6;
  OnlineScheduler scheduler(scn.pet, scn.profile.machine_types, *mapper,
                            dropper, config);

  const Tick slack = 1 << 28;
  Tick now = 0;
  TaskTypeId next_type = 0;
  for (int i = 0; i < backlog; ++i) {
    ++now;
    const auto& decisions =
        scheduler.task_arrived(now, next_type, now + slack);
    for (const Decision& decision : decisions) {
      if (decision.kind == DecisionKind::Start) {
        scheduler.task_started(now, decision.machine, decision.task);
      }
    }
    next_type = static_cast<TaskTypeId>(
        (next_type + 1) % scn.pet.task_type_count());
  }

  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string snapshot = snapshot_to_string(scheduler);
    bytes = snapshot.size();
    auto fresh_mapper = make_mapper("PAM");
    ProactiveHeuristicDropper fresh_dropper;
    OnlineScheduler restored(scn.pet, scn.profile.machine_types,
                             *fresh_mapper, fresh_dropper, config);
    restore_from_string(restored, snapshot);
    benchmark::DoNotOptimize(restored.now());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_OnlineSnapshotRoundTrip)->RangeMultiplier(4)->Range(16, 256);

}  // namespace

BENCHMARK_MAIN();
