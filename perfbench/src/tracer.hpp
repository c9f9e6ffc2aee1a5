#pragma once

// Observation of the taskdrop layers from outside, for the traced
// benchmark binary. Everything here watches a layer through its public
// calls: decorators around the Mapper, Dropper and SchedulerOps handed to
// Engine/OnlineScheduler, callback spans opened by the replay loop, and
// (in the traced build only) link-time wrappers around the two prob-layer
// convolution kernels. The plain build compiles the same decorators but
// never installs them, so its hot paths are the library's own.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/dropper.hpp"
#include "sched/mapper.hpp"

namespace perfbench {

/// Span names. Root is one trial (engine workloads) or one stream replay.
enum class SpanKind : std::uint8_t { Root, Callback, Mapper, Dropper };
inline constexpr int kSpanKinds = 4;
std::string_view span_name(SpanKind kind);

/// One recorded span. `parent` indexes the same unit's span vector (-1 for
/// the root); `prob_ns` is convolution time spent directly inside it.
struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t prob_ns = 0;
  std::int32_t parent = -1;
  std::int32_t unit = 0;
  SpanKind kind = SpanKind::Root;
};

/// Self time of every span: its duration minus the part of its interval
/// its child spans cover, minus its direct convolution time. Children may
/// overlap each other; covered time is counted once.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Work counters accumulated by the decorators and kernel wrappers.
struct Counters {
  long long prob_shift = 0, prob_direct = 0, prob_fft = 0;
  double prob_bin_products = 0;
  std::int64_t prob_ns = 0;
  long long chain_convs = 0;
  std::int64_t chain_ns = 0;
  long long window_convs = 0;
  std::int64_t window_ns = 0;
  long long dropper_calls = 0, dropper_effective = 0;
  long long mapper_calls = 0, mapper_effective = 0;
  long long callbacks = 0;
  std::int64_t self_ns[kSpanKinds] = {0, 0, 0, 0};
  std::int64_t incl_ns[kSpanKinds] = {0, 0, 0, 0};

  void merge(const Counters& other);
};

/// Per-thread span recorder. A unit (trial or stream) is opened with
/// begin_unit and closed with end_unit, which folds its spans into the
/// counters and keeps a bounded sample of them for the span dump.
class Tracer {
 public:
  static Tracer& local();
  /// Every thread's tracer, for merging after the worker threads joined.
  static std::vector<Tracer*> all();

  void begin_unit(int unit);
  void end_unit();
  void open(SpanKind kind);
  void close();

  /// Kernel-wrapper hook: a convolution on workspace `ws` took `ns`.
  void on_convolution(const void* ws, std::int64_t ns);

  bool in_dropper() const { return dropper_depth_ > 0; }
  Counters& counters() { return counters_; }
  const std::vector<Span>& kept() const { return kept_; }

 private:
  struct WsUse {
    const void* ws;
    long long in_dropper_calls, outside_calls;
    std::int64_t in_dropper_ns, outside_ns;
  };
  int unit_ = 0;
  int dropper_depth_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::vector<WsUse> ws_uses_;
  std::vector<Span> kept_;
  Counters counters_;
};

std::int64_t now_ns();

/// RAII span on the calling thread's tracer.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind) { Tracer::local().open(kind); }
  ~ScopedSpan() { Tracer::local().close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
};

/// Forwards every mutation to the scheduler and counts them.
class CountingOps final : public taskdrop::SchedulerOps {
 public:
  explicit CountingOps(taskdrop::SchedulerOps& inner) : inner_(inner) {}
  void assign_task(taskdrop::TaskId task, taskdrop::MachineId machine) override;
  void drop_queued_task(taskdrop::MachineId machine, std::size_t pos) override;
  void downgrade_task(taskdrop::MachineId machine, std::size_t pos) override;
  long long assigns = 0, drops = 0;

 private:
  taskdrop::SchedulerOps& inner_;
};

class TracedMapper final : public taskdrop::Mapper {
 public:
  explicit TracedMapper(taskdrop::Mapper& inner) : inner_(inner) {}
  std::string_view name() const override { return inner_.name(); }
  void map_tasks(taskdrop::SystemView& view,
                 taskdrop::SchedulerOps& ops) override;
  std::string snapshot_state() const override {
    return inner_.snapshot_state();
  }
  void restore_state(const std::string& state) override {
    inner_.restore_state(state);
  }

 private:
  taskdrop::Mapper& inner_;
};

class TracedDropper final : public taskdrop::Dropper {
 public:
  explicit TracedDropper(taskdrop::Dropper& inner) : inner_(inner) {}
  std::string_view name() const override { return inner_.name(); }
  void run(taskdrop::SystemView& view, taskdrop::SchedulerOps& ops) override;

 private:
  taskdrop::Dropper& inner_;
};

}  // namespace perfbench
