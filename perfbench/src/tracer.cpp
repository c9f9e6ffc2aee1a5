#include "tracer.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>

#include "prob/convolution.hpp"
#include "prob/fft.hpp"

namespace perfbench {
namespace {

/// Spans of finished units kept for the dump, per thread. Counters keep
/// every unit; the sample only bounds memory on the wide grids.
constexpr std::size_t kKeptSpans = 200000;

std::mutex& registry_mutex() {
  static std::mutex mutex;
  return mutex;
}

/// Owns every thread's tracer past its thread's exit (the sweep's pool
/// threads are joined before the counters are merged).
std::vector<std::unique_ptr<Tracer>>& registry() {
  static std::vector<std::unique_ptr<Tracer>> tracers;
  return tracers;
}

}  // namespace

std::string_view span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::Root: return "root";
    case SpanKind::Callback: return "online.callback";
    case SpanKind::Mapper: return "sched.mapper";
    case SpanKind::Dropper: return "core.dropper";
  }
  return "?";
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::int32_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<std::size_t>(spans[i].parent)].push_back(
          static_cast<std::int32_t>(i));
    }
  }
  std::vector<std::int64_t> self(spans.size());
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    cover.clear();
    for (const std::int32_t c : children[i]) {
      const Span& child = spans[static_cast<std::size_t>(c)];
      const std::int64_t lo = std::max(child.start_ns, s.start_ns);
      const std::int64_t hi = std::min(child.end_ns, s.end_ns);
      if (lo < hi) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : cover) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = (s.end_ns - s.start_ns) - covered - s.prob_ns;
  }
  return self;
}

void Counters::merge(const Counters& o) {
  prob_shift += o.prob_shift;
  prob_direct += o.prob_direct;
  prob_fft += o.prob_fft;
  prob_bin_products += o.prob_bin_products;
  prob_ns += o.prob_ns;
  chain_convs += o.chain_convs;
  chain_ns += o.chain_ns;
  window_convs += o.window_convs;
  window_ns += o.window_ns;
  dropper_calls += o.dropper_calls;
  dropper_effective += o.dropper_effective;
  mapper_calls += o.mapper_calls;
  mapper_effective += o.mapper_effective;
  callbacks += o.callbacks;
  for (int k = 0; k < kSpanKinds; ++k) {
    self_ns[k] += o.self_ns[k];
    incl_ns[k] += o.incl_ns[k];
  }
}

Tracer& Tracer::local() {
  thread_local Tracer* tracer = [] {
    std::lock_guard lock(registry_mutex());
    registry().push_back(std::make_unique<Tracer>());
    return registry().back().get();
  }();
  return *tracer;
}

std::vector<Tracer*> Tracer::all() {
  std::lock_guard lock(registry_mutex());
  std::vector<Tracer*> out;
  for (const auto& t : registry()) out.push_back(t.get());
  return out;
}

void Tracer::begin_unit(int unit) {
  unit_ = unit;
  spans_.clear();
  stack_.clear();
  ws_uses_.clear();
  open(SpanKind::Root);
}

void Tracer::end_unit() {
  close();
  const std::vector<std::int64_t> self = self_times(spans_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto k = static_cast<int>(spans_[i].kind);
    counters_.self_ns[k] += self[i];
    counters_.incl_ns[k] += spans_[i].end_ns - spans_[i].start_ns;
  }
  // Workspace identity: the completion models share one workspace that
  // engine, mapper and dropper all rebuild chains on, so any workspace used
  // outside a dropper call is the model's; a workspace seen only inside
  // dropper calls is the dropper's own provisional-window scratch.
  for (const WsUse& use : ws_uses_) {
    if (use.outside_calls > 0) {
      counters_.chain_convs += use.outside_calls + use.in_dropper_calls;
      counters_.chain_ns += use.outside_ns + use.in_dropper_ns;
    } else {
      counters_.window_convs += use.in_dropper_calls;
      counters_.window_ns += use.in_dropper_ns;
    }
  }
  const std::size_t room =
      kKeptSpans - std::min(kKeptSpans, kept_.size());
  kept_.insert(kept_.end(), spans_.begin(),
               spans_.begin() +
                   static_cast<std::ptrdiff_t>(std::min(room, spans_.size())));
}

void Tracer::open(SpanKind kind) {
  Span span;
  span.kind = kind;
  span.unit = unit_;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_ns = now_ns();
  stack_.push_back(static_cast<std::int32_t>(spans_.size()));
  spans_.push_back(span);
  if (kind == SpanKind::Dropper) ++dropper_depth_;
}

void Tracer::close() {
  Span& span = spans_[static_cast<std::size_t>(stack_.back())];
  stack_.pop_back();
  span.end_ns = now_ns();
  if (span.kind == SpanKind::Dropper) --dropper_depth_;
}

void Tracer::on_convolution(const void* ws, std::int64_t ns) {
  counters_.prob_ns += ns;
  if (!stack_.empty()) {
    spans_[static_cast<std::size_t>(stack_.back())].prob_ns += ns;
  }
  auto it = std::find_if(ws_uses_.begin(), ws_uses_.end(),
                         [ws](const WsUse& u) { return u.ws == ws; });
  if (it == ws_uses_.end()) {
    ws_uses_.push_back(WsUse{ws, 0, 0, 0, 0});
    it = ws_uses_.end() - 1;
  }
  if (in_dropper()) {
    ++it->in_dropper_calls;
    it->in_dropper_ns += ns;
  } else {
    ++it->outside_calls;
    it->outside_ns += ns;
  }
}

void CountingOps::assign_task(taskdrop::TaskId task,
                              taskdrop::MachineId machine) {
  ++assigns;
  inner_.assign_task(task, machine);
}

void CountingOps::drop_queued_task(taskdrop::MachineId machine,
                                   std::size_t pos) {
  ++drops;
  inner_.drop_queued_task(machine, pos);
}

void CountingOps::downgrade_task(taskdrop::MachineId machine,
                                 std::size_t pos) {
  inner_.downgrade_task(machine, pos);
}

void TracedMapper::map_tasks(taskdrop::SystemView& view,
                             taskdrop::SchedulerOps& ops) {
  CountingOps counting(ops);
  {
    ScopedSpan span(SpanKind::Mapper);
    inner_.map_tasks(view, counting);
  }
  Counters& c = Tracer::local().counters();
  ++c.mapper_calls;
  if (counting.assigns > 0) ++c.mapper_effective;
}

void TracedDropper::run(taskdrop::SystemView& view,
                        taskdrop::SchedulerOps& ops) {
  CountingOps counting(ops);
  {
    ScopedSpan span(SpanKind::Dropper);
    inner_.run(view, counting);
  }
  Counters& c = Tracer::local().counters();
  ++c.dropper_calls;
  if (counting.drops > 0) ++c.dropper_effective;
}

}  // namespace perfbench

#ifdef PERFBENCH_TRACED
// Link-time wrappers (-Wl,--wrap=<mangled name>, traced binary only): every
// cross-object call to the two convolution kernels lands here, is timed and
// classified by the kernel path its operand sizes select, then forwarded.
namespace {

using taskdrop::Pmf;
using taskdrop::PmfWorkspace;

void count_kernel(std::size_t na, std::size_t nb, bool shift) {
  perfbench::Counters& c = perfbench::Tracer::local().counters();
  if (shift) {
    ++c.prob_shift;
  } else if (taskdrop::fft_profitable(na, nb)) {
    ++c.prob_fft;
  } else {
    ++c.prob_direct;
  }
  c.prob_bin_products += static_cast<double>(na) * static_cast<double>(nb);
}

}  // namespace

extern "C" {
void __real__ZN8taskdrop13convolve_intoERKNS_3PmfES2_RNS_12PmfWorkspaceERS0_(
    const Pmf& a, const Pmf& b, PmfWorkspace& ws, Pmf& out);
void __real__ZN8taskdrop22deadline_convolve_intoERKNS_3PmfES2_lRNS_12PmfWorkspaceERS0_(
    const Pmf& pred, const Pmf& exec, taskdrop::Tick deadline,
    PmfWorkspace& ws, Pmf& out);

void __wrap__ZN8taskdrop13convolve_intoERKNS_3PmfES2_RNS_12PmfWorkspaceERS0_(
    const Pmf& a, const Pmf& b, PmfWorkspace& ws, Pmf& out) {
  count_kernel(a.size(), b.size(), a.size() <= 1 || b.size() <= 1);
  const std::int64_t t0 = perfbench::now_ns();
  __real__ZN8taskdrop13convolve_intoERKNS_3PmfES2_RNS_12PmfWorkspaceERS0_(
      a, b, ws, out);
  perfbench::Tracer::local().on_convolution(&ws, perfbench::now_ns() - t0);
}

void __wrap__ZN8taskdrop22deadline_convolve_intoERKNS_3PmfES2_lRNS_12PmfWorkspaceERS0_(
    const Pmf& pred, const Pmf& exec, taskdrop::Tick deadline,
    PmfWorkspace& ws, Pmf& out) {
  // Only the predecessor bins that start before the deadline convolve; a
  // call with none of them is a pass-through copy, counted as a shift.
  std::size_t split = 0;
  if (!pred.empty() && pred.min_time() < deadline) {
    const taskdrop::Tick stride = pred.size() > 1 ? pred.stride() : 1;
    split = std::min(pred.size(),
                     static_cast<std::size_t>(
                         (deadline - pred.min_time() + stride - 1) / stride));
  }
  count_kernel(split, exec.size(), exec.size() <= 1 || split <= 1);
  const std::int64_t t0 = perfbench::now_ns();
  __real__ZN8taskdrop22deadline_convolve_intoERKNS_3PmfES2_lRNS_12PmfWorkspaceERS0_(
      pred, exec, deadline, ws, out);
  perfbench::Tracer::local().on_convolution(&ws, perfbench::now_ns() - t0);
}
}
#endif
