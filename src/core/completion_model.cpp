#include "core/completion_model.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <limits>
#include <string>

#include "prob/convolution.hpp"
#include "util/audit.hpp"

namespace taskdrop {
namespace {

constexpr double kUnitMass = 1.0;

/// In-place delta(t) without releasing the PMF's allocation.
void set_delta(Pmf& pmf, Tick t) {
  pmf.assign(t, 1, &kUnitMass, &kUnitMass + 1);
}

/// TASKDROP_AUDIT helper: bitwise PMF comparison. The incremental chain
/// promises bit-identity with direct recomputation (the *_into kernels and
/// the allocating ones share one implementation), so the comparison is
/// exact, not tolerance-based.
void audit_expect_same_pmf(const Pmf& got, const Pmf& ref,
                           const std::string& what) {
  bool same = got.size() == ref.size();
  for (std::size_t i = 0; same && i < got.size(); ++i) {
    same = got.time_at(i) == ref.time_at(i) &&
           // float-eq-ok: bit-identity audit is exact by design
           got.prob_at_index(i) == ref.prob_at_index(i);
  }
  if (!same) {
    audit::fail(what + ": incremental chain diverged from direct recompute");
  }
}

}  // namespace

CompletionModel::CompletionModel(const PetMatrix* pet, const Machine* machine,
                                 const std::vector<Task>* tasks,
                                 Options options, PmfWorkspace* workspace)
    : pet_(pet), machine_(machine), tasks_(tasks), options_(options),
      shared_ws_(workspace) {
  set_delta(base_, now_);
}

void CompletionModel::set_now(Tick now) {
  if (now == now_) return;
  now_ = now;
  set_delta(base_, now_);
  if (machine_ == nullptr) return;
  if (machine_->running) {
    // The conditioned running-task PMF depends on `now`; the unconditioned
    // one is rooted at run_start and survives time advancing.
    if (options_.condition_running) {
      if (!options_.paranoid_rebuild && valid_count_ > 0 &&
          now_ < cond_keep_below_) {
        // The conditioned slot 0 is bitwise unchanged while now stays
        // strictly below its first kept bin (see cond_keep_below_), so the
        // chain built on it — and the value memos keyed on chain_version_ —
        // stay valid. Revision-keyed consumers observe the advance exactly
        // as they would have across the invalidate-and-rebuild this
        // replaces, and the rebuilt values would have been bit-identical.
        bump_revision();
      } else {
        invalidate_all();
      }
    }
  } else if (!machine_->queue.empty()) {
    // A non-running machine with queued tasks — a failure holding the
    // machine down, or (live mode) a Start offer the environment has not
    // confirmed yet while time advances — has its cached chain rooted at
    // base = delta(old now). Rebase it, or chance queries against the idle
    // machine keep answering from the stale start time. Surfaced by the
    // TASKDROP_AUDIT chain cross-check under failure injection.
    invalidate_all();
  }
  // An idle machine with an empty queue has no cached positions; the
  // refreshed base_ alone covers it.
}

void CompletionModel::notify_head_started(Tick deadline) {
  // Keep precondition (see the header): the cached slot 0, when cached at
  // all, is rooted at delta(now_) — set_now rebases non-running machines
  // with queued tasks on every advance — and for run_start == now_ <
  // deadline the pending slot's deadline truncation was vacuous, making
  // the pending and running slot-0 kernels bit-identical (a delta
  // predecessor entirely below the deadline convolves with no pass-through
  // term, which is exactly the running branch's plain convolution).
  if (options_.paranoid_rebuild || options_.condition_running ||
      machine_ == nullptr || !machine_->running ||
      machine_->run_start != now_ || now_ >= deadline) {
    invalidate_all();
    return;
  }
  bump_revision();
}

void CompletionModel::invalidate_from(std::size_t pos) {
  valid_count_ = std::min(valid_count_, pos);
  ++version_;
  ++chain_version_;
}

const Pmf& execution_pmf(const Task& task, MachineTypeId machine_type,
                         const PetMatrix& pet, const PetMatrix* approx_pet) {
  if (task.approximate && approx_pet != nullptr) {
    return approx_pet->pmf(task.type, machine_type);
  }
  return pet.pmf(task.type, machine_type);
}

const Pmf& CompletionModel::exec_pmf(std::size_t pos) const {
  const Task& task = (*tasks_)[static_cast<std::size_t>(machine_->queue[pos])];
  return execution_pmf(task, machine_->type, *pet_, options_.approx_pet);
}

void CompletionModel::compute_running_completion(Pmf& out) {
  assert(machine_->running);
  const Task& task =
      (*tasks_)[static_cast<std::size_t>(machine_->queue.front())];
  const Pmf& exec =
      execution_pmf(task, machine_->type, *pet_, options_.approx_pet);
  set_delta(start_, machine_->run_start);
  convolve_into(start_, exec, workspace(), out);
  if (options_.condition_running) {
    // Condition on "not finished yet": strip mass at or before now_ and
    // renormalise, in place. Sliced bins reproduce the dense lattice the
    // old from_impulses build produced (interior zeros included) bit for
    // bit, and normalize() divides by the same dense-order mass sum — so
    // the conditioned PMF is bitwise identical to the allocating build the
    // audit reference still performs, with no per-rebuild allocation. If
    // every bin is at or before now_ the task is about to complete; keep
    // the last bin as a degenerate point mass.
    std::size_t first = 0;
    while (first < out.size() && (out.time_at(first) <= now_ ||
                                  !(out.prob_at_index(first) > 0.0))) {
      ++first;
    }
    if (first == out.size()) {
      set_delta(out, out.max_time());
      // Degenerate point masses stay degenerate as now advances further:
      // the kept set can only stay empty.
      cond_keep_below_ = std::numeric_limits<Tick>::max();
      return;
    }
    std::size_t last = out.size();
    while (!(out.prob_at_index(last - 1) > 0.0)) --last;
    out.slice(first, last);
    out.normalize();
    // The conditioned slot is unchanged until now reaches its first bin.
    cond_keep_below_ = out.min_time();
  }
}

void CompletionModel::ensure(std::size_t pos) {
  assert(machine_ != nullptr && "model not bound to a machine");
  const std::size_t q = machine_->queue.size();
  assert(pos < q);
  if (completions_.size() < q) {
    completions_.resize(q);
    chances_.resize(q);
  }
  for (std::size_t i = valid_count_; i <= pos; ++i) {
    const Task& task =
        (*tasks_)[static_cast<std::size_t>(machine_->queue[i])];
    if (i == 0) {
      if (machine_->running) {
        compute_running_completion(completions_[0]);
      } else {
        deadline_convolve_into(base_, exec_pmf(0), task.deadline, workspace(),
                               completions_[0]);
      }
    } else {
      deadline_convolve_into(completions_[i - 1], exec_pmf(i), task.deadline,
                             workspace(), completions_[i]);
    }
    chances_[i] = completions_[i].mass_before(task.deadline);
  }
  valid_count_ = std::max(valid_count_, pos + 1);
  if (audit::due(audit_chain_counter_)) audit_verify_chain(pos);
}

void CompletionModel::audit_verify_chain(std::size_t pos) {
  // Reference recompute: rebuild [0, pos] from scratch with the allocating
  // kernels (one shared implementation with the *_into variants, so equal
  // inputs give bit-equal outputs) and an independent chain variable —
  // nothing here reads the cached completions_ except to compare.
  Pmf ref;
  for (std::size_t i = 0; i <= pos; ++i) {
    const Task& task =
        (*tasks_)[static_cast<std::size_t>(machine_->queue[i])];
    if (i == 0) {
      if (machine_->running) {
        const Pmf start(machine_->run_start, 1, {1.0});
        // Audit reference path on purpose. layering-allow(direct-convolve)
        ref = convolve(start, exec_pmf(0));
        if (options_.condition_running) {
          // Mirror compute_running_completion's conditioning: strip mass at
          // or before now_, renormalise, degenerate to the last bin when
          // everything is in the past.
          std::vector<std::pair<Tick, double>> kept;
          for (std::size_t j = 0; j < ref.size(); ++j) {
            if (ref.time_at(j) > now_ && ref.prob_at_index(j) > 0.0) {
              kept.emplace_back(ref.time_at(j), ref.prob_at_index(j));
            }
          }
          if (kept.empty()) {
            set_delta(ref, ref.max_time());
          } else {
            ref = Pmf::from_impulses(std::move(kept), ref.stride());
            ref.normalize();
          }
        }
      } else {
        // Audit reference path on purpose. layering-allow(direct-convolve)
        ref = deadline_convolve(base_, exec_pmf(0), task.deadline);
      }
    } else {
      // Audit reference path on purpose. layering-allow(direct-convolve)
      ref = deadline_convolve(ref, exec_pmf(i), task.deadline);
    }
    audit_expect_same_pmf(completions_[i], ref,
                          "completion chain position " + std::to_string(i));
    // The window bounds clip each chance at 1 on the premise that a chain
    // slot carries at most 1 + kWindowBoundEps of mass per convolution.
    if (ref.total_mass() > 1.0 + static_cast<double>(i + 1) * kWindowBoundEps) {
      audit::fail("completion chain position " + std::to_string(i) +
                  " carries mass " + std::to_string(ref.total_mass()) +
                  " above the window bounds' premise");
    }
    // float-eq-ok: bit-identity audit is exact by design
    if (chances_[i] != ref.mass_before(task.deadline)) {
      audit::fail("cached chance at position " + std::to_string(i) +
                  " diverged from direct recompute");
    }
  }
}

const Pmf& CompletionModel::completion(std::size_t pos) {
  ensure(pos);
  return completions_[pos];
}

double CompletionModel::chance(std::size_t pos) {
  ensure(pos);
  return chances_[pos];
}

const Pmf& CompletionModel::predecessor(std::size_t pos) {
  if (pos == 0) {
    assert(!machine_->running &&
           "the running task has no droppable predecessor slot");
    return base_;
  }
  return completion(pos - 1);
}

const Pmf& CompletionModel::tail() {
  if (machine_->queue.empty()) return base_;
  return completion(machine_->queue.size() - 1);
}

double CompletionModel::tail_mean() {
  if (machine_->queue.empty()) return static_cast<double>(now_);
  if (tail_mean_valid_ && tail_mean_revision_ == chain_version_) {
    if (audit::due(audit_tail_mean_counter_)) {
      // float-eq-ok: bit-identity audit is exact by design
      if (tail_mean_ != completion(machine_->queue.size() - 1).mean()) {
        audit::fail("tail_mean memo diverged from completion(last).mean()");
      }
    }
    return tail_mean_;
  }
  const std::size_t last = machine_->queue.size() - 1;
  tail_mean_ = completion(last).mean();
  tail_mean_revision_ = chain_version_;
  tail_mean_valid_ = true;
  return tail_mean_;
}

double CompletionModel::instantaneous_robustness() {
  double sum = 0.0;
  for (std::size_t i = 0; i < machine_->queue.size(); ++i) sum += chance(i);
  return sum;
}

double CompletionModel::direct_chance_if_appended(TaskTypeId type,
                                                  Tick deadline) {
  const PmfCdf& exec_cdf = pet_->cdf(type, machine_->type);
  if (machine_->queue.empty()) {
    // The task would start immediately at now_.
    return now_ < deadline ? exec_cdf.mass_before(deadline - now_) : 0.0;
  }
  // Dot product of the cached tail PMF against the execution CDF. The
  // summation deliberately runs over tail bins in ascending time order —
  // the same order as materialising Eq. 1 and summing Eq. 2 — so the probe
  // stays bit-compatible with the decisions the chains themselves produce.
  const Pmf& pred = completion(machine_->queue.size() - 1);
  double sum = 0.0;
  const double* p = pred.data();
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const Tick k = pred.time_at(i);
    if (k >= deadline) break;
    if (p[i] == 0.0) continue;  // float-eq-ok: exact-zero sparse skip
    sum += p[i] * exec_cdf.mass_before(deadline - k);
  }
  return sum;
}

CompletionModel::AppendedSlot& CompletionModel::appended_slot(
    TaskTypeId type) {
  if (appended_.empty()) {
    appended_.resize(static_cast<std::size_t>(pet_->task_type_count()));
  }
  AppendedSlot& slot = appended_[static_cast<std::size_t>(type)];
  if (slot.stamped && slot.revision == chain_version_) return slot;

  // Re-stamp: recompute the combined lattice for the current tail. The
  // appended chance F(d) only changes as d crosses a point of
  // {tail bin + exec bin}, which (deltas aside) all lie on the lattice
  // {tail.min + exec.min + i*stride} — so one cached evaluation per lattice
  // cell reproduces the direct fold at *every* deadline, bit for bit.
  const Pmf& pred = tail();
  const Pmf& exec = pet_->pmf(type, machine_->type);
  slot.incompatible =
      pred.size() > 1 && exec.size() > 1 && pred.stride() != exec.stride();
  slot.revision = chain_version_;
  slot.stamped = true;
  if (slot.incompatible) return slot;
  slot.stride = pred.size() > 1
                    ? pred.stride()
                    : (exec.size() > 1 ? exec.stride() : Tick{1});
  slot.offset = pred.min_time() + exec.min_time();
  const auto bins = static_cast<std::size_t>(
      (pred.max_time() + exec.max_time() - slot.offset) / slot.stride + 1);
  slot.value.resize(bins + 1);
  slot.known.assign(bins + 1, 0);
  slot.pred = &pred;
  slot.exec = &exec;
  // Left-fold prefixes of the saturated terms (see AppendedSlot): one
  // O(|tail|) pass per restamp — the price of a single direct fold —
  // after which every cell costs O(|exec|).
  const double exec_total = pet_->cdf(type, machine_->type).total_mass();
  slot.sat_prefix.resize(pred.size());
  {
    double acc = 0.0;
    const double* p = pred.data();
    for (std::size_t i = 0; i < pred.size(); ++i) {
      // float-eq-ok: exact-zero sparse skip
      if (p[i] != 0.0) acc += p[i] * exec_total;
      slot.sat_prefix[i] = acc;
    }
  }
  return slot;
}

double CompletionModel::appended_cell(AppendedSlot& slot, TaskTypeId type,
                                      std::size_t cell) {
  if (slot.known[cell]) return slot.value[cell];
  // Fold the unsaturated window of sum_i p_i * E(d - k_i) on top of the
  // saturated prefix, in the same ascending-i order as the direct fold.
  // Tail bins with i >= cell only ever multiply E(x <= exec.min) == 0 and
  // are skipped, exactly like the direct fold's break-plus-zero terms.
  const PmfCdf& exec_cdf = pet_->cdf(type, machine_->type);
  const Pmf& pred = *slot.pred;
  const std::size_t exec_bins = slot.exec->size();
  double sum = 0.0;
  std::size_t window_lo = 0;
  if (cell >= exec_bins) {
    const std::size_t m = std::min(cell - exec_bins, pred.size() - 1);
    sum = slot.sat_prefix[m];
    window_lo = cell - exec_bins + 1;
  }
  const double* p = pred.data();
  const std::size_t window_hi = std::min(cell, pred.size());
  for (std::size_t i = window_lo; i < window_hi; ++i) {
    if (p[i] == 0.0) continue;  // float-eq-ok: exact-zero sparse skip
    // In-window terms sit at execution-prefix index cell - i by lattice
    // arithmetic (same double mass_before(d - k_i) would return).
    sum += p[i] * exec_cdf.prefix_at(cell - i);
  }
  slot.value[cell] = sum;
  slot.known[cell] = 1;
  return sum;
}

double CompletionModel::chance_if_appended(TaskTypeId type, Tick deadline) {
  // The idle-empty probe depends on `now` rather than the revision and is
  // already a single CDF lookup; memoising it would only add staleness
  // hazards.
  if (machine_->queue.empty()) {
    return direct_chance_if_appended(type, deadline);
  }
  AppendedSlot& slot = appended_slot(type);
  if (slot.incompatible) return direct_chance_if_appended(type, deadline);
  if (deadline <= slot.offset) return 0.0;
  // Snap the deadline up to its combined-lattice cell; F is constant (and
  // bit-identical to the direct fold) across the half-open cell interval.
  const auto cell = std::min<std::size_t>(
      static_cast<std::size_t>(
          (deadline - slot.offset + slot.stride - 1) / slot.stride),
      slot.value.size() - 1);
  const double result = appended_cell(slot, type, cell);
  if (audit::due(audit_appended_counter_)) {
    // float-eq-ok: bit-identity audit is exact by design
    if (result != direct_chance_if_appended(type, deadline)) {
      audit::fail("appended-distribution cache diverged from the direct "
                  "tail fold");
    }
  }
  return result;
}

double window_chance_sum(const Pmf& pred, const Machine& machine,
                         const std::vector<Task>& tasks, const PetMatrix& pet,
                         std::size_t first, std::size_t last,
                         const PetMatrix* approx_pet, PmfWorkspace* ws) {
  if (machine.queue.empty() || first >= machine.queue.size()) return 0.0;
  last = std::min(last, machine.queue.size() - 1);
  PmfWorkspace local;
  PmfWorkspace& w = ws != nullptr ? *ws : local;
  assert(&pred != &w.chain && "pred must not alias the workspace chain");
  Pmf& chain = w.chain;
  chain = pred;
  double sum = 0.0;
  for (std::size_t i = first; i <= last; ++i) {
    const Task& task = tasks[static_cast<std::size_t>(machine.queue[i])];
    const Pmf& exec = execution_pmf(task, machine.type, pet, approx_pet);
    deadline_convolve_into(chain, exec, task.deadline, w, chain);
    sum += chain.mass_before(task.deadline);
  }
  return sum;
}

double chance_bound(const Pmf& pred, Tick deadline, std::size_t steps) {
  if (pred.empty() || deadline <= pred.min_time()) return 0.0;
  return std::min(1.0, pred.mass_before(deadline)) +
         static_cast<double>(steps) * kWindowBoundEps;
}

double window_chance_bound(const Pmf& pred, const Machine& machine,
                           const std::vector<Task>& tasks, std::size_t first,
                           std::size_t last) {
  if (machine.queue.empty() || first >= machine.queue.size()) return 0.0;
  last = std::min(last, machine.queue.size() - 1);
  double bound = 0.0;
  for (std::size_t n = first; n <= last; ++n) {
    const Task& task = tasks[static_cast<std::size_t>(machine.queue[n])];
    bound += chance_bound(pred, task.deadline, n - first + 1);
  }
  return bound;
}

void audit_pruned_window(const Machine& machine, const std::vector<Task>& tasks,
                         const PetMatrix& pet, const PetMatrix* approx_pet,
                         std::size_t first, std::size_t last, double computed,
                         double bound, double threshold, const char* who) {
  last = std::min(last, machine.queue.size() - 1);
  for (std::size_t n = first; n <= last; ++n) {
    const Task& task = tasks[static_cast<std::size_t>(machine.queue[n])];
    const bool negative =
        pet.pmf(task.type, machine.type).min_time() < 0 ||
        (approx_pet != nullptr &&
         approx_pet->pmf(task.type, machine.type).min_time() < 0);
    if (negative) {
      audit::fail(std::string(who) + ": execution PMF of queue position " +
                  std::to_string(n) +
                  " has negative support; the window bound assumes >= 0");
    }
  }
  if (computed > bound || computed > threshold) {
    char values[160];
    std::snprintf(values, sizeof values,
                  "%.17g exceeds its bound %.17g or the decision threshold "
                  "%.17g",
                  computed, bound, threshold);
    audit::fail(std::string(who) + ": pruned window value " + values);
  }
}

}  // namespace taskdrop
