#include "core/optimal_dropper.hpp"

#include <cassert>
#include <limits>
#include <string>
#include <vector>

#include "prob/convolution.hpp"
#include "util/audit.hpp"

namespace taskdrop {
namespace {

/// Tie tolerance of the subset selection: a subset replaces the running
/// best when it is better by more than this, or within it with fewer drops.
constexpr double kTieEps = 1e-12;

/// One subset-enumeration pass over a machine queue, sharing provisional
/// chain prefixes across subsets.
///
/// The droppable positions are the consecutive pending positions
/// [start, q-2]; the last task is always kept. Instead of rebuilding the
/// surviving chain from scratch per subset (2^k walks of up to k+1
/// convolutions each), the enumeration branches on the lowest dropped
/// position b: every position before b is kept, so its chance comes from
/// the model's cached chain (ensure() built it with the identical
/// convolution sequence), and the subtree of subsets behind b shares each
/// chain prefix — one convolution per enumeration-tree edge instead of one
/// per (subset, position). All 2^k robustness values land in `results`
/// indexed by drop mask, so the selection loop can scan masks in plain
/// ascending order and stays bit-identical to the direct evaluation,
/// epsilon tie-breaks included.
///
/// The enumeration is a branch-and-bound. Every subset in the subtree below
/// a node keeps a subset of the remaining positions on top of the node's
/// chain, so its robustness is at most the node's running sum plus
/// window_chance_bound over those positions. The selection starts at the
/// keep-all robustness and only lowers its running best through tie
/// replacements, at most one per mask, each by less than kTieEps plus the
/// rounding of best - kTieEps (below kTieEps too, since robustness is at
/// most the queue length); and a mask can only replace the best when it is
/// above best - kTieEps. So no mask below keep_all - 2^(k+1) * kTieEps can
/// ever be selected, and a subtree whose bound falls below that floor is
/// recorded as -infinity without building its chains: the selection scans
/// the same masks in the same order and picks the identical subset.
class SubsetEnumerator {
 public:
  SubsetEnumerator(const Machine& machine, const std::vector<Task>& tasks,
                   const PetMatrix& pet, const PetMatrix* approx_pet,
                   CompletionModel& model, std::size_t droppable_count,
                   PmfWorkspace& ws, std::vector<Pmf>& chain_stack,
                   std::vector<double>& results, std::uint64_t& audit_counter)
      : machine_(machine), tasks_(tasks), pet_(pet), approx_pet_(approx_pet),
        model_(model), start_(machine.first_pending_pos()),
        k_(droppable_count), ws_(ws), chain_stack_(chain_stack),
        results_(results), audit_counter_(audit_counter) {
    if (chain_stack_.size() < k_ + 1) chain_stack_.resize(k_ + 1);
    results_.assign(std::size_t{1} << k_, 0.0);
  }

  void enumerate() {
    // Mask 0 (keep everything) is the model's cached Eq. 3 sum.
    double keep_all = 0.0;
    for (std::size_t pos = 0; pos < machine_.queue.size(); ++pos) {
      keep_all += model_.chance(pos);
    }
    results_[0] = keep_all;
    // kWindowBoundEps also covers the rounding of the running sums the
    // results fold (<= q^2 * 2^-53).
    floor_ = keep_all - 2.0 * static_cast<double>(results_.size()) * kTieEps -
             kWindowBoundEps;

    // Subtrees by lowest dropped position. The prefix [0, start_+b) is
    // kept, so its chance sum folds the cached per-slot chances in the
    // same ascending order the direct walk used.
    double prefix_sum = 0.0;
    for (std::size_t i = 0; i < start_; ++i) prefix_sum += model_.chance(i);
    for (std::size_t b = 0; b < k_; ++b) {
      const std::size_t pos = start_ + b;
      descend(b + 1, model_.predecessor(pos), prefix_sum,
              1u << b, /*depth=*/0);
      prefix_sum += model_.chance(pos);
    }
  }

 private:
  const Pmf& exec_of(std::size_t pos) const {
    const Task& task =
        tasks_[static_cast<std::size_t>(machine_.queue[pos])];
    return execution_pmf(task, machine_.type, pet_, approx_pet_);
  }

  /// Extends `chain` over droppable bits [bit, k_) then the always-kept
  /// queue tail, recording one robustness per completed mask — or -infinity
  /// for every mask of a subtree that cannot reach the selection floor.
  void descend(std::size_t bit, const Pmf& chain, double sum, unsigned mask,
               std::size_t depth) {
    if (pruning_ &&
        sum + window_chance_bound(chain, machine_, tasks_, start_ + bit,
                                  machine_.queue.size() - 1) <
            floor_) {
      if (audit::due(audit_counter_)) {
        audit_pruned_subtree(bit, chain, sum, mask, depth);
      }
      const unsigned span = 1u << (k_ - bit);
      for (unsigned rest = 0; rest < span; ++rest) {
        results_[mask | (rest << bit)] =
            -std::numeric_limits<double>::infinity();
      }
      return;
    }
    if (bit == k_) {
      const std::size_t last = machine_.queue.size() - 1;
      const Task& task =
          tasks_[static_cast<std::size_t>(machine_.queue[last])];
      Pmf& out = chain_stack_[depth];
      deadline_convolve_into(chain, exec_of(last), task.deadline, ws_, out);
      results_[mask] = sum + out.mass_before(task.deadline);
      return;
    }
    const std::size_t pos = start_ + bit;
    const Task& task = tasks_[static_cast<std::size_t>(machine_.queue[pos])];
    // Keep position `pos`: one convolution shared by the whole subtree.
    Pmf& kept = chain_stack_[depth];
    deadline_convolve_into(chain, exec_of(pos), task.deadline, ws_, kept);
    descend(bit + 1, kept, sum + kept.mass_before(task.deadline), mask,
            depth + 1);
    // Drop position `pos`: the chain and sum pass through unchanged.
    descend(bit + 1, chain, sum, mask | (1u << bit), depth);
  }

  /// TASKDROP_AUDIT: evaluates a pruned subtree in full and fails if any of
  /// its masks reaches the selection floor.
  void audit_pruned_subtree(std::size_t bit, const Pmf& chain, double sum,
                            unsigned mask, std::size_t depth) {
    pruning_ = false;
    descend(bit, chain, sum, mask, depth);
    pruning_ = true;
    const unsigned span = 1u << (k_ - bit);
    for (unsigned rest = 0; rest < span; ++rest) {
      if (results_[mask | (rest << bit)] >= floor_) {
        audit::fail("optimal dropper: pruned subset mask " +
                    std::to_string(mask | (rest << bit)) +
                    " reaches the selection floor");
      }
    }
  }

  const Machine& machine_;
  const std::vector<Task>& tasks_;
  const PetMatrix& pet_;
  const PetMatrix* approx_pet_;
  CompletionModel& model_;
  std::size_t start_;
  std::size_t k_;
  PmfWorkspace& ws_;
  std::vector<Pmf>& chain_stack_;
  std::vector<double>& results_;
  std::uint64_t& audit_counter_;
  double floor_ = 0.0;
  bool pruning_ = true;
};

}  // namespace

void OptimalDropper::run(SystemView& view, SchedulerOps& ops) {
  examined_versions_.resize(view.machines->size(), ~std::uint64_t{0});
  for (Machine& machine : *view.machines) {
    CompletionModel& model = (*view.models)[static_cast<std::size_t>(machine.id)];
    auto& examined = examined_versions_[static_cast<std::size_t>(machine.id)];
    if (model.revision() == examined) continue;
    examined = model.revision();
    // Droppable positions: pending tasks except the queue's last task.
    const std::size_t start = machine.first_pending_pos();
    const std::size_t droppable_count =
        machine.queue.size() > start + 1 ? machine.queue.size() - start - 1
                                         : 0;
    if (droppable_count == 0) continue;
    assert(droppable_count < 8 * sizeof(unsigned));

    SubsetEnumerator enumerator(machine, *view.tasks, *view.pet,
                                view.approx_pet, model, droppable_count, ws_,
                                chain_stack_, results_, audit_counter_);
    enumerator.enumerate();

    unsigned best_mask = 0;
    int best_popcount = 0;
    double best_robustness = results_[0];
    const unsigned subsets = 1u << droppable_count;
    for (unsigned mask = 1; mask < subsets; ++mask) {
      const double r = results_[mask];
      const int popcount = __builtin_popcount(mask);
      // Strictly better, or equal with fewer drops. A small epsilon keeps
      // floating-point ties from flapping toward needless drops.
      if (r > best_robustness + kTieEps ||
          (r > best_robustness - kTieEps && popcount < best_popcount)) {
        best_robustness = r;
        best_mask = mask;
        best_popcount = popcount;
      }
    }

    if (best_mask == 0) continue;
    // Apply drops back-to-front so earlier positions stay valid.
    for (std::size_t bit = droppable_count; bit-- > 0;) {
      if ((best_mask >> bit) & 1u) {
        ops.drop_queued_task(machine.id, start + bit);
      }
    }
    // The post-drop queue is the optimum we just computed; no need to
    // re-examine it until something else mutates it.
    examined = model.revision();
  }
}

}  // namespace taskdrop
