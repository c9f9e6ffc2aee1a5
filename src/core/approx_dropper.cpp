#include "core/approx_dropper.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "prob/convolution.hpp"
#include "util/audit.hpp"

namespace taskdrop {
namespace {

constexpr std::ptrdiff_t kNone = -1;

/// Weighted utility of queue window [first, last] given the predecessor
/// chain start: each position's chance of success (Eq. 2 over the Eq. 1
/// chain) weighted 1.0 for full-quality tasks and `approx_weight` for
/// approximate ones. `skipped_pos` simulates a provisional drop;
/// `downgraded_pos` simulates a provisional downgrade.
double weighted_window_utility(const Pmf& pred, const Machine& machine,
                               const std::vector<Task>& tasks,
                               const PetMatrix& pet,
                               const PetMatrix* approx_pet,
                               std::size_t first, std::size_t last,
                               double approx_weight,
                               std::ptrdiff_t skipped_pos,
                               std::ptrdiff_t downgraded_pos,
                               PmfWorkspace& ws) {
  if (machine.queue.empty() || first >= machine.queue.size()) return 0.0;
  last = std::min(last, machine.queue.size() - 1);
  double utility = 0.0;
  Pmf& chain = ws.chain;
  chain = pred;
  for (std::size_t i = first; i <= last; ++i) {
    if (static_cast<std::ptrdiff_t>(i) == skipped_pos) continue;
    const Task& task = tasks[static_cast<std::size_t>(machine.queue[i])];
    const bool approx_mode =
        task.approximate || static_cast<std::ptrdiff_t>(i) == downgraded_pos;
    const Pmf& exec = approx_mode && approx_pet != nullptr
                          ? approx_pet->pmf(task.type, machine.type)
                          : pet.pmf(task.type, machine.type);
    deadline_convolve_into(chain, exec, task.deadline, ws, chain);
    utility +=
        (approx_mode ? approx_weight : 1.0) * chain.mass_before(task.deadline);
  }
  return utility;
}

/// Upper bound on weighted_window_utility over the same window, weighting
/// each position's chance_bound as that utility weights its chance: the
/// skipped position contributes nothing, and position n sits n - first + 1
/// convolutions down the chain (or fewer, past a skipped position). A
/// negative weight only lowers the utility, so it bounds with weight 0.
double weighted_window_bound(const Pmf& pred, const Machine& machine,
                             const std::vector<Task>& tasks,
                             std::size_t first, std::size_t last,
                             double approx_weight, std::ptrdiff_t skipped_pos,
                             std::ptrdiff_t downgraded_pos) {
  if (machine.queue.empty() || first >= machine.queue.size()) return 0.0;
  last = std::min(last, machine.queue.size() - 1);
  double bound = 0.0;
  for (std::size_t i = first; i <= last; ++i) {
    if (static_cast<std::ptrdiff_t>(i) == skipped_pos) continue;
    const Task& task = tasks[static_cast<std::size_t>(machine.queue[i])];
    const bool approx_mode =
        task.approximate || static_cast<std::ptrdiff_t>(i) == downgraded_pos;
    const double weight = approx_mode ? std::max(0.0, approx_weight) : 1.0;
    bound += weight * chance_bound(pred, task.deadline, i - first + 1);
  }
  return bound;
}

}  // namespace

ApproxDropper::ApproxDropper(Params params) : params_(params) {
  if (params_.effective_depth < 1) {
    throw std::invalid_argument("approx dropper: eta must be >= 1, got " +
                                std::to_string(params_.effective_depth));
  }
  if (params_.beta < 1.0) {
    throw std::invalid_argument("approx dropper: beta must be >= 1, got " +
                                std::to_string(params_.beta));
  }
}

void ApproxDropper::run(SystemView& view, SchedulerOps& ops) {
  assert(params_.effective_depth >= 1);
  assert(params_.beta >= 1.0);
  const auto eta = static_cast<std::size_t>(params_.effective_depth);
  const double weight = view.approx_pet != nullptr ? view.approx_weight : 1.0;
  examined_versions_.resize(view.machines->size(), ~std::uint64_t{0});

  for (Machine& machine : *view.machines) {
    CompletionModel& model =
        (*view.models)[static_cast<std::size_t>(machine.id)];
    auto& examined = examined_versions_[static_cast<std::size_t>(machine.id)];
    if (model.revision() == examined) continue;

    std::size_t pos = machine.first_pending_pos();
    while (pos < machine.queue.size()) {
      const bool is_last = pos + 1 == machine.queue.size();
      const std::size_t window_end =
          std::min(pos + eta, machine.queue.size() - 1);
      const Task& task =
          (*view.tasks)[static_cast<std::size_t>(machine.queue[pos])];
      const Pmf& pred = model.predecessor(pos);

      // Keep utility straight from the model's cached chain: the cached
      // per-slot chances are the same convolution sequence the provisional
      // keep walk would rebuild, so folding them (in the same ascending
      // order, with the same weights) is bit-identical and saves one full
      // window walk per examined position.
      double keep = 0.0;
      for (std::size_t n = pos; n <= window_end; ++n) {
        const Task& kept =
            (*view.tasks)[static_cast<std::size_t>(machine.queue[n])];
        keep += (kept.approximate ? weight : 1.0) * model.chance(n);
      }
      // Each option is evaluated only when its bound can beat beta * keep.
      // An option that cannot is recorded as -1 (not a candidate), which
      // leaves the decision unchanged: when the other option fires it wins
      // the drop-vs-downgrade comparison anyway, and otherwise nothing fires.
      const double threshold = params_.beta * keep;
      const auto evaluate = [&](std::ptrdiff_t skipped,
                                std::ptrdiff_t downgraded, const char* who) {
        const double bound =
            weighted_window_bound(pred, machine, *view.tasks, pos, window_end,
                                  weight, skipped, downgraded);
        const bool pruned = bound <= threshold;
        if (pruned && !audit::due(audit_counter_)) return -1.0;
        const double utility = weighted_window_utility(
            pred, machine, *view.tasks, *view.pet, view.approx_pet, pos,
            window_end, weight, skipped, downgraded, ws_);
        if (!pruned) return utility;
        audit_pruned_window(machine, *view.tasks, *view.pet, view.approx_pet,
                            pos, window_end, utility, bound, threshold, who);
        return -1.0;
      };
      const auto self = static_cast<std::ptrdiff_t>(pos);
      const double drop =
          is_last ? -1.0 : evaluate(self, kNone, "approx dropper (drop)");
      const double downgrade =
          task.approximate || view.approx_pet == nullptr
              ? -1.0
              : evaluate(kNone, self, "approx dropper (downgrade)");

      const double best = std::max(drop, downgrade);
      if (best > threshold) {
        if (drop >= downgrade) {
          ops.drop_queued_task(machine.id, pos);
          // Re-examine the task that shifted into this position.
        } else {
          ops.downgrade_task(machine.id, pos);
          ++pos;  // the downgraded task was just optimised; move on
        }
      } else {
        ++pos;
      }
    }
    examined = model.revision();
  }
}

}  // namespace taskdrop
