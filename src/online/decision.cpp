#include "online/decision.hpp"

#include <charconv>
#include <cstring>
#include <limits>
#include <ostream>

namespace taskdrop {
namespace {

constexpr std::string_view kind_name(DecisionKind kind) {
  switch (kind) {
    case DecisionKind::Assign: return "assign";
    case DecisionKind::Start: return "start";
    case DecisionKind::Downgrade: return "downgrade";
    case DecisionKind::DropProactive: return "drop_proactive";
    case DecisionKind::DropReactive: return "drop_reactive";
    case DecisionKind::ExpireUnmapped: return "expire_unmapped";
    case DecisionKind::FinishOnTime: return "finish_on_time";
    case DecisionKind::FinishLate: return "finish_late";
    case DecisionKind::LostToFailure: return "lost_to_failure";
    case DecisionKind::ShedOverload: return "shed_overload";
  }
  return "?";
}

/// Digits of the longest decimal rendering of an integer type.
template <typename Int>
constexpr std::size_t max_digits() {
  return static_cast<std::size_t>(std::numeric_limits<Int>::digits10) + 1;
}

constexpr std::size_t longest_kind_name() {
  std::size_t longest = 0;
  for (int k = 0; k <= static_cast<int>(DecisionKind::ShedOverload); ++k) {
    const std::size_t size =
        kind_name(static_cast<DecisionKind>(k)).size();
    if (size > longest) longest = size;
  }
  return longest;
}

// Signed time and task take a '-'; the machine is printed only when
// non-negative.
static_assert(kDecisionRecordMax ==
                  sizeof("t=- kind= task=- machine=") - 1 +
                      max_digits<Tick>() + longest_kind_name() +
                      max_digits<TaskId>() + max_digits<MachineId>(),
              "kDecisionRecordMax must fit the longest record exactly");

char* put(char* out, std::string_view text) {
  std::memcpy(out, text.data(), text.size());
  return out + text.size();
}

}  // namespace

std::string_view to_string(DecisionKind kind) { return kind_name(kind); }

char* format_decision(const Decision& decision, char* buf) {
  char* const end = buf + kDecisionRecordMax;
  char* out = put(buf, "t=");
  out = std::to_chars(out, end, decision.time).ptr;
  out = put(out, " kind=");
  out = put(out, kind_name(decision.kind));
  out = put(out, " task=");
  out = std::to_chars(out, end, decision.task).ptr;
  if (decision.machine >= 0) {
    out = put(out, " machine=");
    out = std::to_chars(out, end, decision.machine).ptr;
  }
  return out;
}

std::ostream& operator<<(std::ostream& out, const Decision& decision) {
  char record[kDecisionRecordMax];
  return out.write(record, format_decision(decision, record) - record);
}

}  // namespace taskdrop
