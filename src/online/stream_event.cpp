#include "online/stream_event.hpp"

#include <charconv>
#include <limits>
#include <stdexcept>
#include <string>

namespace taskdrop {
namespace {

/// The classic-locale whitespace set `operator>>` skips.
constexpr bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

void skip_space(std::string_view line, std::size_t& pos) {
  while (pos < line.size() && is_space(line[pos])) ++pos;
}

/// The next whitespace-delimited token at or after `pos` (empty at end of
/// line); `pos` moves past it.
std::string_view next_token(std::string_view line, std::size_t& pos) {
  skip_space(line, pos);
  const std::size_t begin = pos;
  while (pos < line.size() && !is_space(line[pos])) ++pos;
  return line.substr(begin, pos - begin);
}

/// Reads an optionally signed decimal long long at or after `pos`, stopping
/// at the first non-digit. False — `pos` then unspecified — when no digit
/// follows the sign or the value overflows.
bool next_integer(std::string_view line, std::size_t& pos, long long& value) {
  skip_space(line, pos);
  const char* first = line.data() + pos;
  const char* const last = line.data() + line.size();
  bool negative = false;
  if (first != last && (*first == '+' || *first == '-')) {
    negative = *first == '-';
    ++first;
  }
  // Unsigned magnitude: from_chars would take a second '-' for a signed
  // type, and -2^63 has no positive counterpart.
  unsigned long long magnitude = 0;
  const auto [end, error] = std::from_chars(first, last, magnitude);
  constexpr auto kMax =
      static_cast<unsigned long long>(std::numeric_limits<long long>::max());
  if (error != std::errc() || magnitude > kMax + (negative ? 1ULL : 0ULL)) {
    return false;
  }
  value = static_cast<long long>(negative ? 0ULL - magnitude : magnitude);
  pos = static_cast<std::size_t>(end - line.data());
  return true;
}

}  // namespace

StreamEvent parse_stream_event(std::string_view line) {
  std::size_t pos = 0;
  const std::string_view op = next_token(line, pos);
  StreamEvent event;
  int operands = 0;
  if (op == "arrive") {
    event.kind = StreamEvent::Kind::Arrive;
    operands = 3;
  } else if (op == "finish") {
    event.kind = StreamEvent::Kind::Finish;
    operands = 2;
  } else if (op == "down") {
    event.kind = StreamEvent::Kind::Down;
    operands = 2;
  } else if (op == "up") {
    event.kind = StreamEvent::Kind::Up;
    operands = 2;
  } else if (op == "advance") {
    event.kind = StreamEvent::Kind::Advance;
    operands = 1;
  } else {
    throw std::invalid_argument(
        "unknown event '" + std::string(op) +
        "' (available: arrive, finish, down, up, advance)");
  }
  long long fields[3] = {0, 0, 0};
  for (int i = 0; i < operands; ++i) {
    if (!next_integer(line, pos, fields[i])) {
      throw std::invalid_argument("event '" + std::string(op) + "' needs " +
                                  std::to_string(operands) +
                                  " integer operand(s)");
    }
  }
  const std::string_view trailing = next_token(line, pos);
  if (!trailing.empty()) {
    throw std::invalid_argument("trailing token '" + std::string(trailing) +
                                "' after event '" + std::string(op) + "'");
  }
  event.t = fields[0];
  event.a = fields[1];
  event.b = fields[2];
  return event;
}

}  // namespace taskdrop
