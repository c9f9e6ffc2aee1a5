#pragma once

#include <cstdint>
#include <string_view>

#include "util/time_types.hpp"

namespace taskdrop {

/// One parsed line of the `taskdrop_cli serve` event stream:
///
///   arrive <t> <type> <deadline>   a task of PET type <type> arrives
///   finish <t> <machine>           the running task on <machine> completed
///   down <t> <machine>             <machine> failed
///   up <t> <machine>               <machine> recovered
///   advance <t>                    time passed with no event
struct StreamEvent {
  enum class Kind : std::uint8_t { Arrive, Finish, Down, Up, Advance };
  Kind kind = Kind::Advance;
  Tick t = 0;
  long long a = 0;  ///< type (arrive) or machine (finish/down/up)
  long long b = 0;  ///< deadline (arrive only)
};

/// Parses one non-empty, non-comment stream line; throws
/// std::invalid_argument naming the token that failed (the caller prefixes
/// the line number). Range checks against the scenario are the caller's.
///
/// The grammar is what `std::istringstream >>` accepted in the classic
/// locale, which the daemon's goldens and error messages were written
/// against: tokens are separated by any of " \t\n\v\f\r"; an operand is an
/// optional '+' or '-' followed by decimal digits that fit a long long; a
/// number ends at its first non-digit, which starts the next token (so
/// `advance 3x` has the trailing token `x`, and `arrive 1-2 3` is the
/// three operands 1, -2, 3). Allocates only to build an error message.
StreamEvent parse_stream_event(std::string_view line);

}  // namespace taskdrop
