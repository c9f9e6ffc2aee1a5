// Serve-protocol differential suite: the string_view stream parser and the
// to_chars decision formatter against the istringstream parser and the
// ostream formatter they replaced, kept here verbatim as the reference.
// Every line must get the same accept/reject result, the same fields and
// the same error message, and every decision the same bytes.
#include "online/stream_event.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "online/decision.hpp"
#include "util/flush_before_read.hpp"
#include "util/rng.hpp"

namespace taskdrop {
namespace {

// ---- reference implementations (verbatim from the replaced code) ---------

StreamEvent reference_parse_stream_event(const std::string& line) {
  std::istringstream in(line);
  std::string op;
  in >> op;
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
        "unknown event '" + op +
        "' (available: arrive, finish, down, up, advance)");
  }
  long long fields[3] = {0, 0, 0};
  for (int i = 0; i < operands; ++i) {
    if (!(in >> fields[i])) {
      throw std::invalid_argument("event '" + op + "' needs " +
                                  std::to_string(operands) +
                                  " integer operand(s)");
    }
  }
  std::string trailing;
  if (in >> trailing) {
    throw std::invalid_argument("trailing token '" + trailing +
                                "' after event '" + op + "'");
  }
  event.t = fields[0];
  event.a = fields[1];
  event.b = fields[2];
  return event;
}

std::ostream& reference_write_decision(std::ostream& out,
                                       const Decision& decision) {
  out << "t=" << decision.time << " kind=" << to_string(decision.kind)
      << " task=" << decision.task;
  if (decision.machine >= 0) out << " machine=" << decision.machine;
  return out;
}

// ---- parser differential ---------------------------------------------------

/// Accept/reject result of one parse, comparable across implementations.
struct Outcome {
  bool accepted = false;
  StreamEvent event;
  std::string message;
};

template <typename Parse>
Outcome outcome_of(Parse parse, const std::string& line) {
  Outcome outcome;
  try {
    outcome.event = parse(line);
    outcome.accepted = true;
  } catch (const std::invalid_argument& error) {
    outcome.message = error.what();
  }
  return outcome;
}

/// Printable rendering of a line for failure messages.
std::string escaped(const std::string& line) {
  std::string out;
  for (const char c : line) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte >= 0x20 && byte < 0x7f && c != '\\') {
      out += c;
    } else {
      char hex[8];
      std::snprintf(hex, sizeof hex, "\\x%02x", byte);
      out += hex;
    }
  }
  return out;
}

/// Requires both parsers to agree on `line`; returns whether it was
/// accepted, so callers can check their corpus exercises both sides.
bool expect_same(const std::string& line) {
  const Outcome want = outcome_of(reference_parse_stream_event, line);
  const Outcome got = outcome_of(
      [](const std::string& l) { return parse_stream_event(l); }, line);
  EXPECT_EQ(got.accepted, want.accepted) << "line \"" << escaped(line) << '"';
  EXPECT_EQ(got.message, want.message) << "line \"" << escaped(line) << '"';
  if (want.accepted && got.accepted) {
    EXPECT_EQ(got.event.kind, want.event.kind)
        << "line \"" << escaped(line) << '"';
    EXPECT_EQ(got.event.t, want.event.t) << "line \"" << escaped(line) << '"';
    EXPECT_EQ(got.event.a, want.event.a) << "line \"" << escaped(line) << '"';
    EXPECT_EQ(got.event.b, want.event.b) << "line \"" << escaped(line) << '"';
  }
  return want.accepted;
}

std::vector<std::string> smoke_stream_lines() {
  std::ifstream in(TASKDROP_SPECS_DIR "/serve_smoke.stream");
  EXPECT_TRUE(in.good()) << "cannot read serve_smoke.stream";
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// The event lines of the smoke stream (comments and blanks dropped).
std::vector<std::string> smoke_events() {
  std::vector<std::string> events;
  for (const std::string& line : smoke_stream_lines()) {
    if (!line.empty() && line[0] != '#') events.push_back(line);
  }
  return events;
}

std::vector<std::string> split_tokens(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  for (std::string token; in >> token;) tokens.push_back(token);
  return tokens;
}

std::string join(const std::vector<std::string>& tokens,
                 const std::string& separator) {
  std::string out;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (i > 0) out += separator;
    out += tokens[i];
  }
  return out;
}

const std::vector<std::string>& operand_variants() {
  static const std::vector<std::string> variants = {
      "0", "7", "+7", "-7", "+-7", "-+7", "--7", "++7", "+", "-", "",
      "0x10", "0X10", "x10", "1e5", "1E5", "1.5", ".5", "5.", "007", "-0",
      "+0", "00000000000000000000012",
      "9223372036854775807", "9223372036854775808", "-9223372036854775808",
      "-9223372036854775809", "+9223372036854775807", "18446744073709551615",
      "18446744073709551616", "99999999999999999999999999", "3x", "3#",
      "3-4", "3+4", "1,000", "\xef\xbc\x93", "\x80", "\xff", "#3",
      std::string(1, '\0') + "3", "3" + std::string(1, '\0')};
  return variants;
}

const std::vector<std::string>& separators() {
  static const std::vector<std::string> seps = {
      " ", "  ", "\t", "\r", "\v", "\f", "\n", " \t\r\v\f\n ", "\x85",
      "\xa0", std::string(1, '\0')};
  return seps;
}

TEST(ServeProtocolParse, SmokeStreamLinesMatchReference) {
  int accepted = 0;
  for (const std::string& line : smoke_stream_lines()) {
    if (expect_same(line)) ++accepted;
  }
  EXPECT_GT(accepted, 30);
}

TEST(ServeProtocolParse, ErrorContractMessages) {
  // The messages tools/serve_errors_test.sh pins end to end.
  const auto message = [](const std::string& line) {
    return outcome_of(
               [](const std::string& l) { return parse_stream_event(l); },
               line)
        .message;
  };
  EXPECT_EQ(message("arrive 2 0"),
            "event 'arrive' needs 3 integer operand(s)");
  EXPECT_EQ(message("finish 0 x"),
            "event 'finish' needs 2 integer operand(s)");
  EXPECT_EQ(message("advance 3 x"), "trailing token 'x' after event 'advance'");
  EXPECT_EQ(message("advance 3x"), "trailing token 'x' after event 'advance'");
  EXPECT_EQ(message("advance 9223372036854775808"),
            "event 'advance' needs 1 integer operand(s)");
  EXPECT_EQ(message("frobnicate 1 2"),
            "unknown event 'frobnicate' (available: arrive, finish, down, "
            "up, advance)");
  const StreamEvent min = parse_stream_event("advance -9223372036854775808");
  EXPECT_EQ(min.t, std::numeric_limits<long long>::min());
  const StreamEvent glued = parse_stream_event("arrive 1-2+3");
  EXPECT_EQ(glued.t, 1);
  EXPECT_EQ(glued.a, -2);
  EXPECT_EQ(glued.b, 3);
}

TEST(ServeProtocolParse, TruncationsMatchReference) {
  for (const std::string& line : smoke_events()) {
    for (std::size_t n = 0; n <= line.size(); ++n) {
      expect_same(line.substr(0, n));
    }
  }
}

TEST(ServeProtocolParse, ByteFlipsMatchReference) {
  static const std::string kBytes = std::string(" \t\r\v\f\n+-09x#.e,") +
                                    '\0' + "\x80\xff\x85\xa0";
  int accepted = 0;
  int rejected = 0;
  for (const std::string& line : smoke_events()) {
    for (std::size_t i = 0; i < line.size(); ++i) {
      for (const char c : kBytes) {
        std::string flipped = line;
        flipped[i] = c;
        (expect_same(flipped) ? accepted : rejected) += 1;
      }
      // Bit flips of the original byte, too.
      for (int bit = 0; bit < 8; ++bit) {
        std::string flipped = line;
        flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
        (expect_same(flipped) ? accepted : rejected) += 1;
      }
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(ServeProtocolParse, OperandVariantsMatchReference) {
  int accepted = 0;
  int rejected = 0;
  for (const std::string& line : smoke_events()) {
    const std::vector<std::string> tokens = split_tokens(line);
    for (std::size_t slot = 1; slot < tokens.size(); ++slot) {
      for (const std::string& variant : operand_variants()) {
        std::vector<std::string> mutated = tokens;
        mutated[slot] = variant;
        (expect_same(join(mutated, " ")) ? accepted : rejected) += 1;
      }
    }
  }
  for (const std::string& variant : operand_variants()) {
    expect_same("advance " + variant);
    expect_same("advance " + variant + " ");
    expect_same("advance 5 " + variant);
    expect_same("arrive " + variant + " 1 2");
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(ServeProtocolParse, WhitespaceVariantsMatchReference) {
  for (const std::string& line : smoke_events()) {
    const std::vector<std::string> tokens = split_tokens(line);
    for (const std::string& sep : separators()) {
      expect_same(join(tokens, sep));
      expect_same(sep + join(tokens, " "));
      expect_same(join(tokens, " ") + sep);
      expect_same(sep + join(tokens, sep) + sep);
    }
  }
  for (const std::string& sep : separators()) expect_same(sep);
}

TEST(ServeProtocolParse, TokenSplicesMatchReference) {
  const std::vector<std::string> events = smoke_events();
  const std::size_t n = events.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<std::string> a = split_tokens(events[i]);
    const std::vector<std::string> b = split_tokens(events[(i * 7 + 3) % n]);
    // Head of one line, tail of another, every cut point.
    for (std::size_t cut_a = 0; cut_a <= a.size(); ++cut_a) {
      for (std::size_t cut_b = 0; cut_b <= b.size(); ++cut_b) {
        std::vector<std::string> spliced(a.begin(), a.begin() +
                                                        static_cast<long>(cut_a));
        spliced.insert(spliced.end(), b.begin() + static_cast<long>(cut_b),
                       b.end());
        expect_same(join(spliced, " "));
      }
    }
    // Dropped, duplicated and glued tokens.
    for (std::size_t k = 0; k < a.size(); ++k) {
      std::vector<std::string> dropped = a;
      dropped.erase(dropped.begin() + static_cast<long>(k));
      expect_same(join(dropped, " "));
      std::vector<std::string> doubled = a;
      doubled.insert(doubled.begin() + static_cast<long>(k), a[k]);
      expect_same(join(doubled, " "));
      if (k + 1 < a.size()) {
        std::vector<std::string> glued = a;
        glued[k] += glued[k + 1];
        glued.erase(glued.begin() + static_cast<long>(k) + 1);
        expect_same(join(glued, " "));
      }
    }
  }
}

TEST(ServeProtocolParse, RandomMutationsMatchReference) {
  const std::vector<std::string> events = smoke_events();
  static const std::string kAlphabet =
      std::string("arivefnshdowup0123456789+- \t\r\v\f\nx#.e") + '\0' +
      "\x80\xff";
  Rng rng(20261021);
  int accepted = 0;
  for (int iteration = 0; iteration < 20000; ++iteration) {
    std::string line = events[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(events.size()) - 1))];
    const int edits = static_cast<int>(rng.uniform_int(1, 4));
    for (int e = 0; e < edits; ++e) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(line.size())));
      const char c = kAlphabet[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(kAlphabet.size()) - 1))];
      switch (rng.uniform_int(0, 2)) {
        case 0:  // insert
          line.insert(pos, 1, c);
          break;
        case 1:  // replace
          if (pos < line.size()) line[pos] = c;
          break;
        default:  // delete
          if (pos < line.size()) line.erase(pos, 1);
          break;
      }
    }
    if (expect_same(line)) ++accepted;
  }
  EXPECT_GT(accepted, 100);
}

// ---- formatter differential -----------------------------------------------

std::string reference_text(const Decision& decision) {
  std::ostringstream out;
  reference_write_decision(out, decision);
  return out.str();
}

std::string formatted(const Decision& decision) {
  char record[kDecisionRecordMax];
  return std::string(record, format_decision(decision, record));
}

std::string streamed(const Decision& decision) {
  std::ostringstream out;
  out << decision;
  return out.str();
}

constexpr DecisionKind kAllKinds[] = {
    DecisionKind::Assign,        DecisionKind::Start,
    DecisionKind::Downgrade,     DecisionKind::DropProactive,
    DecisionKind::DropReactive,  DecisionKind::ExpireUnmapped,
    DecisionKind::FinishOnTime,  DecisionKind::FinishLate,
    DecisionKind::LostToFailure, DecisionKind::ShedOverload};

TEST(ServeProtocolFormat, MatchesReferenceAtExtremes) {
  const Tick ticks[] = {0,
                        1,
                        -1,
                        9,
                        10,
                        123456789,
                        std::numeric_limits<Tick>::max(),
                        std::numeric_limits<Tick>::min()};
  const TaskId tasks[] = {-1, 0, 1, 99, std::numeric_limits<TaskId>::max(),
                          std::numeric_limits<TaskId>::min()};
  const MachineId machines[] = {-1, 0, 7, -2,
                                std::numeric_limits<MachineId>::max(),
                                std::numeric_limits<MachineId>::min()};
  std::size_t longest = 0;
  for (const DecisionKind kind : kAllKinds) {
    for (const Tick t : ticks) {
      for (const TaskId task : tasks) {
        for (const MachineId machine : machines) {
          const Decision decision{kind, t, task, machine};
          const std::string want = reference_text(decision);
          EXPECT_EQ(formatted(decision), want);
          EXPECT_EQ(streamed(decision), want);
          longest = std::max(longest, want.size());
        }
      }
    }
  }
  // kDecisionRecordMax is tight: the longest record fills it exactly.
  EXPECT_EQ(longest, kDecisionRecordMax);
}

TEST(ServeProtocolFormat, StreamedRecordsConcatenate) {
  // Back-to-back records on one stream, as the replay logs write them.
  std::ostringstream got;
  std::ostringstream want;
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const Decision decision{
        kAllKinds[static_cast<std::size_t>(rng.uniform_int(0, 9))],
        rng.uniform_int(0, 1'000'000), rng.uniform_int(-1, 100'000),
        static_cast<MachineId>(rng.uniform_int(-1, 64))};
    got << decision << '\n';
    reference_write_decision(want, decision) << '\n';
  }
  EXPECT_EQ(got.str(), want.str());
}

// ---- FlushBeforeReadBuf ----------------------------------------------------

/// Output buffer that holds writes until sync(), like a file buffer.
class HeldOutput : public std::streambuf {
 public:
  std::string held;
  std::string delivered;
  int syncs = 0;

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      held.push_back(traits_type::to_char_type(c));
    }
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    held.append(s, static_cast<std::size_t>(n));
    return n;
  }
  int sync() override {
    ++syncs;
    delivered += held;
    held.clear();
    return 0;
  }
};

/// Input buffer that serves one chunk per read — a peer writing a pipe in
/// bursts — and records how much output had been delivered at each read.
class ChunkedInput : public std::streambuf {
 public:
  ChunkedInput(std::vector<std::string> chunks, const HeldOutput& output)
      : chunks_(std::move(chunks)), output_(output) {}
  std::vector<std::string> delivered_at_read;
  std::vector<std::string> held_at_read;

 protected:
  int_type underflow() override {
    delivered_at_read.push_back(output_.delivered);
    held_at_read.push_back(output_.held);
    if (next_ == chunks_.size()) return traits_type::eof();
    std::string& chunk = chunks_[next_++];
    setg(chunk.data(), chunk.data(), chunk.data() + chunk.size());
    return traits_type::to_int_type(chunk[0]);
  }

 private:
  std::vector<std::string> chunks_;
  std::size_t next_ = 0;
  const HeldOutput& output_;
};

TEST(FlushBeforeReadBuf, FlushesRepliesBeforeEachReadOnly) {
  HeldOutput output;
  std::ostream replies(&output);
  // The third line arrives split across two reads.
  ChunkedInput input({"a\n", "b\nc\nd", "d\n"}, output);
  FlushBeforeReadBuf buffer(input, replies);
  std::istream lines(&buffer);
  std::vector<std::string> got;
  for (std::string line; std::getline(lines, line);) {
    got.push_back(line);
    replies << "reply " << line << '\n';
  }
  EXPECT_EQ(got, (std::vector<std::string>{"a", "b", "c", "dd"}));
  // Each read found every earlier reply delivered and none held back —
  // including the read that completed the split line.
  ASSERT_EQ(input.delivered_at_read.size(), 4u);
  EXPECT_EQ(input.delivered_at_read[0], "");
  EXPECT_EQ(input.delivered_at_read[1], "reply a\n");
  EXPECT_EQ(input.delivered_at_read[2], "reply a\nreply b\nreply c\n");
  EXPECT_EQ(input.delivered_at_read[3],
            "reply a\nreply b\nreply c\nreply dd\n");
  for (const std::string& held : input.held_at_read) EXPECT_EQ(held, "");
  // Lines already buffered are answered without a flush in between: one
  // flush per read, not one per line.
  EXPECT_EQ(output.syncs, 4);
}

}  // namespace
}  // namespace taskdrop
