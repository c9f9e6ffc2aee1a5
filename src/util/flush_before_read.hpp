#pragma once

#include <cstddef>
#include <ostream>
#include <streambuf>
#include <vector>

namespace taskdrop {

/// Input stream buffer over `source` that flushes `tied` right before each
/// read from `source` — the moment a reader may block waiting for input.
///
/// A line-oriented daemon must push its pending output out before it waits
/// for the next request, or an interactive peer deadlocks on replies still
/// sitting in a buffer. The standard tie (std::cin -> std::cout) gets this
/// by flushing before *every* extraction, which costs one write(2) per
/// input line; this buffer flushes once per refill of its own buffer, so a
/// stream that arrives faster than it is consumed is read and answered in
/// large chunks, while a peer that sends one line and waits still gets
/// every reply before the daemon blocks on that peer.
class FlushBeforeReadBuf : public std::streambuf {
 public:
  FlushBeforeReadBuf(std::streambuf& source, std::ostream& tied)
      : source_(source), tied_(tied), buffer_(kBufferSize) {}
  // The reading stream holds this buffer's address, and the get area
  // points into buffer_.
  FlushBeforeReadBuf(const FlushBeforeReadBuf&) = delete;
  FlushBeforeReadBuf& operator=(const FlushBeforeReadBuf&) = delete;

 protected:
  int_type underflow() override;

 private:
  /// A default file buffer's size, so one refill of a file or pipe source
  /// fits in one refill here.
  static constexpr std::size_t kBufferSize = 8192;

  std::streambuf& source_;
  std::ostream& tied_;
  std::vector<char> buffer_;
};

}  // namespace taskdrop
