#include "util/flush_before_read.hpp"

#include <algorithm>

namespace taskdrop {

FlushBeforeReadBuf::int_type FlushBeforeReadBuf::underflow() {
  tied_.flush();
  // sgetc makes `source` read at most once (it blocks only when nothing is
  // buffered there); everything it then holds is taken without blocking.
  if (traits_type::eq_int_type(source_.sgetc(), traits_type::eof())) {
    return traits_type::eof();
  }
  const std::streamsize available =
      std::min(source_.in_avail(),
               static_cast<std::streamsize>(buffer_.size()));
  const std::streamsize got =
      source_.sgetn(buffer_.data(), std::max<std::streamsize>(available, 1));
  setg(buffer_.data(), buffer_.data(), buffer_.data() + got);
  return traits_type::to_int_type(buffer_[0]);
}

}  // namespace taskdrop
