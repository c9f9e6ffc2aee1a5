#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "prob/fft.hpp"
#include "prob/pmf.hpp"

namespace taskdrop {

/// Reusable scratch state for the convolution kernels and the queue-chain
/// walks built on them.
///
/// The prob-layer hot paths (CompletionModel rebuilds, the droppers'
/// provisional-drop chains, PAM's what-if probes) perform thousands of
/// convolutions per mapping event. Each convolve/deadline_convolve call used
/// to allocate a fresh dense buffer plus a result Pmf; with a workspace the
/// accumulation buffer and the chain Pmf are owned by the caller and reused
/// across calls, so steady-state convolution is allocation-free.
///
/// A workspace is plain mutable scratch: it carries no results across calls
/// and may be shared by any number of sequential users (the engine shares
/// one across its per-machine completion models; each dropper owns one for
/// its what-if chains). It must not be shared across threads.
class PmfWorkspace {
 public:
  /// Dense accumulation buffer of `bins` zeros. Reuses capacity; the
  /// returned reference stays valid until the next zeroed() call.
  std::vector<double>& zeroed(std::size_t bins) {
    acc_.assign(bins, 0.0);
    return acc_;
  }

  /// Copy of x[0, n) with `pad` zero bins on each side, for the blocked
  /// direct-convolution kernel's shifted reads. Returns a pointer r to the
  /// copy of x[0], so r[-pad] .. r[n + pad - 1] are readable; valid until
  /// the next padded() call.
  const double* padded(const double* x, std::size_t n, std::size_t pad) {
    pad_.assign(n + 2 * pad, 0.0);
    std::copy(x, x + n, pad_.begin() + static_cast<std::ptrdiff_t>(pad));
    return pad_.data() + pad;
  }

  /// Scratch chain PMF for iterated-convolution walks (window_chance_sum,
  /// the droppers' provisional chains). Kernels never touch it, so a chain
  /// held here may be passed as both input and output of the *_into calls.
  Pmf chain;

  /// FFT plan + scratch for the wide-PMF convolution path (see fft.hpp).
  /// Owned here so its transform buffers and twiddle tables amortize across
  /// calls exactly like the accumulation buffer does.
  FftPlan fft;

 private:
  std::vector<double> acc_;
  std::vector<double> pad_;
};

}  // namespace taskdrop
