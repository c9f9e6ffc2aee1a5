// Differential suite for the optimized convolution kernels.
//
// The workspace-based kernels in prob/convolution.cpp replace the original
// O(n*m) per-call-allocating implementations. Those originals are preserved
// verbatim below as `naive_reference` and the optimized kernels (both the
// allocating wrappers and the *_into workspace variants, including the
// chain-aliasing form) are checked against them on seeded random PMF pairs
// covering strides, deltas, empty/singleton edges, and deadlines inside and
// outside the predecessor support, to within 1e-12 per bin.
//
// The direct branches now apply four predecessor rows per sweep. That
// blocked kernel promises the same bits as the one-row-per-sweep loop it
// replaced, so a verbatim copy of the row-by-row kernels is kept below as
// `rowwise_reference` and the blocked kernel is held to bitwise equality
// against it (offset, stride and every bin), not to 1e-12.
#include "prob/convolution.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "prob/fft.hpp"
#include "prob/workspace.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace taskdrop {
namespace naive_reference {

// The pre-optimization kernels, kept bit-for-bit as the reference
// implementation. Only valid for lattice-compatible inputs (the optimized
// kernels turn those misuses into exceptions; see the error-path tests).
Tick combined_stride(const Pmf& a, const Pmf& b) {
  if (a.size() <= 1) return b.size() <= 1 ? Tick{1} : b.stride();
  if (b.size() <= 1) return a.stride();
  return a.stride();
}

Pmf convolve(const Pmf& a, const Pmf& b) {
  if (a.empty() || b.empty()) return Pmf();
  const Tick stride = combined_stride(a, b);
  const Tick lo = a.min_time() + b.min_time();
  const Tick hi = a.max_time() + b.max_time();
  std::vector<double> out(static_cast<std::size_t>((hi - lo) / stride) + 1,
                          0.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double pa = a.prob_at_index(i);
    if (pa == 0.0) continue;
    const Tick ta = a.time_at(i);
    for (std::size_t j = 0; j < b.size(); ++j) {
      const double pb = b.prob_at_index(j);
      if (pb == 0.0) continue;
      out[static_cast<std::size_t>((ta + b.time_at(j) - lo) / stride)] +=
          pa * pb;
    }
  }
  Pmf result(lo, stride, std::move(out));
  result.trim();
  return result;
}

Pmf deadline_convolve(const Pmf& pred, const Pmf& exec, Tick deadline) {
  if (pred.empty()) return Pmf();

  const bool has_conv = pred.min_time() < deadline;
  const bool has_pass = pred.max_time() >= deadline;
  if (!has_conv) return pred;

  const Tick stride = combined_stride(pred, exec);
  Tick last_start = pred.max_time();
  if (last_start >= deadline) {
    const Tick over = last_start - (deadline - 1);
    last_start -= ((over + stride - 1) / stride) * stride;
  }
  Tick lo = pred.min_time() + exec.min_time();
  Tick hi = last_start + exec.max_time();
  if (has_pass) {
    const Tick over = deadline - pred.min_time();
    const Tick pass_lo =
        pred.min_time() + ((over + stride - 1) / stride) * stride;
    lo = std::min(lo, pass_lo);
    hi = std::max(hi, pred.max_time());
  }
  std::vector<double> out(static_cast<std::size_t>((hi - lo) / stride) + 1,
                          0.0);
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const double pk = pred.prob_at_index(i);
    if (pk == 0.0) continue;
    const Tick k = pred.time_at(i);
    if (k < deadline) {
      for (std::size_t j = 0; j < exec.size(); ++j) {
        const double pe = exec.prob_at_index(j);
        if (pe == 0.0) continue;
        out[static_cast<std::size_t>((k + exec.time_at(j) - lo) / stride)] +=
            pk * pe;
      }
    } else {
      out[static_cast<std::size_t>((k - lo) / stride)] += pk;
    }
  }
  Pmf result(lo, stride, std::move(out));
  result.trim();
  return result;
}

}  // namespace naive_reference

namespace rowwise_reference {

// The direct-convolution kernels as they were before the four-row blocked
// kernel, kept verbatim (only the sampled TASKDROP_AUDIT mass check of the
// FFT path is left out): one axpy sweep per nonzero predecessor row.

/// Matches Pmf::trim's epsilon: bins at or below this are support noise.
constexpr double kEps = 1e-12;

/// o[j] += s * x[j]. The accumulation buffer is workspace-owned scratch and
/// never aliases a PMF's probability storage, so the restrict qualification
/// is structurally sound; it is what lets the autovectorizer emit straight
/// vector code instead of a runtime alias-versioned loop (-fopt-info-vec
/// reports "loop vectorized" with no versioning note). Summation order is
/// identical to the plain scalar loop — vectorization only reorders
/// *independent* lanes, so results stay bit-identical to the reference.
inline void axpy(double* __restrict o, const double* __restrict x,
                 std::size_t n, double s) {
  for (std::size_t j = 0; j < n; ++j) o[j] += s * x[j];
}

/// o[j] = s * x[j], same aliasing contract as axpy.
inline void scaled_copy(double* __restrict o, const double* __restrict x,
                        std::size_t n, double s) {
  for (std::size_t j = 0; j < n; ++j) o[j] = s * x[j];
}

/// Stride of the lattice produced by combining `a` and `b`. Single-impulse
/// PMFs are stride-agnostic shifts; two multi-bin PMFs must share a stride
/// (all PMFs of one scenario are built with one histogram bin width). A
/// mismatch is a real error path — an assert here would let Release builds
/// silently index a garbage lattice.
Tick combined_stride(const Pmf& a, const Pmf& b) {
  if (a.size() <= 1) return b.size() <= 1 ? Tick{1} : b.stride();
  if (b.size() <= 1) return a.stride();
  if (a.stride() != b.stride()) {
    throw std::invalid_argument(
        "convolve: PMF bin widths differ (" + std::to_string(a.stride()) +
        " vs " + std::to_string(b.stride()) +
        "); all PMFs of one scenario must share one histogram bin width");
  }
  return a.stride();
}

/// Publishes the accumulation buffer as a trimmed PMF. Leading bins at or
/// below epsilon are dropped exactly as Pmf::trim would. The trailing
/// sub-epsilon tail is truncated early via lumping: the longest suffix
/// whose *cumulative* mass is at or below epsilon is folded into the last
/// surviving bin. This bounds support growth along deep completion chains
/// (bin products shrink geometrically with queue depth) while conserving
/// total mass; every published bin differs from the untrimmed sum by at
/// most epsilon.
void publish(std::vector<double>& acc, Tick lo, Tick stride, Pmf& out) {
  const std::size_t n = acc.size();
  std::size_t first = 0;
  while (first < n && acc[first] <= kEps) ++first;
  if (first == n) {
    out.assign(0, 1, nullptr, nullptr);
    return;
  }
  std::size_t last = n - 1;
  double tail = 0.0;
  while (last > first && tail + acc[last] <= kEps) tail += acc[last--];
  acc[last] += tail;
  out.assign(lo + static_cast<Tick>(first) * stride, stride,
             acc.data() + first, acc.data() + last + 1);
}

void convolve_into(const Pmf& a, const Pmf& b, PmfWorkspace& ws, Pmf& out) {
  if (a.empty() || b.empty()) {
    out.assign(0, 1, nullptr, nullptr);
    return;
  }
  const Tick stride = combined_stride(a, b);
  const Tick lo = a.min_time() + b.min_time();
  const Tick hi = a.max_time() + b.max_time();
  auto& acc = ws.zeroed(static_cast<std::size_t>((hi - lo) / stride) + 1);
  if (a.size() == 1 || b.size() == 1) {
    // Single-impulse fast path: a pure shift of the wider PMF, scaled by
    // the impulse mass (1.0 for a proper delta, leaving the bins
    // bit-identical).
    const Pmf& wide = a.size() == 1 ? b : a;
    const double scale = (a.size() == 1 ? a : b).prob_at_index(0);
    scaled_copy(acc.data(), wide.data(), wide.size(), scale);
  } else if (fft_profitable(a.size(), b.size())) {
    // Wide-PMF regime: O(n log n) FFT convolution. acc has exactly
    // size(a) + size(b) - 1 bins here, the full product support.
    ws.fft.convolve(a.data(), a.size(), b.data(), b.size(), acc.data());
  } else {
    // Both inputs share the stride, so bin i of `a` against bin j of `b`
    // lands exactly on bin i + j: the inner loop is a contiguous
    // multiply-accumulate with no per-element lattice arithmetic.
    const double* pb = b.data();
    const std::size_t nb = b.size();
    for (std::size_t i = 0; i < a.size(); ++i) {
      const double pa = a.prob_at_index(i);
      if (pa == 0.0) continue;  // float-eq-ok: exact-zero sparse skip
      axpy(acc.data() + i, pb, nb, pa);
    }
  }
  publish(acc, lo, stride, out);
}

void deadline_convolve_into(const Pmf& pred, const Pmf& exec, Tick deadline,
                            PmfWorkspace& ws, Pmf& out) {
  if (pred.empty()) {
    out.assign(0, 1, nullptr, nullptr);
    return;
  }
  if (exec.empty()) {
    throw std::invalid_argument(
        "deadline_convolve: execution PMF must be non-empty");
  }

  const bool has_conv = pred.min_time() < deadline;
  const bool has_pass = pred.max_time() >= deadline;
  if (!has_conv) {
    // The task can never start before its deadline: it is dropped with
    // certainty and the slot completes exactly when the predecessor does.
    if (&out != &pred) out = pred;
    return;
  }

  const Tick stride = combined_stride(pred, exec);
  if (has_pass && exec.min_time() % stride != 0) {
    // Pass-through bins live on the predecessor's lattice while convolved
    // bins live on (pred + exec); they only coincide when the execution
    // PMF's offset is itself a lattice multiple, which the histogram
    // builder guarantees for PET-matrix PMFs. This holds for *any*
    // execution PMF, single-impulse shifts included: a mixed result is not
    // representable on one lattice. (Reaching here implies has_conv, so a
    // multi-bin predecessor; pred.size() == 1 cannot have both regimes.)
    throw std::invalid_argument(
        "deadline_convolve: execution PMF offset " +
        std::to_string(exec.min_time()) + " is off the stride-" +
        std::to_string(stride) +
        " lattice; convolved and pass-through bins cannot share a lattice");
  }

  // Support bounds. The convolved part only uses start times strictly
  // below the deadline; the pass-through part only uses predecessor bins at
  // or above it. Both live on the predecessor's lattice base.
  Tick last_start = pred.max_time();
  if (last_start >= deadline) {
    const Tick over = last_start - (deadline - 1);
    last_start -= ((over + stride - 1) / stride) * stride;
  }
  Tick lo = pred.min_time() + exec.min_time();
  Tick hi = last_start + exec.max_time();
  if (has_pass) {
    // First predecessor lattice point at or above the deadline.
    const Tick over = deadline - pred.min_time();
    const Tick pass_lo =
        pred.min_time() + ((over + stride - 1) / stride) * stride;
    lo = std::min(lo, pass_lo);
    hi = std::max(hi, pred.max_time());
  }
  auto& acc = ws.zeroed(static_cast<std::size_t>((hi - lo) / stride) + 1);

  // Predecessor bins split into a convolved prefix (start < deadline) and a
  // pass-through suffix, so both loops run branch-free with all lattice
  // divisions hoisted out.
  const std::size_t split =
      has_pass ? static_cast<std::size_t>(
                     (deadline - pred.min_time() + stride - 1) / stride)
               : pred.size();
  const double* pe = exec.data();
  const std::size_t ne = exec.size();
  const auto conv_base =
      static_cast<std::size_t>((pred.min_time() + exec.min_time() - lo) /
                               stride);
  if (fft_profitable(split, ne)) {
    // Wide-PMF regime. The convolved block occupies acc[conv_base ..
    // conv_base + split + ne - 1), still all zeros at this point; the FFT
    // writes each of those bins exactly once and the pass-through loop
    // below adds on top, matching the direct path's accumulation.
    ws.fft.convolve(pred.data(), split, pe, ne, acc.data() + conv_base);
  } else {
    for (std::size_t i = 0; i < split; ++i) {
      const double pk = pred.prob_at_index(i);
      if (pk == 0.0) continue;  // float-eq-ok: exact-zero sparse skip
      axpy(acc.data() + conv_base + i, pe, ne, pk);
    }
  }
  const auto pass_base =
      static_cast<std::size_t>((pred.min_time() - lo) / stride);
  if (split < pred.size()) {
    // Pass-through mass: s = 1.0 makes the fused multiply exact, so this
    // is bit-identical to `acc[k] += p` while sharing the restrict kernel.
    axpy(acc.data() + pass_base + split, pred.data() + split,
         pred.size() - split, 1.0);
  }
  publish(acc, lo, stride, out);
}

}  // namespace rowwise_reference

namespace {

using test::pmf_of;

constexpr double kTol = 1e-12;

/// Per-bin comparison over the union of both supports.
void expect_pmf_close(const Pmf& actual, const Pmf& expected,
                      const char* what, std::uint64_t seed) {
  ASSERT_EQ(actual.empty(), expected.empty())
      << what << " emptiness mismatch, seed " << seed;
  if (expected.empty()) return;
  ASSERT_EQ(actual.stride(), expected.stride())
      << what << " stride mismatch, seed " << seed;
  const Tick lo = std::min(actual.min_time(), expected.min_time());
  const Tick hi = std::max(actual.max_time(), expected.max_time());
  for (Tick t = lo; t <= hi; t += actual.stride()) {
    ASSERT_NEAR(actual.prob_at(t), expected.prob_at(t), kTol)
        << what << " at time " << t << ", seed " << seed;
  }
  ASSERT_NEAR(actual.total_mass(), expected.total_mass(), kTol)
      << what << " mass, seed " << seed;
}

/// Random PMF on a stride lattice: mixes empties, deltas, singletons,
/// interior zeros, unnormalised masses, and varying offsets/sizes.
Pmf random_pmf(Rng& rng, Tick stride, bool allow_empty) {
  const auto shape = rng.uniform_int(0, 9);
  if (allow_empty && shape == 0) return Pmf();
  const Tick offset = stride * rng.uniform_int(0, 30);
  if (shape == 1) return Pmf::delta(offset);
  if (shape == 2) {
    // Singleton with non-unit mass (sub-probability impulse).
    return Pmf(offset, stride, {rng.uniform(0.05, 1.0)});
  }
  const auto bins = static_cast<std::size_t>(rng.uniform_int(2, 48));
  std::vector<double> probs(bins);
  for (double& p : probs) {
    p = rng.uniform01() < 0.2 ? 0.0 : rng.uniform(0.0, 1.0);
  }
  // Ensure the edges carry mass most of the time so trimming stays
  // interesting but not dominant.
  probs.front() = rng.uniform01() < 0.8 ? rng.uniform(0.1, 1.0) : 0.0;
  probs.back() = rng.uniform01() < 0.8 ? rng.uniform(0.1, 1.0) : 0.0;
  Pmf pmf(offset, stride, std::move(probs));
  if (rng.uniform01() < 0.7) pmf.normalize();
  return pmf;
}

Tick stride_for(Rng& rng) {
  constexpr Tick kStrides[] = {1, 2, 5};
  return kStrides[rng.uniform_int(0, 2)];
}

class ConvolutionDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConvolutionDifferentialTest, ConvolveMatchesNaive) {
  Rng rng(GetParam() * 0x9E3779B97F4A7C15ull + 1);
  PmfWorkspace ws;
  Pmf reused;  // persistent out-param: exercises capacity reuse
  for (int round = 0; round < 4; ++round) {
    const Tick stride = stride_for(rng);
    const Pmf a = random_pmf(rng, stride, /*allow_empty=*/true);
    const Pmf b = random_pmf(rng, stride, /*allow_empty=*/true);
    const Pmf expected = naive_reference::convolve(a, b);
    expect_pmf_close(convolve(a, b), expected, "convolve", GetParam());
    convolve_into(a, b, ws, reused);
    expect_pmf_close(reused, expected, "convolve_into", GetParam());
  }
}

TEST_P(ConvolutionDifferentialTest, DeadlineConvolveMatchesNaive) {
  Rng rng(GetParam() * 0xBF58476D1CE4E5B9ull + 7);
  PmfWorkspace ws;
  Pmf reused;
  for (int round = 0; round < 2; ++round) {
    const Tick stride = stride_for(rng);
    const Pmf pred = random_pmf(rng, stride, /*allow_empty=*/true);
    Pmf exec = random_pmf(rng, stride, /*allow_empty=*/false);
    if (exec.empty()) exec = Pmf::delta(stride);
    // Deadlines spanning every truncation regime: certain drop (at or
    // below the support), mixed (inside), and pure convolution (beyond).
    std::vector<Tick> deadlines;
    if (!pred.empty()) {
      deadlines = {pred.min_time() - 3, pred.min_time(),
                   (pred.min_time() + pred.max_time()) / 2 + 1,
                   pred.max_time(), pred.max_time() + stride,
                   pred.max_time() + exec.max_time() + 11};
    } else {
      deadlines = {0, 17};
    }
    for (const Tick deadline : deadlines) {
      const Pmf expected =
          naive_reference::deadline_convolve(pred, exec, deadline);
      expect_pmf_close(deadline_convolve(pred, exec, deadline), expected,
                       "deadline_convolve", GetParam());
      deadline_convolve_into(pred, exec, deadline, ws, reused);
      expect_pmf_close(reused, expected, "deadline_convolve_into",
                       GetParam());
      // Chain-aliasing form: out is also the predecessor (the droppers'
      // provisional-chain idiom).
      ws.chain = pred;
      deadline_convolve_into(ws.chain, exec, deadline, ws, ws.chain);
      expect_pmf_close(ws.chain, expected, "aliased deadline_convolve_into",
                       GetParam());
    }
  }
}

// 50 seeds x 4 convolve pairs and 50 seeds x 2 preds x 6 deadlines
// ~= 200 random pairs per kernel, as the lockdown suite promises.
INSTANTIATE_TEST_SUITE_P(SeededPairs, ConvolutionDifferentialTest,
                         ::testing::Range<std::uint64_t>(1, 51));

// -------------- blocked kernel vs the row-by-row kernel --------------

/// Bitwise equality: offset, stride, size and the bit pattern of every bin.
void expect_pmf_bitwise(const Pmf& actual, const Pmf& expected,
                        const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  EXPECT_EQ(actual.offset(), expected.offset()) << what;
  EXPECT_EQ(actual.stride(), expected.stride()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const double got = actual.prob_at_index(i);
    const double want = expected.prob_at_index(i);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << what << " bin " << i << std::setprecision(17) << ": " << got
        << " vs " << want;
  }
}

/// Dense PMF of exactly `bins` bins, untrimmed so that zero bins can open
/// and close a four-row block: about 20% exact zeros, 10% subnormals and
/// the rest uniform in [0, 1).
Pmf dense_pmf(Rng& rng, Tick offset, Tick stride, std::size_t bins) {
  std::vector<double> probs(bins);
  for (double& p : probs) {
    const double u = rng.uniform01();
    if (u < 0.2) {
      p = 0.0;
    } else if (u < 0.3) {
      p = rng.uniform(1.0, 2.0) * 1e-310;
    } else {
      p = rng.uniform(0.0, 1.0);
    }
  }
  return Pmf(offset, stride, std::move(probs));
}

std::string case_name(const char* kernel, Tick stride, std::size_t n,
                      std::size_t ne) {
  std::ostringstream name;
  name << kernel << " stride " << stride << " rows " << n << " exec " << ne;
  return name.str();
}

class BlockedKernelBitwiseTest : public ::testing::TestWithParam<Tick> {};

// Every predecessor width 1..13 against every execution width 1..64, at
// every deadline from the first predecessor bin to one past the last: the
// convolved prefix `split` takes every value 0..n, so split % 4 covers
// {0, 1, 2, 3}, split < 4 is hit, and pass-through is both on and off.
TEST_P(BlockedKernelBitwiseTest, DeadlineConvolveMatchesRowwise) {
  const Tick stride = GetParam();
  Rng rng(static_cast<std::uint64_t>(stride) * 0x9E3779B97F4A7C15ull + 3);
  PmfWorkspace ws;
  PmfWorkspace ref_ws;
  Pmf got;
  Pmf want;
  for (std::size_t ne = 1; ne <= 64; ++ne) {
    for (std::size_t n = 1; n <= 13; ++n) {
      const Pmf pred =
          dense_pmf(rng, stride * rng.uniform_int(0, 5), stride, n);
      const Pmf exec =
          dense_pmf(rng, stride * rng.uniform_int(0, 3), stride, ne);
      for (Tick deadline = pred.min_time();
           deadline <= pred.max_time() + stride; ++deadline) {
        const std::string what =
            case_name("deadline_convolve_into", stride, n, ne) +
            " deadline " + std::to_string(deadline);
        rowwise_reference::deadline_convolve_into(pred, exec, deadline,
                                                  ref_ws, want);
        deadline_convolve_into(pred, exec, deadline, ws, got);
        expect_pmf_bitwise(got, want, what);
        // Chain-aliasing form: `pred` is ws.chain and is also `out`.
        ws.chain = pred;
        deadline_convolve_into(ws.chain, exec, deadline, ws, ws.chain);
        expect_pmf_bitwise(ws.chain, want, "aliased " + what);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST_P(BlockedKernelBitwiseTest, ConvolveMatchesRowwise) {
  const Tick stride = GetParam();
  Rng rng(static_cast<std::uint64_t>(stride) * 0xBF58476D1CE4E5B9ull + 5);
  PmfWorkspace ws;
  PmfWorkspace ref_ws;
  Pmf got;
  Pmf want;
  for (std::size_t nb = 1; nb <= 64; ++nb) {
    for (std::size_t na = 1; na <= 13; ++na) {
      const Pmf a = dense_pmf(rng, stride * rng.uniform_int(0, 5), stride, na);
      const Pmf b = dense_pmf(rng, stride * rng.uniform_int(0, 3), stride, nb);
      rowwise_reference::convolve_into(a, b, ref_ws, want);
      convolve_into(a, b, ws, got);
      expect_pmf_bitwise(got, want, case_name("convolve_into", stride, na, nb));
      if (HasFatalFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Strides, BlockedKernelBitwiseTest,
                         ::testing::Values<Tick>(1, 3));

// Hand-placed zeros: a row block that is all zero, blocks with one, two
// and three zero rows in each position, and subnormal rows and bins whose
// products underflow, against deadlines at the first and the last
// predecessor bin.
TEST(BlockedKernelBitwise, ZeroAndSubnormalRowsInsideBlocks) {
  const double sub = 3e-310;
  const Pmf pred(0, 1,
                 {0.0, 0.0, 0.0, 0.0,   // all-zero block
                  0.3, 0.0, 0.0, 0.0,   //
                  0.0, 0.2, 0.0, 0.1,   //
                  sub, 0.4, sub, 0.0,   //
                  0.25, 0.5, 0.125, sub, 0.0, 0.6});
  const Pmf exec(2, 1, {0.1, sub, 0.0, 0.7, sub, 0.2});
  PmfWorkspace ws;
  PmfWorkspace ref_ws;
  Pmf got;
  Pmf want;
  for (const Tick deadline :
       {pred.min_time() + 1, pred.max_time(), pred.max_time() + 1}) {
    rowwise_reference::deadline_convolve_into(pred, exec, deadline, ref_ws,
                                              want);
    deadline_convolve_into(pred, exec, deadline, ws, got);
    expect_pmf_bitwise(got, want,
                       "deadline_convolve_into deadline " +
                           std::to_string(deadline));
  }
  rowwise_reference::convolve_into(pred, exec, ref_ws, want);
  convolve_into(pred, exec, ws, got);
  expect_pmf_bitwise(got, want, "convolve_into");
}

// ------------------------- error paths -------------------------
//
// The stride-mismatch check used to be assert-only, so Release builds
// silently produced a garbage lattice; it is now a real error path.

TEST(ConvolutionErrors, StrideMismatchThrows) {
  const Pmf a = pmf_of({{0, 0.5}, {3, 0.5}}, 3);
  const Pmf b = pmf_of({{0, 0.5}, {5, 0.5}}, 5);
  EXPECT_THROW(convolve(a, b), std::invalid_argument);
  EXPECT_THROW(deadline_convolve(a, b, 100), std::invalid_argument);
  PmfWorkspace ws;
  Pmf out;
  EXPECT_THROW(convolve_into(a, b, ws, out), std::invalid_argument);
  EXPECT_THROW(deadline_convolve_into(a, b, 100, ws, out),
               std::invalid_argument);
}

TEST(ConvolutionErrors, SingleImpulseSidestepsStrideMismatch) {
  // Deltas are stride-agnostic shifts: no error even though strides differ.
  const Pmf delta = Pmf::delta(7);
  const Pmf b = pmf_of({{0, 0.5}, {5, 0.5}}, 5);
  EXPECT_NO_THROW(convolve(delta, b));
  EXPECT_NEAR(convolve(delta, b).total_mass(), 1.0, kTol);
}

TEST(ConvolutionErrors, EmptyExecThrows) {
  const Pmf pred = pmf_of({{0, 0.5}, {1, 0.5}});
  EXPECT_THROW(deadline_convolve(pred, Pmf(), 10), std::invalid_argument);
}

TEST(ConvolutionErrors, OffLatticeExecWithPassThroughThrows) {
  // Pass-through bins exist (deadline inside pred support) and the exec
  // offset 7 is not a multiple of stride 5: the two lattices cannot merge.
  const Pmf pred = pmf_of({{10, 0.5}, {20, 0.5}}, 5);
  const Pmf exec = pmf_of({{7, 0.5}, {12, 0.5}}, 5);
  EXPECT_THROW(deadline_convolve(pred, exec, 15), std::invalid_argument);
  // Without pass-through bins the result lives purely on pred + exec, so
  // the same inputs are fine with a late deadline.
  EXPECT_NO_THROW(deadline_convolve(pred, exec, 1000));
}

TEST(ConvolutionErrors, OffLatticeDeltaExecWithPassThroughThrows) {
  // A single-impulse exec is normally a stride-agnostic shift, but mixed
  // with pass-through bins the shifted and unshifted lattices cannot
  // merge either — this must throw, not write a garbage (or out-of-range)
  // bin.
  const Pmf pred = pmf_of({{0, 0.4}, {10, 0.3}, {20, 0.3}}, 10);
  const Pmf delta_exec = Pmf::delta(7);
  EXPECT_THROW(deadline_convolve(pred, delta_exec, 15),
               std::invalid_argument);
  // On-lattice delta: fine, and equal to the naive reference.
  const Pmf aligned = Pmf::delta(10);
  expect_pmf_close(deadline_convolve(pred, aligned, 15),
                   naive_reference::deadline_convolve(pred, aligned, 15),
                   "aligned delta exec", 0);
  // Off-lattice delta without pass-through bins: a pure shift, still fine.
  EXPECT_NO_THROW(deadline_convolve(pred, delta_exec, 1000));
  expect_pmf_close(deadline_convolve(pred, delta_exec, 1000),
                   naive_reference::deadline_convolve(pred, delta_exec, 1000),
                   "off-lattice delta exec, no pass-through", 0);
}

}  // namespace
}  // namespace taskdrop
