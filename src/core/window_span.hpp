// The window-geometry primitives shared by the runtime-width compute_window
// and every constexpr-W convolution variant (core/conv_variants.hpp).
//
// Both callers MUST produce byte-identical windows for the same (k, W, m):
// the dispatch registry's bit-match contract (tests/test_dispatch.cpp)
// compares constexpr-W and runtime-width results bitwise, and the float-rounding
// trim below is exactly the hazard that diverges first when the expression
// is re-derived instead of shared. Keep this header free of anything that
// could be compiled differently across translation units (no FMA-shaped
// a*b+c arithmetic, no ISA-specific code) — every including TU is built at
// the baseline ISA.
#pragma once

#include <algorithm>
#include <cmath>

#include "common/types.hpp"

namespace nufft {

/// First neighbour and length of the kernel window of a sample at
/// fractional grid coordinate k with support radius W.
struct WindowSpan {
  index_t x1;  // first (unwrapped) neighbour, ceil(k − W) after the trim
  int len;     // neighbour count, ≤ 2W+1 in float arithmetic
};

/// Candidate window [ceil(k−W), floor(k+W)] with the float-rounding trim.
///
/// Float rounding of k ± W can admit a neighbour just outside the kernel
/// support (|nx − k| > W): for half-integer coordinates that makes the
/// window 2W+2 wide, which overruns WindowBuf::kMaxLen at W = 9.5, reads
/// the LUT past its guard entries, and — on the privatized path — indexes
/// one cell past the task's write box. Trim with the same float expression
/// the weight lookup evaluates, so len ≤ 2W+1 holds in the arithmetic that
/// matters.
inline WindowSpan window_span(float k, float W) {
  auto x1 = static_cast<index_t>(std::ceil(k - W));
  auto x2 = static_cast<index_t>(std::floor(k + W));
  if (std::fabs(static_cast<float>(x1) - k) > W) ++x1;
  if (std::fabs(static_cast<float>(x2) - k) > W) --x2;
  return {x1, std::max(0, static_cast<int>(x2 - x1 + 1))};
}

/// Wrap an unwrapped neighbour coordinate into [0, m) for ANY m ≥ 1.
///
/// One conditional wrap covers |nx| < 2m, which holds whenever the window
/// fits the grid (2⌈W⌉+1 ≤ m — enforced at plan construction). The
/// baselines accept arbitrary GridDescs, so a window wider than the grid
/// falls back to a full modular wrap: the kernel tail then legitimately
/// revisits cells, which is the correct periodic convolution.
inline index_t wrap_grid_index(index_t nx, index_t m) {
  index_t wrapped = nx;
  if (wrapped < 0) wrapped += m;
  if (wrapped >= m) wrapped -= m;
  if (wrapped < 0 || wrapped >= m) {
    wrapped = nx % m;
    if (wrapped < 0) wrapped += m;
  }
  return wrapped;
}

}  // namespace nufft
