// Template bodies of the convolution variants — included by the three
// per-backend registration TUs (conv_variants_{scalar,sse,avx2}.cpp) and
// instantiable from benches/tests for Part-1 micro-measurement.
//
// One sample-range body (spread_range / interp_range) serves every key; the
// runtime-width entry (W2 = 0) and the constexpr-W entries differ only in
// Part 1 (compute_window vs window_spec). Bit-identity contract: for every
// (backend, dim, evaluator), each constexpr-W variant must produce
// bit-identical grids and samples to the runtime-width variant, at any lane
// count. Two rules keep that true:
//
//   1. The window geometry (float-rounding trim, modular wrap) comes from
//      the SAME inline helpers compute_window uses (core/window_span.hpp),
//      never re-derived.
//   2. Every TU including this header is compiled at the baseline ISA. On a
//      TU built with -mavx2 -mfma the compiler may contract the a·b+c shapes
//      in the window/weight arithmetic into FMA, which changes rounding and
//      silently breaks the bit-match against the baseline-compiled
//      compute_window. AVX2 work is reached only through *extern* functions
//      that were themselves audited for lane-exactness: the Part-2 kernels
//      of core/convolution_avx2.cpp, and kernels::eval_window_avx2 (explicit
//      mul+add intrinsics, never fmadd — see kernels/horner_avx2.cpp).
//
// What a constexpr width buys (paper Part 1, the dominant phase at small W):
// constexpr W feeds the trim, the per-element `lut != nullptr` branch
// disappears, the dim loops unroll, and the AVX2+Horner combination
// evaluates the whole weight row 8 segments per instruction instead of
// riding the scalar recurrence.
#pragma once

#include <vector>

#include "common/error.hpp"
#include "core/conv_dispatch.hpp"
#include "core/convolution.hpp"
#include "core/convolution_avx2.hpp"
#include "core/window_span.hpp"
#include "kernels/horner.hpp"

namespace nufft::detail {

/// Part 1 with compile-time dim/width/evaluator. `AVX2ROW` routes the Horner
/// row evaluation through the AVX2 evaluator (only set for the AVX2 backend,
/// whose availability the plan already verified).
template <int DIM, int W2, bool HORNER, bool AVX2ROW>
[[gnu::always_inline]] inline void window_spec(const GridDesc& g, const WindowEval& ev, const float* coord,
                        bool fill_dup, WindowBuf& wb) {
  constexpr float W = static_cast<float>(W2) * 0.5f;  // exact for half-integer widths
  for (int d = 0; d < DIM; ++d) {
    const float k = coord[d];
    const WindowSpan sp = window_span(k, W);
    NUFFT_DASSERT(sp.len <= WindowBuf::kMaxLen);
    const index_t m = g.m[static_cast<std::size_t>(d)];
    wb.start[d] = sp.x1;
    wb.len[d] = sp.len;
    if constexpr (!HORNER) {
      const kernels::KernelLut& lut = *ev.lut;
      for (int i = 0; i < sp.len; ++i) {
        const index_t nx = sp.x1 + i;
        wb.idx[d][i] = wrap_grid_index(nx, m);
        wb.win[d][i] = lut(std::fabs(static_cast<float>(nx) - k));
      }
    } else {
      for (int i = 0; i < sp.len; ++i) wb.idx[d][i] = wrap_grid_index(sp.x1 + i, m);
      // Shared abscissa z = x1 − k + W ∈ [0, 1]; one row evaluation covers
      // the whole window (see kernels/horner.hpp).
      const float z = static_cast<float>(sp.x1) - k + W;
      if constexpr (AVX2ROW) {
        kernels::eval_window_avx2(*ev.horner, z, sp.len, wb.win[d]);
      } else {
        ev.horner->eval_window(z, sp.len, wb.win[d]);
      }
    }
  }
  constexpr int last = DIM - 1;
  wb.inner_contiguous = wb.start[last] >= 0 &&
                        wb.start[last] + wb.len[last] <= g.m[static_cast<std::size_t>(last)];
  if (fill_dup) {
    for (int i = 0; i < wb.len[last]; ++i) {
      wb.win_dup[2 * i] = wb.win[last][i];
      wb.win_dup[2 * i + 1] = wb.win[last][i];
    }
  }
}

/// Rebase neighbour indices into a privatized task's box: idx − box_lo[d],
/// box-local and never wrapping (the box covers the partition plus the
/// kernel radius).
template <int DIM>
inline void rebase_box(const index_t* box_lo, WindowBuf& wb) {
  for (int d = 0; d < DIM; ++d) {
    for (int t = 0; t < wb.len[d]; ++t) {
      wb.idx[d][t] = wb.start[d] + t - box_lo[d];
    }
  }
  wb.inner_contiguous = true;
}

/// Part 1 for reordered sample i of the range: the constexpr-W window, or
/// compute_window for the runtime-width entry (W2 = 0); box-rebased for
/// privatized ranges. `fill_dup` builds the pair-duplicated weights the
/// single-grid SIMD kernels read. Forced inline (with window_spec): it runs
/// once per sample, and each variant calls it from two loops, which would
/// otherwise push it out of line.
template <ConvBackend B, int DIM, int W2, bool HORNER>
[[gnu::always_inline]] inline void range_window(const ConvRange& a, index_t i, bool fill_dup,
                                                WindowBuf& wb) {
  float coord[3];
  for (int d = 0; d < DIM; ++d) {
    coord[d] = a.coords[static_cast<std::size_t>(d)][static_cast<std::size_t>(i)];
  }
  if constexpr (W2 == 0) {
    compute_window(*a.g, a.ev, coord, DIM, fill_dup, wb);
  } else {
    window_spec<DIM, W2, HORNER, B == ConvBackend::kAvx2 && HORNER>(*a.g, a.ev, coord,
                                                                    fill_dup, wb);
  }
  if (a.box_lo != nullptr) rebase_box<DIM>(a.box_lo, wb);
}

/// The lane kernels of backend B for nb cell-interleaved grids.
template <ConvBackend B, int DIM>
LaneKernels lane_kernels(index_t nb) {
  if constexpr (B == ConvBackend::kScalar) {
    return lane_kernels_scalar<DIM>(nb);
  } else if constexpr (B == ConvBackend::kSse) {
    return lane_kernels_sse<DIM>(nb);
  } else {
    return lane_kernels_avx2<DIM>(nb);
  }
}

// nb ≥ 2: the nb grids are cell-interleaved, so the loop has the
// single-grid shape — one window per sample, applied by a lane kernel to
// every lane of each cell it covers. Out of line so the single-grid loops
// below keep the compact codegen of a loop with one Part-1 call site.
template <ConvBackend B, int DIM, int W2, bool HORNER>
[[gnu::noinline]] void spread_lanes(const ConvRange& a, const cfloat* const* raws, index_t nb,
                                    cfloat* dst, const std::array<index_t, 3>& strides) {
  const LaneScatterFn scatter = lane_kernels<B, DIM>(nb).scatter;
  WindowBuf wb;
  cfloat vals[kMaxBatch];
  for (index_t i = a.begin; i < a.end; ++i) {
    range_window<B, DIM, W2, HORNER>(a, i, false, wb);
    const index_t oi = a.orig_index[static_cast<std::size_t>(i)];
    for (index_t b = 0; b < nb; ++b) vals[b] = raws[b][oi];
    scatter(dst, strides, wb, vals);
  }
}

template <ConvBackend B, int DIM, int W2, bool HORNER>
[[gnu::noinline]] void interp_lanes(const ConvRange& a, const cfloat* grid, index_t nb,
                                    const std::array<index_t, 3>& strides, cfloat* const* outs) {
  const LaneGatherFn gather = lane_kernels<B, DIM>(nb).gather;
  WindowBuf wb;
  cfloat vals[kMaxBatch];
  for (index_t i = a.begin; i < a.end; ++i) {
    range_window<B, DIM, W2, HORNER>(a, i, false, wb);
    gather(grid, strides, wb, vals);
    const index_t oi = a.orig_index[static_cast<std::size_t>(i)];
    for (index_t b = 0; b < nb; ++b) outs[b][oi] = vals[b];
  }
}

template <ConvBackend B, int DIM, int W2, bool HORNER>
void spread_range(const ConvRange& a, const cfloat* const* raws, index_t nb, cfloat* dst,
                  const std::array<index_t, 3>& strides) {
  if (nb > 1) {
    spread_lanes<B, DIM, W2, HORNER>(a, raws, nb, dst, strides);
    return;
  }
  constexpr bool kFillDup = B != ConvBackend::kScalar;
  const cfloat* raw = raws[0];
  WindowBuf wb;
  for (index_t i = a.begin; i < a.end; ++i) {
    range_window<B, DIM, W2, HORNER>(a, i, kFillDup, wb);
    const cfloat v = raw[a.orig_index[static_cast<std::size_t>(i)]];
    if constexpr (B == ConvBackend::kScalar) {
      adj_scatter_scalar<DIM>(dst, strides, wb, v);
    } else if constexpr (B == ConvBackend::kSse) {
      adj_scatter_simd<DIM>(dst, strides, wb, v);
    } else {
      adj_scatter_avx2<DIM>(dst, strides, wb, v);
    }
  }
}

template <ConvBackend B, int DIM, int W2, bool HORNER>
void interp_range(const ConvRange& a, const cfloat* grid, index_t nb,
                  const std::array<index_t, 3>& strides, cfloat* const* outs) {
  if (nb > 1) {
    interp_lanes<B, DIM, W2, HORNER>(a, grid, nb, strides, outs);
    return;
  }
  constexpr bool kFillDup = B != ConvBackend::kScalar;
  cfloat* out = outs[0];
  WindowBuf wb;
  for (index_t i = a.begin; i < a.end; ++i) {
    range_window<B, DIM, W2, HORNER>(a, i, kFillDup, wb);
    cfloat v;
    if constexpr (B == ConvBackend::kScalar) {
      v = fwd_gather_scalar<DIM>(grid, strides, wb);
    } else if constexpr (B == ConvBackend::kSse) {
      v = fwd_gather_simd<DIM>(grid, strides, wb);
    } else {
      v = fwd_gather_avx2<DIM>(grid, strides, wb);
    }
    out[a.orig_index[static_cast<std::size_t>(i)]] = v;
  }
}

/// Key and entry points only: registration runs one small loop instead of
/// executing code that lives beside each variant's body (which would page
/// the whole variant text in at startup). ConvDispatch names the entries.
template <ConvBackend B, int DIM, int W2, bool HORNER>
ConvVariant make_variant() {
  ConvVariant v;
  v.key.backend = B;
  v.key.dim = static_cast<std::uint8_t>(DIM);
  v.key.width2 = static_cast<std::uint8_t>(W2);
  v.key.eval = HORNER ? kernels::KernelEval::kHorner : kernels::KernelEval::kLut;
  v.spread = &spread_range<B, DIM, W2, HORNER>;
  v.interp = &interp_range<B, DIM, W2, HORNER>;
  return v;
}

template <ConvBackend B, int DIM, int W2>
void add_width(std::vector<ConvVariant>& out) {
  out.push_back(make_variant<B, DIM, W2, false>());
  out.push_back(make_variant<B, DIM, W2, true>());
}

template <ConvBackend B, int DIM>
void add_dim(std::vector<ConvVariant>& out) {
  add_width<B, DIM, 0>(out);  // the runtime-width entry find() falls back to
  add_width<B, DIM, 4>(out);
  add_width<B, DIM, 5>(out);
  add_width<B, DIM, 6>(out);
  add_width<B, DIM, 7>(out);
  add_width<B, DIM, 8>(out);
}

/// Instantiate every (dim, width2 ∈ {0, 4..8}, evaluator) combination of one
/// backend.
template <ConvBackend B>
void register_backend(std::vector<ConvVariant>& out) {
  add_dim<B, 1>(out);
  add_dim<B, 2>(out);
  add_dim<B, 3>(out);
}

void append_scalar_variants(std::vector<ConvVariant>& out);
void append_sse_variants(std::vector<ConvVariant>& out);
void append_avx2_variants(std::vector<ConvVariant>& out);

}  // namespace nufft::detail
