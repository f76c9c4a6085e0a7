#include "core/convolution.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "core/window_span.hpp"
#include "simd/vec4f.hpp"

// The scalar Part-2 kernels are the reference point of the paper's SIMD
// study (Fig. 13): they must execute genuinely scalar instructions, exactly
// like the 2012 scalar baseline, or the measured "SIMD speedup" silently
// compares hand-SSE against compiler-SSE. Pin their codegen.
#if defined(__GNUC__) && !defined(__clang__)
#define NUFFT_SCALAR_CODEGEN __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#else
#define NUFFT_SCALAR_CODEGEN
#endif

namespace nufft {

void compute_window(const GridDesc& g, const kernels::KernelLut& lut, const float* coord,
                    int dim, bool fill_dup, WindowBuf& wb) {
  WindowEval ev;
  ev.lut = &lut;
  compute_window(g, ev, coord, dim, fill_dup, wb);
}

void compute_window(const GridDesc& g, const WindowEval& ev, const float* coord, int dim,
                    bool fill_dup, WindowBuf& wb) {
  const kernels::KernelLut* lut = ev.lut;
  const float W = ev.radius();
  for (int d = 0; d < dim; ++d) {
    const float k = coord[d];
    // Window geometry (float-rounding trim + wrap) is shared with the
    // constexpr-W dispatch variants via core/window_span.hpp — both paths
    // must stay byte-identical (see that header's contract).
    const WindowSpan sp = window_span(k, W);
    NUFFT_DASSERT(sp.len <= WindowBuf::kMaxLen);
    const index_t m = g.m[static_cast<std::size_t>(d)];
    wb.start[d] = sp.x1;
    wb.len[d] = sp.len;
    for (int i = 0; i < sp.len; ++i) {
      const index_t nx = sp.x1 + i;
      wb.idx[d][i] = wrap_grid_index(nx, m);
      if (lut != nullptr) wb.win[d][i] = (*lut)(std::fabs(static_cast<float>(nx) - k));
    }
    if (lut == nullptr) {
      // Horner batch path: every neighbour shares the abscissa
      // z = x1 − k + W ∈ [0, 1] and neighbour i sits at distance z − W + i,
      // which is exactly the per-segment parameterization the fit used.
      ev.horner->eval_window(static_cast<float>(sp.x1) - k + W, sp.len, wb.win[d]);
    }
  }
  const int last = dim - 1;
  wb.inner_contiguous =
      wb.start[last] >= 0 && wb.start[last] + wb.len[last] <= g.m[static_cast<std::size_t>(last)];
  if (fill_dup) {
    for (int i = 0; i < wb.len[last]; ++i) {
      wb.win_dup[2 * i] = wb.win[last][i];
      wb.win_dup[2 * i + 1] = wb.win[last][i];
    }
  }
}

namespace {

// ---- scalar inner loops over the last (contiguous-memory) dimension ----

NUFFT_SCALAR_CODEGEN
inline void adj_inner_scalar(cfloat* row, const float* win, const index_t* idx, int len,
                             cfloat tmp) {
  for (int t = 0; t < len; ++t) row[idx[t]] += tmp * win[t];
}

NUFFT_SCALAR_CODEGEN
inline cfloat fwd_inner_scalar(const cfloat* row, const float* win, const index_t* idx,
                               int len) {
  cfloat acc(0.0f, 0.0f);
  for (int t = 0; t < len; ++t) acc += row[idx[t]] * win[t];
  return acc;
}

// ---- SSE inner loops: two interleaved complex cells per 128-bit op ----

inline void adj_inner_simd(cfloat* row, const WindowBuf& wb, int last, cfloat tmp) {
  const int len = wb.len[last];
  if (!wb.inner_contiguous) {
    adj_inner_scalar(row, wb.win[last], wb.idx[last], len, tmp);
    return;
  }
  auto* p = reinterpret_cast<float*>(row + wb.idx[last][0]);
  const simd::Vec4f v(tmp.real(), tmp.imag(), tmp.real(), tmp.imag());
  const int pairs = len / 2;
  for (int j = 0; j < pairs; ++j) {
    const simd::Vec4f w = simd::Vec4f::load(wb.win_dup + 4 * j);
    simd::madd(v, w, simd::Vec4f::loadu(p + 4 * j)).storeu(p + 4 * j);
  }
  if ((len & 1) != 0) row[wb.idx[last][0] + len - 1] += tmp * wb.win[last][len - 1];
}

inline cfloat fwd_inner_simd(const cfloat* row, const WindowBuf& wb, int last) {
  const int len = wb.len[last];
  if (!wb.inner_contiguous) {
    return fwd_inner_scalar(row, wb.win[last], wb.idx[last], len);
  }
  const auto* p = reinterpret_cast<const float*>(row + wb.idx[last][0]);
  simd::Vec4f acc = simd::Vec4f::zero();
  const int pairs = len / 2;
  for (int j = 0; j < pairs; ++j) {
    const simd::Vec4f w = simd::Vec4f::load(wb.win_dup + 4 * j);
    acc = simd::madd(simd::Vec4f::loadu(p + 4 * j), w, acc);
  }
  const simd::Vec4f pairsum = acc.hsum_complex_pairs();
  cfloat out(pairsum[0], pairsum[1]);
  if ((len & 1) != 0) out += row[wb.idx[last][0] + len - 1] * wb.win[last][len - 1];
  return out;
}

}  // namespace

// ---- adjoint (scatter) ----

template <int DIM>
NUFFT_SCALAR_CODEGEN void adj_scatter_scalar(cfloat* grid, const std::array<index_t, 3>& strides,
                                             const WindowBuf& wb, cfloat val) {
  constexpr int last = DIM - 1;
  if constexpr (DIM == 1) {
    adj_inner_scalar(grid, wb.win[0], wb.idx[0], wb.len[0], val);
  } else if constexpr (DIM == 2) {
    for (int iy = 0; iy < wb.len[0]; ++iy) {
      cfloat tmp = val * wb.win[0][iy];
      adj_inner_scalar(grid + wb.idx[0][iy] * strides[0], wb.win[last], wb.idx[last],
                       wb.len[last], tmp);
    }
  } else {
    for (int ix = 0; ix < wb.len[0]; ++ix) {
      cfloat* base = grid + wb.idx[0][ix] * strides[0];
      const float wx = wb.win[0][ix];
      for (int iy = 0; iy < wb.len[1]; ++iy) {
        const float wxy = wx * wb.win[1][iy];
        adj_inner_scalar(base + wb.idx[1][iy] * strides[1], wb.win[last], wb.idx[last],
                         wb.len[last], val * wxy);
      }
    }
  }
}

template <int DIM>
void adj_scatter_simd(cfloat* grid, const std::array<index_t, 3>& strides, const WindowBuf& wb,
                      cfloat val) {
  constexpr int last = DIM - 1;
  if constexpr (DIM == 1) {
    adj_inner_simd(grid, wb, last, val);
  } else if constexpr (DIM == 2) {
    for (int iy = 0; iy < wb.len[0]; ++iy) {
      adj_inner_simd(grid + wb.idx[0][iy] * strides[0], wb, last, val * wb.win[0][iy]);
    }
  } else {
    for (int ix = 0; ix < wb.len[0]; ++ix) {
      cfloat* base = grid + wb.idx[0][ix] * strides[0];
      const float wx = wb.win[0][ix];
      for (int iy = 0; iy < wb.len[1]; ++iy) {
        const float wxy = wx * wb.win[1][iy];
        adj_inner_simd(base + wb.idx[1][iy] * strides[1], wb, last, val * wxy);
      }
    }
  }
}

// ---- forward (gather) ----

template <int DIM>
NUFFT_SCALAR_CODEGEN cfloat fwd_gather_scalar(const cfloat* grid,
                                              const std::array<index_t, 3>& strides,
                                              const WindowBuf& wb) {
  constexpr int last = DIM - 1;
  if constexpr (DIM == 1) {
    return fwd_inner_scalar(grid, wb.win[0], wb.idx[0], wb.len[0]);
  } else if constexpr (DIM == 2) {
    cfloat acc(0.0f, 0.0f);
    for (int iy = 0; iy < wb.len[0]; ++iy) {
      acc += fwd_inner_scalar(grid + wb.idx[0][iy] * strides[0], wb.win[last], wb.idx[last],
                              wb.len[last]) *
             wb.win[0][iy];
    }
    return acc;
  } else {
    cfloat acc(0.0f, 0.0f);
    for (int ix = 0; ix < wb.len[0]; ++ix) {
      const cfloat* base = grid + wb.idx[0][ix] * strides[0];
      const float wx = wb.win[0][ix];
      for (int iy = 0; iy < wb.len[1]; ++iy) {
        const float wxy = wx * wb.win[1][iy];
        acc += fwd_inner_scalar(base + wb.idx[1][iy] * strides[1], wb.win[last], wb.idx[last],
                                wb.len[last]) *
               wxy;
      }
    }
    return acc;
  }
}

template <int DIM>
cfloat fwd_gather_simd(const cfloat* grid, const std::array<index_t, 3>& strides,
                       const WindowBuf& wb) {
  constexpr int last = DIM - 1;
  if constexpr (DIM == 1) {
    return fwd_inner_simd(grid, wb, last);
  } else if constexpr (DIM == 2) {
    cfloat acc(0.0f, 0.0f);
    for (int iy = 0; iy < wb.len[0]; ++iy) {
      acc += fwd_inner_simd(grid + wb.idx[0][iy] * strides[0], wb, last) * wb.win[0][iy];
    }
    return acc;
  } else {
    cfloat acc(0.0f, 0.0f);
    for (int ix = 0; ix < wb.len[0]; ++ix) {
      const cfloat* base = grid + wb.idx[0][ix] * strides[0];
      const float wx = wb.win[0][ix];
      for (int iy = 0; iy < wb.len[1]; ++iy) {
        const float wxy = wx * wb.win[1][iy];
        acc += fwd_inner_simd(base + wb.idx[1][iy] * strides[1], wb, last) * wxy;
      }
    }
    return acc;
  }
}

template void adj_scatter_scalar<1>(cfloat*, const std::array<index_t, 3>&, const WindowBuf&, cfloat);
template void adj_scatter_scalar<2>(cfloat*, const std::array<index_t, 3>&, const WindowBuf&, cfloat);
template void adj_scatter_scalar<3>(cfloat*, const std::array<index_t, 3>&, const WindowBuf&, cfloat);
template void adj_scatter_simd<1>(cfloat*, const std::array<index_t, 3>&, const WindowBuf&, cfloat);
template void adj_scatter_simd<2>(cfloat*, const std::array<index_t, 3>&, const WindowBuf&, cfloat);
template void adj_scatter_simd<3>(cfloat*, const std::array<index_t, 3>&, const WindowBuf&, cfloat);
template cfloat fwd_gather_scalar<1>(const cfloat*, const std::array<index_t, 3>&, const WindowBuf&);
template cfloat fwd_gather_scalar<2>(const cfloat*, const std::array<index_t, 3>&, const WindowBuf&);
template cfloat fwd_gather_scalar<3>(const cfloat*, const std::array<index_t, 3>&, const WindowBuf&);
template cfloat fwd_gather_simd<1>(const cfloat*, const std::array<index_t, 3>&, const WindowBuf&);
template cfloat fwd_gather_simd<2>(const cfloat*, const std::array<index_t, 3>&, const WindowBuf&);
template cfloat fwd_gather_simd<3>(const cfloat*, const std::array<index_t, 3>&, const WindowBuf&);

// ---- lane kernels (batched applies, cell-interleaved grids) ----

namespace {

// Scalar: each lane runs adj_inner_scalar / fwd_inner_scalar's operations
// in their order; the lane loop is innermost so one pass over the window
// serves every lane.
template <int L>
NUFFT_SCALAR_CODEGEN inline void ladj_row_scalar(cfloat* row, const WindowBuf& wb, int last,
                                                 const cfloat* tmp) {
  for (int t = 0; t < wb.len[last]; ++t) {
    cfloat* cell = row + wb.idx[last][t] * L;
    const float w = wb.win[last][t];
    for (int b = 0; b < L; ++b) cell[b] += tmp[b] * w;
  }
}

template <int L>
NUFFT_SCALAR_CODEGEN inline void lfwd_row_scalar(const cfloat* row, const WindowBuf& wb,
                                                 int last, cfloat* racc) {
  for (int b = 0; b < L; ++b) racc[b] = cfloat(0.0f, 0.0f);
  for (int t = 0; t < wb.len[last]; ++t) {
    const cfloat* cell = row + wb.idx[last][t] * L;
    const float w = wb.win[last][t];
    for (int b = 0; b < L; ++b) racc[b] += cell[b] * w;
  }
}

template <int DIM, int L>
NUFFT_SCALAR_CODEGEN void ladj_scatter_scalar(cfloat* grid, const std::array<index_t, 3>& strides,
                                              const WindowBuf& wb, const cfloat* vals) {
  constexpr int last = DIM - 1;
  if constexpr (DIM == 1) {
    ladj_row_scalar<L>(grid, wb, last, vals);
  } else {
    cfloat tmp[L];
    for (int ix = 0; ix < wb.len[0]; ++ix) {
      cfloat* base = grid + wb.idx[0][ix] * strides[0] * L;
      const float wx = wb.win[0][ix];
      if constexpr (DIM == 2) {
        for (int b = 0; b < L; ++b) tmp[b] = vals[b] * wx;
        ladj_row_scalar<L>(base, wb, last, tmp);
      } else {
        for (int iy = 0; iy < wb.len[1]; ++iy) {
          const float wxy = wx * wb.win[1][iy];
          for (int b = 0; b < L; ++b) tmp[b] = vals[b] * wxy;
          ladj_row_scalar<L>(base + wb.idx[1][iy] * strides[1] * L, wb, last, tmp);
        }
      }
    }
  }
}

template <int DIM, int L>
NUFFT_SCALAR_CODEGEN void lfwd_gather_scalar(const cfloat* grid,
                                             const std::array<index_t, 3>& strides,
                                             const WindowBuf& wb, cfloat* outs) {
  constexpr int last = DIM - 1;
  if constexpr (DIM == 1) {
    lfwd_row_scalar<L>(grid, wb, last, outs);
  } else {
    cfloat racc[L];
    for (int b = 0; b < L; ++b) outs[b] = cfloat(0.0f, 0.0f);
    for (int ix = 0; ix < wb.len[0]; ++ix) {
      const cfloat* base = grid + wb.idx[0][ix] * strides[0] * L;
      const float wx = wb.win[0][ix];
      if constexpr (DIM == 2) {
        lfwd_row_scalar<L>(base, wb, last, racc);
        for (int b = 0; b < L; ++b) outs[b] += racc[b] * wx;
      } else {
        for (int iy = 0; iy < wb.len[1]; ++iy) {
          const float wxy = wx * wb.win[1][iy];
          lfwd_row_scalar<L>(base + wb.idx[1][iy] * strides[1] * L, wb, last, racc);
          for (int b = 0; b < L; ++b) outs[b] += racc[b] * wxy;
        }
      }
    }
  }
}

using simd::Vec4f;

// The L lanes of one cell in SSE registers: L/2 whole registers of two
// complex lanes, then an odd last lane in the low half of one more.
template <int L>
struct SseCell {
  static constexpr int kVec = L / 2;
  static constexpr int kRegs = kVec + (L & 1);
  Vec4f r[kRegs];

  static SseCell load(const cfloat* c) {
    SseCell x;
    const auto* f = reinterpret_cast<const float*>(c);
#pragma GCC unroll 16
    for (int j = 0; j < kVec; ++j) x.r[j] = Vec4f::loadu(f + 4 * j);
    if constexpr ((L & 1) != 0) {
      x.r[kVec] =
          Vec4f(_mm_loadl_pi(_mm_setzero_ps(), reinterpret_cast<const __m64*>(f + 4 * kVec)));
    }
    return x;
  }
  void store(cfloat* c) const {
    auto* f = reinterpret_cast<float*>(c);
#pragma GCC unroll 16
    for (int j = 0; j < kVec; ++j) r[j].storeu(f + 4 * j);
    if constexpr ((L & 1) != 0) _mm_storel_pi(reinterpret_cast<__m64*>(f + 4 * kVec), r[kVec].v);
  }
  static SseCell zero() { return SseCell{}; }  // Vec4f() is zero
  /// a·w + c per lane (separate multiply and add, as the scalar kernel).
  static SseCell madd(const SseCell& a, Vec4f w, const SseCell& c) {
    SseCell x;
#pragma GCC unroll 16
    for (int j = 0; j < kRegs; ++j) x.r[j] = simd::madd(a.r[j], w, c.r[j]);
    return x;
  }
  static SseCell mul(const SseCell& a, Vec4f w) {
    SseCell x;
#pragma GCC unroll 16
    for (int j = 0; j < kRegs; ++j) x.r[j] = a.r[j] * w;
    return x;
  }
};

template <int DIM, int L>
void ladj_scatter_sse(cfloat* grid, const std::array<index_t, 3>& strides, const WindowBuf& wb,
                      const cfloat* vals) {
  using Cell = SseCell<L>;
  constexpr int last = DIM - 1;
  const int len = wb.len[last];
  __m128 w[WindowBuf::kMaxLen];  // splat weights (uninitialized past len)
  for (int t = 0; t < len; ++t) w[t] = _mm_set1_ps(wb.win[last][t]);
  const auto row = [&](cfloat* r, const Cell& tmp) {
    for (int t = 0; t < len; ++t) {
      cfloat* cell = r + wb.idx[last][t] * L;
      Cell::madd(tmp, Vec4f(w[t]), Cell::load(cell)).store(cell);
    }
  };
  const Cell v = Cell::load(vals);
  if constexpr (DIM == 1) {
    row(grid, v);
  } else {
    for (int ix = 0; ix < wb.len[0]; ++ix) {
      cfloat* base = grid + wb.idx[0][ix] * strides[0] * L;
      const float wx = wb.win[0][ix];
      if constexpr (DIM == 2) {
        row(base, Cell::mul(v, Vec4f(wx)));
      } else {
        for (int iy = 0; iy < wb.len[1]; ++iy) {
          row(base + wb.idx[1][iy] * strides[1] * L, Cell::mul(v, Vec4f(wx * wb.win[1][iy])));
        }
      }
    }
  }
}

template <int DIM, int L>
void lfwd_gather_sse(const cfloat* grid, const std::array<index_t, 3>& strides,
                     const WindowBuf& wb, cfloat* outs) {
  using Cell = SseCell<L>;
  constexpr int last = DIM - 1;
  const int len = wb.len[last];
  __m128 w[WindowBuf::kMaxLen];  // splat weights (uninitialized past len)
  for (int t = 0; t < len; ++t) w[t] = _mm_set1_ps(wb.win[last][t]);
  // Each row's sum is a chain of dependent adds; rows are summed two at a
  // time so the two chains overlap. Each keeps its own order, and the rows
  // are added into the window sum in turn.
  const auto rows = [&](const cfloat* ra, const cfloat* rb, Cell& sa, Cell& sb) {
    sa = Cell::zero();
    sb = Cell::zero();
    for (int t = 0; t < len; ++t) {
      const index_t off = wb.idx[last][t] * L;
      sa = Cell::madd(Cell::load(ra + off), Vec4f(w[t]), sa);
      sb = Cell::madd(Cell::load(rb + off), Vec4f(w[t]), sb);
    }
  };
  const auto row = [&](const cfloat* r) {
    Cell acc = Cell::zero();
    for (int t = 0; t < len; ++t) {
      acc = Cell::madd(Cell::load(r + wb.idx[last][t] * L), Vec4f(w[t]), acc);
    }
    return acc;
  };
  // Rows r(i) weighted by wt(i), i < n, summed in order into acc.
  const auto sweep = [&](Cell& acc, int n, const auto& r, const auto& wt) {
    int i = 0;
    for (; i + 1 < n; i += 2) {
      Cell sa, sb;
      rows(r(i), r(i + 1), sa, sb);
      acc = Cell::madd(sa, Vec4f(wt(i)), acc);
      acc = Cell::madd(sb, Vec4f(wt(i + 1)), acc);
    }
    if (i < n) acc = Cell::madd(row(r(i)), Vec4f(wt(i)), acc);
  };
  if constexpr (DIM == 1) {
    row(grid).store(outs);
  } else {
    Cell acc = Cell::zero();
    if constexpr (DIM == 2) {
      sweep(
          acc, wb.len[0], [&](int i) { return grid + wb.idx[0][i] * strides[0] * L; },
          [&](int i) { return wb.win[0][i]; });
    } else {
      for (int ix = 0; ix < wb.len[0]; ++ix) {
        const cfloat* base = grid + wb.idx[0][ix] * strides[0] * L;
        const float wx = wb.win[0][ix];
        sweep(
            acc, wb.len[1], [&](int i) { return base + wb.idx[1][i] * strides[1] * L; },
            [&](int i) { return wx * wb.win[1][i]; });
      }
    }
    acc.store(outs);
  }
}

template <int DIM, std::size_t... I>
LaneKernels scalar_lane_table(index_t lanes, std::index_sequence<I...>) {
  static constexpr LaneScatterFn kScatter[] = {&ladj_scatter_scalar<DIM, static_cast<int>(I) + 2>...};
  static constexpr LaneGatherFn kGather[] = {&lfwd_gather_scalar<DIM, static_cast<int>(I) + 2>...};
  return {kScatter[lanes - 2], kGather[lanes - 2]};
}

template <int DIM, std::size_t... I>
LaneKernels sse_lane_table(index_t lanes, std::index_sequence<I...>) {
  static constexpr LaneScatterFn kScatter[] = {&ladj_scatter_sse<DIM, static_cast<int>(I) + 2>...};
  static constexpr LaneGatherFn kGather[] = {&lfwd_gather_sse<DIM, static_cast<int>(I) + 2>...};
  return {kScatter[lanes - 2], kGather[lanes - 2]};
}

}  // namespace

template <int DIM>
LaneKernels lane_kernels_scalar(index_t lanes) {
  NUFFT_CHECK(lanes >= 2 && lanes <= kMaxBatch);
  return scalar_lane_table<DIM>(lanes, std::make_index_sequence<kMaxBatch - 1>{});
}

template <int DIM>
LaneKernels lane_kernels_sse(index_t lanes) {
  NUFFT_CHECK(lanes >= 2 && lanes <= kMaxBatch);
  return sse_lane_table<DIM>(lanes, std::make_index_sequence<kMaxBatch - 1>{});
}

template LaneKernels lane_kernels_scalar<1>(index_t);
template LaneKernels lane_kernels_scalar<2>(index_t);
template LaneKernels lane_kernels_scalar<3>(index_t);
template LaneKernels lane_kernels_sse<1>(index_t);
template LaneKernels lane_kernels_sse<2>(index_t);
template LaneKernels lane_kernels_sse<3>(index_t);

}  // namespace nufft
