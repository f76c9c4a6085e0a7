#include "core/convolution.hpp"

#include <algorithm>
#include <cmath>

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

// ---- multi-slab kernels (batched applies) ----

namespace {

using simd::Vec4f;

// One weighted row, scattered into all nb slabs. The weight vectors
// win_dup·wxy are built once and reused across the slice loop; the single
// kernels rebuild them for every apply.
inline void badj_row_sse(cfloat* row0, std::size_t sstride, index_t nb, const WindowBuf& wb,
                         int last, float wxy, const Vec4f* vsplat, const cfloat* vals) {
  const int len = wb.len[last];
  if (!wb.inner_contiguous) {
    // Wrapped windows take the indexed path (boundary samples only).
    for (index_t b = 0; b < nb; ++b) {
      cfloat* row = row0 + sstride * static_cast<std::size_t>(b);
      const cfloat tmp = vals[b] * wxy;
      for (int t = 0; t < len; ++t) row[wb.idx[last][t]] += tmp * wb.win[last][t];
    }
    return;
  }
  const int pairs = len / 2;
  const Vec4f wxyv(wxy);
  Vec4f wv[WindowBuf::kMaxLen / 2];
  for (int j = 0; j < pairs; ++j) wv[j] = Vec4f::load(wb.win_dup + 4 * j) * wxyv;
  const bool odd = (len & 1) != 0;
  const float wt = odd ? wxy * wb.win[last][len - 1] : 0.0f;
  cfloat* cell0 = row0 + wb.idx[last][0];
  for (index_t b = 0; b < nb; ++b) {
    cfloat* cell = cell0 + sstride * static_cast<std::size_t>(b);
    auto* p = reinterpret_cast<float*>(cell);
    for (int j = 0; j < pairs; ++j) {
      simd::madd(vsplat[b], wv[j], Vec4f::loadu(p + 4 * j)).storeu(p + 4 * j);
    }
    if (odd) cell[len - 1] += vals[b] * wt;
  }
}

// One weighted row, gathered from all nb slabs into the per-slice vector
// accumulators (pair-summed by the caller). Odd-tail and wrapped-window
// contributions go to the scalar accumulators `touts`.
inline void bfwd_row_sse(const cfloat* row0, std::size_t sstride, index_t nb,
                         const WindowBuf& wb, int last, float wxy, Vec4f* accs, cfloat* touts) {
  const int len = wb.len[last];
  if (!wb.inner_contiguous) {
    for (index_t b = 0; b < nb; ++b) {
      const cfloat* row = row0 + sstride * static_cast<std::size_t>(b);
      cfloat acc(0.0f, 0.0f);
      for (int t = 0; t < len; ++t) acc += row[wb.idx[last][t]] * wb.win[last][t];
      touts[b] += acc * wxy;
    }
    return;
  }
  const int pairs = len / 2;
  const Vec4f wxyv(wxy);
  Vec4f wv[WindowBuf::kMaxLen / 2];
  for (int j = 0; j < pairs; ++j) wv[j] = Vec4f::load(wb.win_dup + 4 * j) * wxyv;
  const bool odd = (len & 1) != 0;
  const float wt = odd ? wxy * wb.win[last][len - 1] : 0.0f;
  const cfloat* cell0 = row0 + wb.idx[last][0];
  for (index_t b = 0; b < nb; ++b) {
    const cfloat* cell = cell0 + sstride * static_cast<std::size_t>(b);
    const auto* p = reinterpret_cast<const float*>(cell);
    Vec4f acc = accs[b];
    for (int j = 0; j < pairs; ++j) acc = simd::madd(Vec4f::loadu(p + 4 * j), wv[j], acc);
    accs[b] = acc;
    if (odd) touts[b] += cell[len - 1] * wt;
  }
}

}  // namespace

template <int DIM>
void badj_scatter_sse(cfloat* slab0, std::size_t sstride, index_t nb,
                      const std::array<index_t, 3>& strides, const WindowBuf& wb,
                      const cfloat* vals) {
  constexpr int last = DIM - 1;
  Vec4f vsplat[kMaxBatch];
  for (index_t b = 0; b < nb; ++b) {
    vsplat[b] = Vec4f(vals[b].real(), vals[b].imag(), vals[b].real(), vals[b].imag());
  }
  if constexpr (DIM == 1) {
    badj_row_sse(slab0, sstride, nb, wb, last, 1.0f, vsplat, vals);
  } else if constexpr (DIM == 2) {
    for (int iy = 0; iy < wb.len[0]; ++iy) {
      badj_row_sse(slab0 + wb.idx[0][iy] * strides[0], sstride, nb, wb, last, wb.win[0][iy],
                   vsplat, vals);
    }
  } else {
    for (int ix = 0; ix < wb.len[0]; ++ix) {
      cfloat* base = slab0 + wb.idx[0][ix] * strides[0];
      const float wx = wb.win[0][ix];
      for (int iy = 0; iy < wb.len[1]; ++iy) {
        badj_row_sse(base + wb.idx[1][iy] * strides[1], sstride, nb, wb, last,
                     wx * wb.win[1][iy], vsplat, vals);
      }
    }
  }
}

template <int DIM>
void bfwd_gather_sse(const cfloat* slab0, std::size_t sstride, index_t nb,
                     const std::array<index_t, 3>& strides, const WindowBuf& wb, cfloat* outs) {
  constexpr int last = DIM - 1;
  Vec4f accs[kMaxBatch];
  cfloat touts[kMaxBatch];
  for (index_t b = 0; b < nb; ++b) touts[b] = cfloat(0.0f, 0.0f);
  if constexpr (DIM == 1) {
    bfwd_row_sse(slab0, sstride, nb, wb, last, 1.0f, accs, touts);
  } else if constexpr (DIM == 2) {
    for (int iy = 0; iy < wb.len[0]; ++iy) {
      bfwd_row_sse(slab0 + wb.idx[0][iy] * strides[0], sstride, nb, wb, last, wb.win[0][iy],
                   accs, touts);
    }
  } else {
    for (int ix = 0; ix < wb.len[0]; ++ix) {
      const cfloat* base = slab0 + wb.idx[0][ix] * strides[0];
      const float wx = wb.win[0][ix];
      for (int iy = 0; iy < wb.len[1]; ++iy) {
        bfwd_row_sse(base + wb.idx[1][iy] * strides[1], sstride, nb, wb, last,
                     wx * wb.win[1][iy], accs, touts);
      }
    }
  }
  for (index_t b = 0; b < nb; ++b) {
    const Vec4f ps = accs[b].hsum_complex_pairs();
    outs[b] = cfloat(ps[0], ps[1]) + touts[b];
  }
}

template void badj_scatter_sse<1>(cfloat*, std::size_t, index_t, const std::array<index_t, 3>&,
                                  const WindowBuf&, const cfloat*);
template void badj_scatter_sse<2>(cfloat*, std::size_t, index_t, const std::array<index_t, 3>&,
                                  const WindowBuf&, const cfloat*);
template void badj_scatter_sse<3>(cfloat*, std::size_t, index_t, const std::array<index_t, 3>&,
                                  const WindowBuf&, const cfloat*);
template void bfwd_gather_sse<1>(const cfloat*, std::size_t, index_t,
                                 const std::array<index_t, 3>&, const WindowBuf&, cfloat*);
template void bfwd_gather_sse<2>(const cfloat*, std::size_t, index_t,
                                 const std::array<index_t, 3>&, const WindowBuf&, cfloat*);
template void bfwd_gather_sse<3>(const cfloat*, std::size_t, index_t,
                                 const std::array<index_t, 3>&, const WindowBuf&, cfloat*);

}  // namespace nufft
