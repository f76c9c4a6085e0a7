// This translation unit is compiled with -mavx2 -mfma (see src/CMakeLists).
#include "core/convolution_avx2.hpp"

#include "simd/vec8f.hpp"

namespace nufft {

bool avx2_available() {
#if defined(__GNUC__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

namespace {

// Inner loop over the contiguous last dimension: 4 complex cells per op,
// then a 2-cell SSE-width step, then a scalar remainder.
inline void adj_inner_avx2(cfloat* row, const WindowBuf& wb, int last, cfloat tmp) {
  const int len = wb.len[last];
  if (!wb.inner_contiguous) {
    // Wrapped windows take the indexed path (rare).
    for (int t = 0; t < len; ++t) row[wb.idx[last][t]] += tmp * wb.win[last][t];
    return;
  }
  auto* p = reinterpret_cast<float*>(row + wb.idx[last][0]);
  const simd::Vec8f v = simd::Vec8f::broadcast_complex(tmp.real(), tmp.imag());
  const int quads = len / 4;
  for (int j = 0; j < quads; ++j) {
    const simd::Vec8f w = simd::Vec8f::load(wb.win_dup + 8 * j);
    simd::fmadd(v, w, simd::Vec8f::loadu(p + 8 * j)).storeu(p + 8 * j);
  }
  for (int t = 4 * quads; t < len; ++t) {
    row[wb.idx[last][0] + t] += tmp * wb.win[last][t];
  }
}

inline cfloat fwd_inner_avx2(const cfloat* row, const WindowBuf& wb, int last) {
  const int len = wb.len[last];
  if (!wb.inner_contiguous) {
    cfloat acc(0.0f, 0.0f);
    for (int t = 0; t < len; ++t) acc += row[wb.idx[last][t]] * wb.win[last][t];
    return acc;
  }
  const auto* p = reinterpret_cast<const float*>(row + wb.idx[last][0]);
  simd::Vec8f acc = simd::Vec8f::zero();
  const int quads = len / 4;
  for (int j = 0; j < quads; ++j) {
    const simd::Vec8f w = simd::Vec8f::load(wb.win_dup + 8 * j);
    acc = simd::fmadd(simd::Vec8f::loadu(p + 8 * j), w, acc);
  }
  float re = 0.0f, im = 0.0f;
  acc.hsum_complex(re, im);
  cfloat out(re, im);
  for (int t = 4 * quads; t < len; ++t) {
    out += row[wb.idx[last][0] + t] * wb.win[last][t];
  }
  return out;
}

}  // namespace

template <int DIM>
void adj_scatter_avx2(cfloat* grid, const std::array<index_t, 3>& strides, const WindowBuf& wb,
                      cfloat val) {
  constexpr int last = DIM - 1;
  if constexpr (DIM == 1) {
    adj_inner_avx2(grid, wb, last, val);
  } else if constexpr (DIM == 2) {
    for (int iy = 0; iy < wb.len[0]; ++iy) {
      adj_inner_avx2(grid + wb.idx[0][iy] * strides[0], wb, last, val * wb.win[0][iy]);
    }
  } else {
    for (int ix = 0; ix < wb.len[0]; ++ix) {
      cfloat* base = grid + wb.idx[0][ix] * strides[0];
      const float wx = wb.win[0][ix];
      for (int iy = 0; iy < wb.len[1]; ++iy) {
        const float wxy = wx * wb.win[1][iy];
        adj_inner_avx2(base + wb.idx[1][iy] * strides[1], wb, last, val * wxy);
      }
    }
  }
}

template <int DIM>
cfloat fwd_gather_avx2(const cfloat* grid, const std::array<index_t, 3>& strides,
                       const WindowBuf& wb) {
  constexpr int last = DIM - 1;
  if constexpr (DIM == 1) {
    return fwd_inner_avx2(grid, wb, last);
  } else if constexpr (DIM == 2) {
    cfloat acc(0.0f, 0.0f);
    for (int iy = 0; iy < wb.len[0]; ++iy) {
      acc += fwd_inner_avx2(grid + wb.idx[0][iy] * strides[0], wb, last) * wb.win[0][iy];
    }
    return acc;
  } else {
    cfloat acc(0.0f, 0.0f);
    for (int ix = 0; ix < wb.len[0]; ++ix) {
      const cfloat* base = grid + wb.idx[0][ix] * strides[0];
      const float wx = wb.win[0][ix];
      for (int iy = 0; iy < wb.len[1]; ++iy) {
        const float wxy = wx * wb.win[1][iy];
        acc += fwd_inner_avx2(base + wb.idx[1][iy] * strides[1], wb, last) * wxy;
      }
    }
    return acc;
  }
}

template void adj_scatter_avx2<1>(cfloat*, const std::array<index_t, 3>&, const WindowBuf&, cfloat);
template void adj_scatter_avx2<2>(cfloat*, const std::array<index_t, 3>&, const WindowBuf&, cfloat);
template void adj_scatter_avx2<3>(cfloat*, const std::array<index_t, 3>&, const WindowBuf&, cfloat);
template cfloat fwd_gather_avx2<1>(const cfloat*, const std::array<index_t, 3>&, const WindowBuf&);
template cfloat fwd_gather_avx2<2>(const cfloat*, const std::array<index_t, 3>&, const WindowBuf&);
template cfloat fwd_gather_avx2<3>(const cfloat*, const std::array<index_t, 3>&, const WindowBuf&);

// ---- multi-slab kernels (batched applies): weight vectors hoisted out of
// the slice loop exactly as in the SSE versions (convolution.cpp) ----

namespace {

using simd::Vec8f;

inline void badj_row_avx2(cfloat* row0, std::size_t sstride, index_t nb, const WindowBuf& wb,
                          int last, float wxy, const Vec8f* vsplat, const cfloat* vals) {
  const int len = wb.len[last];
  if (!wb.inner_contiguous) {
    for (index_t b = 0; b < nb; ++b) {
      cfloat* row = row0 + sstride * static_cast<std::size_t>(b);
      const cfloat tmp = vals[b] * wxy;
      for (int t = 0; t < len; ++t) row[wb.idx[last][t]] += tmp * wb.win[last][t];
    }
    return;
  }
  const int quads = len / 4;
  const int rem = len - 4 * quads;
  const Vec8f wxyv(wxy);
  Vec8f wv[WindowBuf::kMaxLen / 4 + 1];
  for (int j = 0; j < quads; ++j) wv[j] = Vec8f::load(wb.win_dup + 8 * j) * wxyv;
  float wtail[3];
  for (int t = 0; t < rem; ++t) wtail[t] = wxy * wb.win[last][4 * quads + t];
  cfloat* cell0 = row0 + wb.idx[last][0];
  for (index_t b = 0; b < nb; ++b) {
    cfloat* cell = cell0 + sstride * static_cast<std::size_t>(b);
    auto* p = reinterpret_cast<float*>(cell);
    for (int j = 0; j < quads; ++j) {
      simd::fmadd(vsplat[b], wv[j], Vec8f::loadu(p + 8 * j)).storeu(p + 8 * j);
    }
    for (int t = 0; t < rem; ++t) cell[4 * quads + t] += vals[b] * wtail[t];
  }
}

inline void bfwd_row_avx2(const cfloat* row0, std::size_t sstride, index_t nb,
                          const WindowBuf& wb, int last, float wxy, Vec8f* accs,
                          cfloat* touts) {
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
  const int quads = len / 4;
  const int rem = len - 4 * quads;
  const Vec8f wxyv(wxy);
  Vec8f wv[WindowBuf::kMaxLen / 4 + 1];
  for (int j = 0; j < quads; ++j) wv[j] = Vec8f::load(wb.win_dup + 8 * j) * wxyv;
  float wtail[3];
  for (int t = 0; t < rem; ++t) wtail[t] = wxy * wb.win[last][4 * quads + t];
  const cfloat* cell0 = row0 + wb.idx[last][0];
  for (index_t b = 0; b < nb; ++b) {
    const cfloat* cell = cell0 + sstride * static_cast<std::size_t>(b);
    const auto* p = reinterpret_cast<const float*>(cell);
    Vec8f acc = accs[b];
    for (int j = 0; j < quads; ++j) acc = simd::fmadd(Vec8f::loadu(p + 8 * j), wv[j], acc);
    accs[b] = acc;
    for (int t = 0; t < rem; ++t) touts[b] += cell[4 * quads + t] * wtail[t];
  }
}

}  // namespace

template <int DIM>
void badj_scatter_avx2(cfloat* slab0, std::size_t sstride, index_t nb,
                       const std::array<index_t, 3>& strides, const WindowBuf& wb,
                       const cfloat* vals) {
  constexpr int last = DIM - 1;
  Vec8f vsplat[kMaxBatch];
  for (index_t b = 0; b < nb; ++b) {
    vsplat[b] = Vec8f::broadcast_complex(vals[b].real(), vals[b].imag());
  }
  if constexpr (DIM == 1) {
    badj_row_avx2(slab0, sstride, nb, wb, last, 1.0f, vsplat, vals);
  } else if constexpr (DIM == 2) {
    for (int iy = 0; iy < wb.len[0]; ++iy) {
      badj_row_avx2(slab0 + wb.idx[0][iy] * strides[0], sstride, nb, wb, last, wb.win[0][iy],
                    vsplat, vals);
    }
  } else {
    for (int ix = 0; ix < wb.len[0]; ++ix) {
      cfloat* base = slab0 + wb.idx[0][ix] * strides[0];
      const float wx = wb.win[0][ix];
      for (int iy = 0; iy < wb.len[1]; ++iy) {
        badj_row_avx2(base + wb.idx[1][iy] * strides[1], sstride, nb, wb, last,
                      wx * wb.win[1][iy], vsplat, vals);
      }
    }
  }
}

template <int DIM>
void bfwd_gather_avx2(const cfloat* slab0, std::size_t sstride, index_t nb,
                      const std::array<index_t, 3>& strides, const WindowBuf& wb,
                      cfloat* outs) {
  constexpr int last = DIM - 1;
  Vec8f accs[kMaxBatch];
  cfloat touts[kMaxBatch];
  for (index_t b = 0; b < nb; ++b) touts[b] = cfloat(0.0f, 0.0f);
  if constexpr (DIM == 1) {
    bfwd_row_avx2(slab0, sstride, nb, wb, last, 1.0f, accs, touts);
  } else if constexpr (DIM == 2) {
    for (int iy = 0; iy < wb.len[0]; ++iy) {
      bfwd_row_avx2(slab0 + wb.idx[0][iy] * strides[0], sstride, nb, wb, last, wb.win[0][iy],
                    accs, touts);
    }
  } else {
    for (int ix = 0; ix < wb.len[0]; ++ix) {
      const cfloat* base = slab0 + wb.idx[0][ix] * strides[0];
      const float wx = wb.win[0][ix];
      for (int iy = 0; iy < wb.len[1]; ++iy) {
        bfwd_row_avx2(base + wb.idx[1][iy] * strides[1], sstride, nb, wb, last,
                      wx * wb.win[1][iy], accs, touts);
      }
    }
  }
  for (index_t b = 0; b < nb; ++b) {
    float re = 0.0f, im = 0.0f;
    accs[b].hsum_complex(re, im);
    outs[b] = cfloat(re, im) + touts[b];
  }
}

template void badj_scatter_avx2<1>(cfloat*, std::size_t, index_t, const std::array<index_t, 3>&,
                                   const WindowBuf&, const cfloat*);
template void badj_scatter_avx2<2>(cfloat*, std::size_t, index_t, const std::array<index_t, 3>&,
                                   const WindowBuf&, const cfloat*);
template void badj_scatter_avx2<3>(cfloat*, std::size_t, index_t, const std::array<index_t, 3>&,
                                   const WindowBuf&, const cfloat*);
template void bfwd_gather_avx2<1>(const cfloat*, std::size_t, index_t,
                                  const std::array<index_t, 3>&, const WindowBuf&, cfloat*);
template void bfwd_gather_avx2<2>(const cfloat*, std::size_t, index_t,
                                  const std::array<index_t, 3>&, const WindowBuf&, cfloat*);
template void bfwd_gather_avx2<3>(const cfloat*, std::size_t, index_t,
                                  const std::array<index_t, 3>&, const WindowBuf&, cfloat*);

}  // namespace nufft
