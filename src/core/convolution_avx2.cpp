// This translation unit is compiled with -mavx2 -mfma (see src/CMakeLists).
#include "core/convolution_avx2.hpp"

#include <immintrin.h>

#include <utility>

#include "common/error.hpp"
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

// ---- lane kernels (batched applies, cell-interleaved grids): the SSE
// kernels' loop structure (convolution.cpp) with four lanes per 256-bit
// register and FMA ----

namespace {

// The L lanes of one cell: L/4 256-bit quads, then a 128-bit pair and a
// 64-bit single for the remainder.
template <int L>
struct AvxCell {
  static constexpr int kQuads = L / 4;
  static constexpr bool kPair = (L % 4) >= 2;
  static constexpr bool kSingle = (L % 2) != 0;
  static constexpr int kOffPair = 8 * kQuads;                  // float offsets
  static constexpr int kOffSingle = kOffPair + (kPair ? 4 : 0);
  __m256 q[kQuads > 0 ? kQuads : 1] = {};
  __m128 p = {};
  __m128 s = {};

  static AvxCell load(const cfloat* c) {
    AvxCell x;
    const auto* f = reinterpret_cast<const float*>(c);
#pragma GCC unroll 4
    for (int j = 0; j < kQuads; ++j) x.q[j] = _mm256_loadu_ps(f + 8 * j);
    if constexpr (kPair) x.p = _mm_loadu_ps(f + kOffPair);
    if constexpr (kSingle) {
      x.s = _mm_loadl_pi(_mm_setzero_ps(), reinterpret_cast<const __m64*>(f + kOffSingle));
    }
    return x;
  }
  void store(cfloat* c) const {
    auto* f = reinterpret_cast<float*>(c);
#pragma GCC unroll 4
    for (int j = 0; j < kQuads; ++j) _mm256_storeu_ps(f + 8 * j, q[j]);
    if constexpr (kPair) _mm_storeu_ps(f + kOffPair, p);
    if constexpr (kSingle) _mm_storel_pi(reinterpret_cast<__m64*>(f + kOffSingle), s);
  }
  static AvxCell zero() { return AvxCell{}; }
  /// a·w + c per lane, fused.
  static AvxCell fmadd(const AvxCell& a, __m256 w, const AvxCell& c) {
    AvxCell x;
    const __m128 w4 = _mm256_castps256_ps128(w);
#pragma GCC unroll 4
    for (int j = 0; j < kQuads; ++j) x.q[j] = _mm256_fmadd_ps(a.q[j], w, c.q[j]);
    if constexpr (kPair) x.p = _mm_fmadd_ps(a.p, w4, c.p);
    if constexpr (kSingle) x.s = _mm_fmadd_ps(a.s, w4, c.s);
    return x;
  }
  static AvxCell mul(const AvxCell& a, __m256 w) {
    AvxCell x;
    const __m128 w4 = _mm256_castps256_ps128(w);
#pragma GCC unroll 4
    for (int j = 0; j < kQuads; ++j) x.q[j] = _mm256_mul_ps(a.q[j], w);
    if constexpr (kPair) x.p = _mm_mul_ps(a.p, w4);
    if constexpr (kSingle) x.s = _mm_mul_ps(a.s, w4);
    return x;
  }
};

template <int DIM, int L>
void ladj_scatter_avx2(cfloat* grid, const std::array<index_t, 3>& strides, const WindowBuf& wb,
                       const cfloat* vals) {
  using Cell = AvxCell<L>;
  constexpr int last = DIM - 1;
  const int len = wb.len[last];
  __m256 w[WindowBuf::kMaxLen];
  for (int t = 0; t < len; ++t) w[t] = _mm256_set1_ps(wb.win[last][t]);
  const auto row = [&](cfloat* r, const Cell& tmp) {
    for (int t = 0; t < len; ++t) {
      cfloat* cell = r + wb.idx[last][t] * L;
      Cell::fmadd(tmp, w[t], Cell::load(cell)).store(cell);
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
        row(base, Cell::mul(v, _mm256_set1_ps(wx)));
      } else {
        for (int iy = 0; iy < wb.len[1]; ++iy) {
          row(base + wb.idx[1][iy] * strides[1] * L,
              Cell::mul(v, _mm256_set1_ps(wx * wb.win[1][iy])));
        }
      }
    }
  }
}

template <int DIM, int L>
void lfwd_gather_avx2(const cfloat* grid, const std::array<index_t, 3>& strides,
                      const WindowBuf& wb, cfloat* outs) {
  using Cell = AvxCell<L>;
  constexpr int last = DIM - 1;
  const int len = wb.len[last];
  __m256 w[WindowBuf::kMaxLen];
  for (int t = 0; t < len; ++t) w[t] = _mm256_set1_ps(wb.win[last][t]);
  // Rows summed two at a time so their dependent chains overlap (as in the
  // SSE kernel).
  const auto rows = [&](const cfloat* ra, const cfloat* rb, Cell& sa, Cell& sb) {
    sa = Cell::zero();
    sb = Cell::zero();
    for (int t = 0; t < len; ++t) {
      const index_t off = wb.idx[last][t] * L;
      sa = Cell::fmadd(Cell::load(ra + off), w[t], sa);
      sb = Cell::fmadd(Cell::load(rb + off), w[t], sb);
    }
  };
  const auto row = [&](const cfloat* r) {
    Cell acc = Cell::zero();
    for (int t = 0; t < len; ++t) {
      acc = Cell::fmadd(Cell::load(r + wb.idx[last][t] * L), w[t], acc);
    }
    return acc;
  };
  const auto sweep = [&](Cell& acc, int n, const auto& r, const auto& wt) {
    int i = 0;
    for (; i + 1 < n; i += 2) {
      Cell sa, sb;
      rows(r(i), r(i + 1), sa, sb);
      acc = Cell::fmadd(sa, _mm256_set1_ps(wt(i)), acc);
      acc = Cell::fmadd(sb, _mm256_set1_ps(wt(i + 1)), acc);
    }
    if (i < n) acc = Cell::fmadd(row(r(i)), _mm256_set1_ps(wt(i)), acc);
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
LaneKernels avx2_lane_table(index_t lanes, std::index_sequence<I...>) {
  static constexpr LaneScatterFn kScatter[] = {&ladj_scatter_avx2<DIM, static_cast<int>(I) + 2>...};
  static constexpr LaneGatherFn kGather[] = {&lfwd_gather_avx2<DIM, static_cast<int>(I) + 2>...};
  return {kScatter[lanes - 2], kGather[lanes - 2]};
}

}  // namespace

template <int DIM>
LaneKernels lane_kernels_avx2(index_t lanes) {
  NUFFT_CHECK(lanes >= 2 && lanes <= kMaxBatch);
  return avx2_lane_table<DIM>(lanes, std::make_index_sequence<kMaxBatch - 1>{});
}

template LaneKernels lane_kernels_avx2<1>(index_t);
template LaneKernels lane_kernels_avx2<2>(index_t);
template LaneKernels lane_kernels_avx2<3>(index_t);

}  // namespace nufft
