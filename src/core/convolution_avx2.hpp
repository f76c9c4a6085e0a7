// AVX2 convolution kernels (the paper's wider-SIMD extension).
//
// Same contract as the SSE kernels in convolution.hpp, but processing four
// interleaved complex grid cells per 256-bit operation with FMA. Available
// only when the CPU supports AVX2+FMA — query avx2_available() before
// dispatching; calling these on an older CPU is undefined (SIGILL).
#pragma once

#include <array>
#include <cstddef>

#include "common/types.hpp"
#include "core/convolution.hpp"
#include "core/grid.hpp"

namespace nufft {

/// True when this process may execute the AVX2 kernels.
bool avx2_available();

template <int DIM>
void adj_scatter_avx2(cfloat* grid, const std::array<index_t, 3>& strides, const WindowBuf& wb,
                      cfloat val);

template <int DIM>
cfloat fwd_gather_avx2(const cfloat* grid, const std::array<index_t, 3>& strides,
                       const WindowBuf& wb);

/// Multi-slab variants (convolution.hpp contract), four complex cells per
/// 256-bit op.
template <int DIM>
void badj_scatter_avx2(cfloat* slab0, std::size_t slab_stride, index_t nb,
                       const std::array<index_t, 3>& strides, const WindowBuf& wb,
                       const cfloat* vals);

template <int DIM>
void bfwd_gather_avx2(const cfloat* slab0, std::size_t slab_stride, index_t nb,
                      const std::array<index_t, 3>& strides, const WindowBuf& wb, cfloat* outs);

}  // namespace nufft
