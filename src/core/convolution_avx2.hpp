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

/// Lane kernels (convolution.hpp contract) for 2 ≤ lanes ≤ kMaxBatch, four
/// lanes per 256-bit op, fused multiply-add.
template <int DIM>
LaneKernels lane_kernels_avx2(index_t lanes);

}  // namespace nufft
