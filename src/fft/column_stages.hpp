// Internal: Stockham stages over column-interleaved data, the kernels behind
// Fft1d::transform_columns.
//
// Layout: `cols` independent sequences stored element-interleaved, element k
// of column c at buf[k·cols + c]. Starting the sub-transform stride at
// `cols` instead of 1 makes fft1d.cpp's Stockham recurrence transform every
// column at once, and the inner loop then runs over contiguous columns that
// share one twiddle, which vectorizes.
//
//  * The SSE stages (column_stages.cpp) perform exactly the multiplies and
//    adds of the scalar stages, so each column's result is bit-identical to
//    Fft1d::transform on that row. `sc` must be even (two complex per op).
//  * The AVX2+FMA stages (column_stages_avx2.cpp, the only TU compiled with
//    -mavx2 -mfma) fuse the twiddle multiply, so they round differently.
//    `sc` must be a multiple of 4; gate on avx2_available().
#pragma once

#include <cstddef>

#include "common/types.hpp"

namespace nufft::fft {

void stage2_cols(const cfloat* src, cfloat* dst, std::size_t nn, std::size_t sc,
                 const cfloat* tw);
void stage4_cols(const cfloat* src, cfloat* dst, std::size_t nn, std::size_t sc,
                 const cfloat* tw, int sign);

void stage2_cols_avx2(const cfloat* src, cfloat* dst, std::size_t nn, std::size_t sc,
                      const cfloat* tw);
void stage4_cols_avx2(const cfloat* src, cfloat* dst, std::size_t nn, std::size_t sc,
                      const cfloat* tw, int sign);

}  // namespace nufft::fft
