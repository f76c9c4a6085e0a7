// Batched, pruned row-column FFT over B slab-contiguous oversampled grids.
//
//  * Pruning. The NUFFT only populates (forward) or reads back (adjoint) the
//    zero-pad "corner" rows of the oversampled grid — the wrapped image
//    indices [0, n−n/2) ∪ [m−n/2, m) per dimension, which the plan's FftNd
//    carries as its support rows. Forward passes restrict the
//    not-yet-transformed row coordinates to those corners (every skipped row
//    is exactly zero); adjoint passes restrict the already-transformed
//    coordinates (non-corner outputs are never read by grid_to_image). At
//    α = 2 in 3D this drops the row count to (¼ + ½ + 1)/3 ≈ 58%.
//
//  * Column-interleaved batched stages. For each row position, the B rows —
//    one per slice — are gathered element-interleaved (element k of slice b
//    at buf[k·B + b]) and pushed through Fft1d::transform_columns, whose
//    sub-transform stride starts at B instead of 1: the inner loop runs over
//    B contiguous complex values sharing one twiddle, four slices per AVX2
//    register on CPUs that have it.
//
// The per-slab path (conv_mode kScalar, a non-pow2 axis, or B = 1) instead
// runs FftNd::transform_pruned once per slab, making batched results
// bit-identical to the single-transform path.
#pragma once

#include <array>
#include <vector>

#include "common/types.hpp"
#include "core/grid.hpp"
#include "fft/fftnd.hpp"
#include "parallel/thread_pool.hpp"

namespace nufft::exec {

class BatchFft {
 public:
  /// `fwd`/`inv` are the plan's single-transform FFTs, built with the image
  /// support rows; they must outlive this object.
  BatchFft(const GridDesc& g, const fft::FftNd<float>& fwd, const fft::FftNd<float>& inv);

  /// In-place transform of nb slabs (slab b at slabs + b·grid_elems()).
  /// `batched_stages` opts into the SIMD column-interleaved path, which runs
  /// when every axis has a power-of-two length and nb >= 2; otherwise each
  /// slab goes through the plan's FftNd::transform_pruned.
  void transform(cfloat* slabs, index_t nb, fft::Direction dir, ThreadPool& pool,
                 bool batched_stages) const;

 private:
  void axis_pass(cfloat* slabs, index_t nb, std::size_t axis, fft::Direction dir,
                 ThreadPool& pool) const;

  GridDesc g_;
  std::array<std::vector<index_t>, 3> full_;
  std::array<index_t, 3> st_{1, 1, 1};
  index_t slab_elems_ = 0;
  const fft::FftNd<float>* fwd_;
  const fft::FftNd<float>* inv_;
  bool all_pow2_ = true;
  bool avx2_ = false;
};

}  // namespace nufft::exec
