// Batched, pruned row-column FFT over nb cell-interleaved oversampled grids
// (lane b of grid cell c at grids[c·nb + b]).
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
//  * Column-interleaved batched stages. Fft1d::transform_columns wants
//    element k of column j at buf[k·cols + j]; a row of the interleaved
//    grids already holds element k's nb lanes contiguously, so each element
//    is one contiguous copy of blk·nb values (blk adjacent rows × nb lanes).
//    The sub-transform stride starts at the column count: the inner loop
//    runs over contiguous columns sharing one twiddle, four per AVX2
//    register on CPUs that have it.
//
// The per-lane path (scalar convolution backend, or a non-power-of-two
// axis) copies each lane into a scratch grid and runs the plan's
// FftNd::transform_pruned on it, bit-identical to the single-transform path.
// At nb = 1 the grid is the single grid and transform_pruned runs in place.
#pragma once

#include <array>
#include <vector>

#include "common/types.hpp"
#include "core/grid.hpp"
#include "fft/fftnd.hpp"
#include "parallel/thread_pool.hpp"

namespace nufft {

class BatchFft {
 public:
  /// `fwd`/`inv` are the plan's single-transform FFTs, built with the image
  /// support rows; they must outlive this object. The row tables are built
  /// here, and the pass scratch is sized for up to `max_lanes` lanes on
  /// `threads` pool contexts (a wider pool grows it on first use).
  BatchFft(const GridDesc& g, const fft::FftNd<float>& fwd, const fft::FftNd<float>& inv,
           index_t max_lanes, int threads);

  /// In-place transform of nb ≤ max_lanes interleaved grids.
  /// `batched_stages` opts into the SIMD column-interleaved path, which runs
  /// when every axis has a power-of-two length and nb >= 2; otherwise each
  /// lane goes through the plan's FftNd::transform_pruned.
  void transform(cfloat* grids, index_t nb, fft::Direction dir, ThreadPool& pool,
                 bool batched_stages);

  /// Bytes of pass scratch a BatchFft for `max_lanes` lanes on `threads`
  /// contexts allocates at construction.
  static std::size_t scratch_bytes(const GridDesc& g, index_t max_lanes, int threads);

 private:
  /// Up to kRowBlock rows along one axis that are adjacent along the
  /// contiguous grid dimension: the first row's first cell, and the count.
  struct Group {
    index_t base;
    index_t blk;
  };
  static constexpr index_t kRowBlock = 2;

  void axis_pass(cfloat* grids, index_t nb, std::size_t axis, fft::Direction dir,
                 ThreadPool& pool);
  void per_lane(cfloat* grids, index_t nb, const fft::FftNd<float>& plan, ThreadPool& pool);
  /// Column count of a transform over `run` columns: padded (zeroed pad
  /// columns) to the stage width, 4 complex per AVX2 op, 2 per SSE op.
  static std::size_t pad_cols(std::size_t run, bool avx2) {
    const std::size_t pad = avx2 ? 3 : 1;
    return (run + pad) & ~pad;
  }
  /// Per-context scratch elements: ping-pong buffers for the longest axis.
  static std::size_t scratch_elems(const GridDesc& g, index_t max_lanes, bool avx2);

  GridDesc g_;
  std::array<index_t, 3> st_{1, 1, 1};
  index_t cells_ = 0;
  index_t max_lanes_ = 1;
  const fft::FftNd<float>* fwd_;
  const fft::FftNd<float>* inv_;
  bool all_pow2_ = true;
  bool avx2_ = false;
  std::array<std::vector<Group>, 3> groups_;     // per axis: the pass's row groups
  std::size_t scratch_elems_ = 0;                // per context: ping-pong buffers
  std::vector<aligned_vector<cfloat>> scratch_;  // one per pool context
  cvecf lane_;  // the per-lane path's grid, allocated on first use
};

}  // namespace nufft
