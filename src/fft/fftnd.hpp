// Multi-dimensional complex FFT via the row-column method, parallelized over
// rows with the thread pool. Handles any rank >= 1 and any per-axis length
// (power-of-two lengths take the Stockham path, others Bluestein).
//
// Data layout is row-major: dims = {n0, n1, ..., nd-1} with the last axis
// contiguous, matching the NUFFT grid layout (z fastest).
//
// Power-of-two axes run as column-blocked passes: up to kRowBlock rows that
// are adjacent along the nearest other dimension are gathered
// element-interleaved and transformed together by Fft1d::transform_columns.
// On a strided axis each gathered element is then a whole cache line of
// neighbouring rows instead of one 8-byte value per line. Every row's result
// is bit-identical to running that row through Fft1d::transform, so the
// blocking never changes an output bit. Other axes run row by row.
//
// Zero-pad pruning: the NUFFT populates (forward) or reads back (inverse)
// only the image-support cells of its oversampled grid. A plan built with
// per-dimension support rows offers transform_pruned(), which skips every
// row the caller's contract makes dead (see there).
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

#include "common/types.hpp"
#include "fft/fft1d.hpp"
#include "parallel/thread_pool.hpp"

namespace nufft::fft {

template <class T>
class FftNd {
 public:
  /// `support` (optional) holds one sorted, duplicate-free list of indices
  /// per dimension; their product S = S0 × S1 × … is the box
  /// transform_pruned() works on. Empty means every index of every dimension.
  /// The row tables of both the full and the pruned walk are built here, so
  /// a transform allocates only per-context scratch.
  FftNd(std::vector<std::size_t> dims, Direction dir,
        std::vector<std::vector<index_t>> support = {});

  const std::vector<std::size_t>& dims() const { return dims_; }
  Direction direction() const { return dir_; }

  /// Total number of elements.
  std::size_t total() const { return total_; }

  /// In-place unnormalized transform of `data` (total() elements).
  void transform(std::complex<T>* data, ThreadPool& pool) const;

  /// Single-threaded convenience overload.
  void transform(std::complex<T>* data) const;

  /// In-place transform that skips the rows outside the support box S:
  ///   forward — `data` must be zero outside S. Rows whose untransformed
  ///     coordinates leave S are all zero and stay so; the result equals
  ///     transform() (==) on every cell.
  ///   inverse — rows whose transformed coordinates leave S are never
  ///     needed; the result is bit-identical to transform() on the cells of
  ///     S only, and the other cells hold partial transforms.
  void transform_pruned(std::complex<T>* data, ThreadPool& pool) const;

  /// One pass of the row-column walk: transform every row along `axis`
  /// (pruned: only the rows transform_pruned() visits in that pass).
  /// transform() and transform_pruned() run the passes for axes rank−1 … 0
  /// in turn; a single pass is public so benches can time each one.
  void transform_pass(std::complex<T>* data, std::size_t axis, bool pruned,
                      ThreadPool& pool) const;

  /// The support rows of `axis` (all indices when built without support).
  const std::vector<index_t>& support(std::size_t axis) const { return support_[axis].rows; }

  /// The 1D plan used for `axis` — lets batched drivers (BatchFft)
  /// run its stages on their own row layouts.
  const Fft1d<T>& axis_plan(std::size_t axis) const { return plans_[axis]; }

 private:
  /// A run of up to kRowBlock consecutive indices of one dimension.
  struct Block {
    index_t start;
    index_t len;
  };
  /// The rows a pass visits along one dimension, and the same rows cut
  /// into blocks.
  struct Rows {
    std::vector<index_t> rows;
    std::vector<Block> blocks;
  };

  std::vector<std::size_t> dims_;
  Direction dir_;
  std::size_t total_;
  std::vector<index_t> strides_;
  std::vector<Fft1d<T>> plans_;
  std::vector<Rows> full_;     // per dimension: every index
  std::vector<Rows> support_;  // per dimension: the support rows
};

}  // namespace nufft::fft
