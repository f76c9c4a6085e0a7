// Batched NUFFT: apply one plan to B right-hand sides in a single pass
// (paper §V-E taken to its production conclusion — the cuFINUFFT-style
// multi-vector execution model).
//
// What one batched pass amortizes over B slices, relative to B sequential
// single applies on the same plan:
//
//  * Part 1 of the convolution — each sample's interpolation window is
//    computed once and applied to every slice (the window depends only on
//    the trajectory, not on the data).
//  * The scheduler — one TDG / priority-queue walk convolves all B slices
//    per task, so fork/join and queue traffic are paid once.
//  * Part 2 — the grids are cell-interleaved, so each window cell is one
//    contiguous B-lane vector and the lane kernels (core/convolution.hpp)
//    weight it with whole registers across the batch.
//  * The FFT — pruned to the populated corner rows and run with
//    column-interleaved batched Stockham stages (batch_fft.hpp).
//  * Scale/chop/rolloff — the per-row wrap indices and scale factors are
//    resolved once per grid row, then applied to all B slices.
//
// This class owns only the grid buffers, the chunk loop, the batched FFT
// and the degradation paths. Every pass it runs — scale, convolution
// (the plan's bound dispatch variant, called with the chunk's lane count),
// privatized reduce — is the plan's own implementation (core/nufft.hpp).
//
// Grid layout: a chunk of nb slices is one grid of nb-lane cells — lane b
// of grid cell c at slabs_[c·nb + b], and privatized tasks' boxes likewise.
// At nb = 1 that is exactly the single-transform grid. The batched FFT's
// column stages want each element's lanes side by side anyway, so the
// interleaving costs the FFT nothing and turns its per-element gather into
// one contiguous copy (see DESIGN.md §7).
//
// Concurrency: a BatchNufft owns its grids, so one instance serves one
// caller at a time — it is the batched analogue of a Workspace. The plan is
// only read; any number of BatchNufft instances (and Workspace applies) may
// run concurrently on one plan, each with its own ThreadPool.
//
// Determinism: at nb = 1 every backend runs exactly the single-RHS passes
// (the variants' nb = 1 body, the plan's own FFT), so results are
// bit-identical to Nufft::forward/adjoint under the same schedule. In
// scalar mode (PlanConfig::use_simd = false) with one thread, batched
// results at any nb are bit-identical to nb single applies: the scalar lane
// kernels run each lane's multiplies and adds in the single-grid order, and
// the FFT runs lane by lane through the plan's own transform. At nb ≥ 2 the
// SIMD paths use the batched FFT stages (and, on AVX2, fused multiply-adds)
// and match to rounding (tests pin 1e-5).
#pragma once

#include <memory>
#include <vector>

#include "common/types.hpp"
#include "core/nufft.hpp"
#include "core/stats.hpp"
#include "exec/batch_fft.hpp"

namespace nufft::exec {

class BatchNufft {
 public:
  /// Size the batch buffers for up to `max_batch` slices per pass (clamped
  /// to kMaxBatch, core/convolution.hpp; larger applies are processed in
  /// chunks). The plan must outlive this object.
  BatchNufft(const Nufft& plan, index_t max_batch);
  ~BatchNufft();

  BatchNufft(const BatchNufft&) = delete;
  BatchNufft& operator=(const BatchNufft&) = delete;

  const Nufft& plan() const { return *plan_; }
  index_t max_batch() const { return capacity_; }

  // Pointer-per-slice API: images[b] is an image_elems() array, raws[b] a
  // sample_count() array, b < nb. The pool-less overloads run on the plan's
  // own pool (single caller at a time, like the plan's convenience API);
  // pass an explicit pool for concurrent use.
  void forward(const cfloat* const* images, cfloat* const* raws, index_t nb);
  void forward(const cfloat* const* images, cfloat* const* raws, index_t nb, ThreadPool& pool);
  void adjoint(const cfloat* const* raws, cfloat* const* images, index_t nb);
  void adjoint(const cfloat* const* raws, cfloat* const* images, index_t nb, ThreadPool& pool);

  // Contiguous convenience: slice b at base + b·image_elems() / sample_count().
  void forward(const cfloat* images, cfloat* raws, index_t nb);
  void adjoint(const cfloat* raws, cfloat* images, index_t nb);

  /// Phase timings summed over the batch's chunks of the last apply.
  const OperatorStats& last_forward_stats() const { return fwd_stats_; }
  const OperatorStats& last_adjoint_stats() const { return adj_stats_; }
  const std::vector<TraceEvent>& last_trace() const { return trace_; }

  /// Graceful-degradation state (also mirrored into the per-apply stats):
  /// true once a SIMD-path / privatization-buffer allocation failure has
  /// downgraded this instance to the scalar / direct-scatter path.
  bool simd_downgraded() const { return simd_downgraded_; }
  bool privatization_downgraded() const { return privatization_downgraded_; }

 private:
  void forward_chunk(const cfloat* const* images, cfloat* const* raws, index_t nb,
                     ThreadPool& pool);
  void adjoint_chunk(const cfloat* const* raws, cfloat* const* images, index_t nb,
                     ThreadPool& pool);
  /// Rebind to the scalar variant of the plan's key (sticky), or throw
  /// kResourceExhausted when already scalar.
  void downgrade_to_scalar(const char* direction);

  const Nufft* plan_;
  index_t capacity_ = 0;
  std::size_t slab_elems_ = 0;
  // Effective convolution variant: starts as the plan's binding and is
  // rebound (sticky) to the registry's scalar variant of the same key when a
  // SIMD-path allocation fails mid-apply — the chunk is re-run on the scalar
  // path and the downgrade is recorded in the apply's OperatorStats.
  const ConvVariant* variant_;
  bool simd_downgraded_ = false;
  // Set when the private reduction buffers could not be allocated: spreads
  // run every task through the TDG-serialized direct-scatter path instead.
  bool privatization_downgraded_ = false;
  std::vector<char> privatized_off_;   // all-zero mask used when downgraded
  cvecf slabs_;                        // capacity · grid_elems(), cell-interleaved
  std::vector<cvecf> private_slabs_;   // per privatized task: capacity · box_elems
  BatchFft bfft_;
  OperatorStats fwd_stats_;
  OperatorStats adj_stats_;
  std::vector<TraceEvent> trace_;
};

}  // namespace nufft::exec
