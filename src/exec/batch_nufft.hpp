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
// This class is a thin owner of one L-lane Workspace: every pass, the
// batched FFT and the chunk loop are the plan's one apply driver
// (Nufft::forward/adjoint over nb slices, core/nufft.hpp), and this class
// adds only the plan-pool and contiguous-slice convenience overloads.
//
// Grid layout: a chunk of nb slices is one grid of nb-lane cells — lane b
// of grid cell c at offset c·nb + b, and privatized tasks' boxes likewise.
// At nb = 1 that is exactly the single-transform grid. The batched FFT's
// column stages want each element's lanes side by side anyway, so the
// interleaving costs the FFT nothing and turns its per-element gather into
// one contiguous copy (see DESIGN.md §7).
//
// Concurrency: a BatchNufft owns its workspace, so one instance serves one
// caller at a time. The plan is only read; any number of BatchNufft
// instances (and Workspace applies) may run concurrently on one plan, each
// with its own ThreadPool.
//
// Determinism: at nb = 1 an apply is the single-RHS apply. In scalar mode
// (PlanConfig::use_simd = false) with one thread, batched results at any nb
// are bit-identical to nb single applies: the scalar lane kernels run each
// lane's multiplies and adds in the single-grid order, and the FFT runs
// lane by lane through the plan's own transform. At nb ≥ 2 the SIMD paths
// use the batched FFT stages (and, on AVX2, fused multiply-adds) and match
// to rounding (tests pin 1e-5).
#pragma once

#include <vector>

#include "common/types.hpp"
#include "core/nufft.hpp"
#include "core/stats.hpp"

namespace nufft::exec {

class BatchNufft {
 public:
  /// Size the workspace for up to `max_batch` slices per pass (clamped to
  /// kMaxBatch, core/convolution.hpp; larger applies are processed in
  /// chunks). The plan must outlive this object.
  BatchNufft(const Nufft& plan, index_t max_batch);

  BatchNufft(const BatchNufft&) = delete;
  BatchNufft& operator=(const BatchNufft&) = delete;

  const Nufft& plan() const { return *plan_; }
  index_t max_batch() const { return plan_->lanes(ws_); }

  // Pointer-per-slice API: images[b] is an image_elems() array, raws[b] a
  // sample_count() array, b < nb. The pool-less overloads run on the plan's
  // own pool (single caller at a time, like the plan's convenience API);
  // pass an explicit pool for concurrent use.
  void forward(const cfloat* const* images, cfloat* const* raws, index_t nb);
  void forward(const cfloat* const* images, cfloat* const* raws, index_t nb, ThreadPool& pool) {
    plan_->forward(images, raws, nb, ws_, pool);
  }
  void adjoint(const cfloat* const* raws, cfloat* const* images, index_t nb);
  void adjoint(const cfloat* const* raws, cfloat* const* images, index_t nb, ThreadPool& pool) {
    plan_->adjoint(raws, images, nb, ws_, pool);
  }

  // Contiguous convenience: slice b at base + b·image_elems() / sample_count().
  void forward(const cfloat* images, cfloat* raws, index_t nb);
  void adjoint(const cfloat* raws, cfloat* images, index_t nb);

  /// Phase timings summed over the batch's chunks of the last apply.
  const OperatorStats& last_forward_stats() const { return ws_.fwd_stats; }
  const OperatorStats& last_adjoint_stats() const { return ws_.adj_stats; }
  const std::vector<TraceEvent>& last_trace() const { return ws_.trace; }

  /// True once the private reduction buffers failed to allocate and the
  /// workspace fell back to direct scatter (also mirrored into the
  /// per-apply stats).
  bool privatization_downgraded() const { return plan_->privatization_downgraded(ws_); }

 private:
  const Nufft* plan_;
  Workspace ws_;
};

}  // namespace nufft::exec
