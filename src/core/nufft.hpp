// The NUFFT operator pair (paper §II-B):
//
//   forward:  F(w) = Σ_n f[n] · e^{-2πi (w - M/2)·n / M},   n centered
//   adjoint:  the exact algebraic adjoint of forward
//
// evaluated approximately in O(M^d log M + K·(2W)^d) as
//   forward = interp ∘ FFT ∘ scale      (scale = rolloff × chop)
//   adjoint = scale ∘ IFFT ∘ spread
//
// Sample coordinates are in oversampled-grid units, w ∈ [0, M)^d, with the
// spectral origin (DC) at M/2 per dimension. No normalization is applied:
// adjoint(forward(x)) ≈ M^d·x apodization-corrected — iterative solvers are
// insensitive to the constant and direct users can divide by M^d.
//
// Concurrency contract (the workspace-lease model): a plan is built once per
// trajectory (preprocessing: partitioning, task graph, sample reorder) and is
// immutable afterwards — tables, task graph and FFT plans are only read by
// applies. All mutable per-apply state (the oversampled grids, private
// reduction buffers, batched-FFT scratch, stats, trace) lives in a
// `Workspace`. The const `forward`/`adjoint` overloads take an explicit
// workspace and thread pool and may run concurrently on the same plan as
// long as each call holds its own workspace and pool — `exec::NufftEngine`
// leases workspaces per job on exactly this contract. The non-const
// convenience overloads use a one-lane workspace and a pool owned by the
// plan and therefore remain single-caller-at-a-time; they exist for
// convenience and for the component benchmarks.
//
// One apply driver serves every right-hand-side count (paper §V-E, the
// cuFINUFFT `ntransf` model): an apply of nb slices runs in chunks of at
// most the workspace's lane capacity L, each chunk one scale → FFT →
// convolution (or convolution → FFT → scale) pass over cell-interleaved
// grids — lane b of cell c at offset c·nb + b, so at nb = 1 exactly the
// single grid. A single-RHS apply is the nb = 1 case; `exec::BatchNufft`
// owns an L-lane workspace. See DESIGN.md §7.
#pragma once

#include <memory>
#include <vector>

#include "common/types.hpp"
#include "core/batch_fft.hpp"
#include "core/conv_dispatch.hpp"
#include "core/convolution.hpp"
#include "core/grid.hpp"
#include "core/preprocess.hpp"
#include "core/stats.hpp"
#include "datasets/trajectory.hpp"
#include "fft/fftnd.hpp"
#include "kernels/horner.hpp"
#include "kernels/lut.hpp"
#include "parallel/thread_pool.hpp"

namespace nufft {

namespace exec {
class BatchNufft;
}

/// Mutable per-apply state, rentable so concurrent applies on one plan never
/// share buffers. Obtain via Nufft::make_workspace(lanes); the struct is
/// movable and plan-specific (buffer shapes follow the plan's grid and task
/// list).
struct Workspace {
  // L cell-interleaved oversampled grids, L·grid_elems() values; L is the
  // lane capacity (Nufft::lanes), 1 ≤ L ≤ kMaxBatch. After a one-slice
  // forward() lane 0 holds the full transform; after adjoint() the inverse
  // transform only on the image-support cells the scale pass reads (the
  // pruned FFT skips the rest).
  cvecf grid;
  // One box per task, L lanes per cell, sized for privatized tasks and empty
  // for the rest. Left empty altogether when the boxes could not be
  // allocated (Nufft::privatization_downgraded): spreads then run every task
  // through the TDG-serialized direct-scatter path.
  std::vector<cvecf> private_bufs;
  std::unique_ptr<BatchFft> bfft;  // the interleaved FFT passes, L ≥ 2 only
  OperatorStats fwd_stats;
  OperatorStats adj_stats;
  std::vector<TraceEvent> trace;
};

class Nufft {
 public:
  /// Plan a transform between an N^dim image and `samples.count()`
  /// non-uniform spectral values. The grid geometry must match the sample
  /// set's oversampled extent.
  Nufft(const GridDesc& g, const datasets::SampleSet& samples, const PlanConfig& cfg);

  /// Plan from a previously serialized preprocessing result (plan_cache.hpp)
  /// — skips the histogram/partition/bin/reorder pass entirely.
  Nufft(const GridDesc& g, const datasets::SampleSet& samples, const PlanConfig& cfg,
        Preprocessed restored);

  /// Warm derivation: plan `new_samples` by delta-updating a clone of `src`'s
  /// preprocessing (update_preprocessed) instead of a cold preprocess().
  /// Grid, config, FFT plans, scale tables and kernel evaluators are shared
  /// with the source plan (all immutable); `src` keeps serving concurrent
  /// applies untouched. The derived plan is bit-identical to a cold
  /// Nufft(grid, new_samples, config) in everything an apply reads —
  /// plan_stats().warm_updated records which path built it, and generation
  /// is src's + 1 (unless the update was a bitwise no-op).
  Nufft(const Nufft& src, const datasets::SampleSet& new_samples,
        const UpdateOptions& opts = {});
  ~Nufft();

  Nufft(const Nufft&) = delete;
  Nufft& operator=(const Nufft&) = delete;

  const GridDesc& grid_desc() const { return g_; }
  const PlanConfig& config() const { return cfg_; }
  index_t image_elems() const { return g_.image_elems(); }
  index_t sample_count() const { return static_cast<index_t>(pp_.orig_index.size()); }

  // --- re-entrant apply API (the workspace-lease model) ---

  /// A fresh workspace for up to `lanes` slices per pass (clamped to
  /// [1, kMaxBatch]; larger applies run in chunks). When its private boxes
  /// cannot be allocated it comes back downgraded (privatization_downgraded)
  /// instead of throwing; a grid allocation failure propagates.
  Workspace make_workspace(index_t lanes = 1) const;

  /// Bytes make_workspace(lanes) allocates: lanes × (grid + privatized
  /// boxes), plus the batched FFT's scratch when lanes ≥ 2.
  std::size_t workspace_bytes(index_t lanes = 1) const;

  /// Lane capacity of a workspace made by this plan.
  index_t lanes(const Workspace& ws) const {
    return static_cast<index_t>(ws.grid.size()) / g_.grid_elems();
  }

  /// True when ws's private reduction buffers failed to allocate and its
  /// spreads fall back to direct scatter (also mirrored into the per-apply
  /// stats). A workspace made before update_samples changed the task count
  /// reads as downgraded too, and spreads the same safe way.
  bool privatization_downgraded(const Workspace& ws) const {
    return ws.private_bufs.size() != pp_.tasks.size();
  }

  /// nb slices through one driver: images[b] is an image_elems() array
  /// (N^dim, centered, row-major), raws[b] a sample_count() array in caller
  /// order, b < nb. Thread-safe on a const plan: concurrent calls must pass
  /// distinct workspaces and distinct pools. Each chunk of lanes(ws) slices
  /// is one pass; ws's stats and trace cover the whole apply.
  void forward(const cfloat* const* images, cfloat* const* raws, index_t nb, Workspace& ws,
               ThreadPool& pool) const;

  /// raws → images, the same contract. Both directions run the FFT pruned
  /// to the image-support rows (fft::FftNd::transform_pruned), bit-identical
  /// in their outputs to image_to_grid/spread + the full FftNd transform +
  /// interp/grid_to_image.
  void adjoint(const cfloat* const* raws, cfloat* const* images, index_t nb, Workspace& ws,
               ThreadPool& pool) const;

  /// Single-slice applies: the driver at nb = 1.
  void forward(const cfloat* image, cfloat* raw, Workspace& ws, ThreadPool& pool) const {
    forward(&image, &raw, 1, ws, pool);
  }
  void adjoint(const cfloat* raw, cfloat* image, Workspace& ws, ThreadPool& pool) const {
    adjoint(&raw, &image, 1, ws, pool);
  }

  // --- convenience apply API (uses the plan-owned workspace and pool) ---

  /// image (N^dim, centered, row-major) → raw (sample values, caller order).
  void forward(const cfloat* image, cfloat* raw);

  /// raw (sample values, caller order) → image (N^dim).
  void adjoint(const cfloat* raw, cfloat* image);

  // --- streaming trajectory update (exclusive-owner API) ---

  /// Re-plan this operator for `new_samples` in place, preferring the delta
  /// path (update_preprocessed) over a cold rebuild. NOT part of the
  /// concurrency contract above: the caller must guarantee no apply is in
  /// flight on this plan — shared plans (PlanRegistry) use the warm-derive
  /// constructor instead, which never mutates the source. On kNoop nothing
  /// changes (generation included); otherwise plan_stats().generation is
  /// bumped and the plan-owned workspace's private buffers are reconciled
  /// with the new privatization marks.
  UpdatePath update_samples(const datasets::SampleSet& new_samples,
                            const UpdateOptions& opts = {});

  // --- component entry points for benchmarking and tests ---
  // These operate on the plan-owned workspace (not re-entrant).

  /// Adjoint convolution only: spread raw samples onto the internal grid
  /// (grid is cleared first).
  void spread(const cfloat* raw);

  /// Forward convolution only: gather raw samples from the internal grid.
  void interp(cfloat* raw);

  /// The plan-owned workspace's grid (grid_desc().grid_elems() values). Fully
  /// defined after spread()/image_to_grid() and forward(); after adjoint()
  /// only its image-support cells hold the inverse transform (see Workspace).
  cfloat* grid_data() { return ws_.grid.data(); }
  const cfloat* grid_data() const { return ws_.grid.data(); }
  void clear_grid();

  /// Fill the grid from an image (scale + chop + zero-pad), no FFT.
  void image_to_grid(const cfloat* image);
  /// Read an image back from the grid (crop + scale + chop), no FFT.
  void grid_to_image(cfloat* image) const;

  // --- instrumentation ---
  const OperatorStats& last_forward_stats() const { return ws_.fwd_stats; }
  const OperatorStats& last_adjoint_stats() const { return ws_.adj_stats; }
  const Preprocessed& plan() const { return pp_; }
  const std::vector<TraceEvent>& last_trace() const { return ws_.trace; }
  ThreadPool& pool() { return *pool_; }

  /// Vector backend resolved from PlanConfig::use_simd / isa and the CPU.
  ConvBackend conv_mode() const { return conv_variant_->key.backend; }

  /// The convolution variant bound at plan time (core/conv_dispatch.hpp):
  /// constexpr-W for calibrated widths, else the runtime-width entry.
  const ConvVariant& conv_variant() const { return *conv_variant_; }

  /// View of one task's sample range as the dispatch variants consume it.
  /// box_local → indices rebased into the task's private box.
  ConvRange conv_range(const ConvTask& task, bool box_local) const;

  /// Plan-time decisions (convolution variant binding, update generation).
  const PlanStats& plan_stats() const { return plan_stats_; }

 private:
  friend class exec::BatchNufft;

  /// The weight evaluator this plan resolved (LUT or Horner) as the view
  /// compute_window consumes.
  WindowEval window_eval() const {
    WindowEval ev;
    if (horner_ != nullptr) {
      ev.horner = horner_.get();
    } else {
      ev.lut = lut_.get();
    }
    return ev;
  }

  // --- the passes of the driver, over nb ≤ kMaxBatch grids ---
  // The nb grids are cell-interleaved: lane b of grid cell c lives at
  // slabs[c·nb + b] (at nb = 1, the single grid). images/raws are one
  // pointer per lane.

  /// One forward / adjoint pass over nb ≤ lanes(ws) slices; phase times
  /// accumulate into ws's stats.
  void forward_chunk(const cfloat* const* images, cfloat* const* raws, index_t nb,
                     Workspace& ws, ThreadPool& pool) const;
  void adjoint_chunk(const cfloat* const* raws, cfloat* const* images, index_t nb,
                     Workspace& ws, ThreadPool& pool) const;

  /// Zero `elems` grid values in parallel.
  static void clear_slabs(cfloat* slabs, std::size_t elems, ThreadPool& pool);
  /// Size ws.private_bufs for the current privatization marks at lanes(ws)
  /// lanes — keep already-sized boxes, size new ones, release the rest.
  /// Propagates bad_alloc; only make_workspace downgrades on it.
  void fit_private_bufs(Workspace& ws) const;
  /// Allocate the plan-owned one-lane ws_ (bad_alloc propagates).
  void init_own_workspace();
  /// Fused scale pass: write every lane of every cell exactly once (zero
  /// padding, or image value × rolloff × chop).
  void images_to_slabs(const cfloat* const* images, index_t nb, cfloat* slabs,
                       ThreadPool& pool) const;
  /// Crop + scale + chop each lane back into its image.
  void slabs_to_images(const cfloat* slabs, index_t nb, cfloat* const* images,
                       ThreadPool& pool) const;
  /// The pruned FFT of nb grids in ws: the plan's own transform at nb = 1,
  /// the workspace's interleaved BatchFft passes above.
  void fft_slabs(Workspace& ws, index_t nb, fft::Direction dir, ThreadPool& pool) const;
  /// Forward convolution of every task through the bound variant.
  void interp_slabs(const cfloat* slabs, index_t nb, cfloat* const* raws,
                    ThreadPool& pool) const;
  /// Adjoint convolution into ws's pre-cleared grids, one scheduler walk.
  /// Task k with a privatized mark convolves into ws.private_bufs[k] (a box
  /// of box_elems cells, nb lanes each, interleaved like the grids) and
  /// reduces into the grids.
  SchedulerStats spread_slabs(const cfloat* const* raws, index_t nb, Workspace& ws,
                              ThreadPool& pool) const;

  GridDesc g_;
  PlanConfig cfg_;
  std::unique_ptr<ThreadPool> pool_;
  Preprocessed pp_;
  // shared_ptr (not unique): a warm-derived plan shares these immutable
  // tables with its source — they depend only on (grid, cfg), which the
  // derivation preserves.
  std::shared_ptr<fft::FftNd<float>> fft_fwd_;
  std::shared_ptr<fft::FftNd<float>> fft_inv_;
  std::array<fvec, 3> scale_;          // rolloff × chop, one array per dim
  std::array<std::vector<index_t>, 3> wrap_;  // image index → grid index per dim
  std::array<std::vector<index_t>, 3> inv_wrap_;  // grid index → image index, −1 = pad
  /// Maximal contiguous stretches of inv_wrap_: grid [g_begin, g_end) maps to
  /// image i_begin + (g − g_begin). Lets the fused scale pass stream each
  /// stretch without per-element lookups; gaps between runs are zero padding.
  struct WrapRun {
    index_t g_begin = 0;
    index_t g_end = 0;
    index_t i_begin = 0;
  };
  std::array<std::vector<WrapRun>, 3> wrap_runs_;
  std::shared_ptr<kernels::KernelLut> lut_;
  std::shared_ptr<kernels::KernelHorner> horner_;  // set iff cfg_.eval == kHorner
  const ConvVariant* conv_variant_ = nullptr;  // bound at construction, never null
  PlanStats plan_stats_;
  Workspace ws_;  // the plan-owned one-lane workspace behind the convenience API
};

}  // namespace nufft
