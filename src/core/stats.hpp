// Per-call performance counters, the raw material of the paper's breakdown
// figures (Fig. 3 / Fig. 8) and of the load-balance analysis.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace nufft {

/// Plan-time decisions frozen at Nufft construction, queryable via
/// Nufft::plan_stats(). Complements the per-apply OperatorStats below.
struct PlanStats {
  /// True when the bound convolution variant (core/conv_dispatch.hpp) has a
  /// constexpr width; false → the runtime-width entry (uncovered W).
  bool conv_specialized = false;
  /// ConvVariantKey::id() of the bound variant (width2 = 0 for runtime width).
  std::uint32_t conv_variant_id = 0;
  /// Human-readable variant name ("avx2.d3.w8.horner", "sse.d2.wany.lut").
  /// Also emitted as the obs counter "nufft.conv.variant.<name>".
  std::string conv_variant;
  /// Trajectory generation of this plan: 0 for a cold build, incremented by
  /// every non-no-op update_samples / warm derivation. A no-op update
  /// (bitwise-identical coordinates) never bumps it.
  std::uint64_t generation = 0;
  /// True when this plan's preprocessing came out of the delta path
  /// (update_preprocessed → kWarm) rather than a cold preprocess().
  bool warm_updated = false;
};

/// Timing breakdown for one operator application, in seconds.
///
/// Reset/accumulate discipline: an apply resets its stats struct at entry
/// and then only accumulates — multi-pass applies (the driver's chunk loop,
/// every scheduler walk of an adjoint) add their contribution per pass, so
/// after the apply `tasks` / `busy_ns_per_context` cover *all* passes and
/// `total_s` ≥ phase_sum() (the difference is scheduler/loop overhead plus
/// the instants between phase timers).
struct OperatorStats {
  double scale_s = 0.0;     // point-wise scaling + (de)chopping + grid clear
  double fft_s = 0.0;       // the oversampled (inverse) FFT
  double conv_s = 0.0;      // convolution interpolation
  double total_s = 0.0;

  // Adjoint-convolution scheduling detail, summed over every scheduler walk
  // of the apply (one per chunk for batched adjoints).
  int tasks = 0;
  int privatized_tasks = 0;
  std::vector<std::uint64_t> busy_ns_per_context;

  // Graceful-degradation record: set when this apply ran without selective
  // privatization because its workspace's private buffers failed to
  // allocate (Workspace::privatization_downgraded).
  bool privatization_downgraded = false;

  /// Fold one scheduler pass into the running totals. busy times accumulate
  /// element-wise, resizing on the first pass (a later pass may legally run
  /// on a wider pool; missing contexts count as idle).
  void add_scheduler_pass(int pass_tasks, int pass_privatized,
                          const std::vector<std::uint64_t>& busy);

  /// scale_s + fft_s + conv_s — the phase time the invariant
  /// phase_sum() ≤ total_s is asserted against in the test suite.
  double phase_sum() const { return scale_s + fft_s + conv_s; }

  /// Ratio of the busiest context's busy time to the mean — 1.0 is perfect
  /// load balance. Sentinels, distinguishable by the caller:
  ///   0.0  no parallel pass ran (busy_ns_per_context is empty), or a pass
  ///        ran real tasks too fast for the clock to resolve (tasks > 0 with
  ///        uniformly zero busy time — unmeasurable, NOT perfect balance);
  ///   1.0  a pass ran but had nothing to do (tasks == 0): trivially
  ///        balanced.
  double load_imbalance() const;
};

/// One-time preprocessing cost breakdown (paper §V-E, Fig. 14).
///
/// Since the preprocessing pipeline went parallel (DESIGN.md §11) every stage
/// time is the wall-clock of its parallel pass; `threads_used` records the
/// pool width that executed them, so bench_fig14_preproc can report per-stage
/// scaling, not just the total.
struct PreprocessStats {
  double histogram_s = 0.0;
  double partition_s = 0.0;  // per-dim histograms + boundary placement
  double bin_s = 0.0;        // task-id count + scan + stable parallel scatter
  double reorder_s = 0.0;    // per-task LSD radix sort, largest-first
  double gather_s = 0.0;     // reordered coordinate materialization
  double graph_s = 0.0;      // TDG + task/weights/privatization table
  double total_s = 0.0;
  int tasks = 0;
  int privatized_tasks = 0;
  int threads_used = 1;      // pool width the pipeline actually ran on

  // Delta-update path (update_preprocessed). A warm update reports its cost
  // in update_s with the cold stage timings above left zero, so update and
  // cold-build timings are never conflated in one field; a cold build (or a
  // fallback rebuild) leaves warm_update false and update_s zero.
  bool warm_update = false;      // these stats describe a delta update
  double update_s = 0.0;         // wall-clock of the whole delta pass
  index_t rebinned_samples = 0;  // samples whose task assignment changed
  int dirty_tasks = 0;           // tasks whose sample range was rebuilt
};

}  // namespace nufft
