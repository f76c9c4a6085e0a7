// Per-layer probes shared by the workloads' traced runs. Each one times calls
// into a module's public API from outside the library.
#pragma once

#include <vector>

#include "bench.hpp"
#include "core/nufft.hpp"
#include "fft/fftnd.hpp"

namespace perfbench {

/// The FFT pair a plan applies, rebuilt from its grid (the plan keeps its
/// own private; same dimensions and directions).
struct GridFfts {
  explicit GridFfts(const nufft::GridDesc& g);
  nufft::fft::FftNd<float> fwd;
  nufft::fft::FftNd<float> inv;
};

/// Seconds spent in each public component of one forward + adjoint.
struct ComponentTimes {
  double to_grid = 0.0;   // Nufft::image_to_grid
  double fft_fwd = 0.0;   // FftNd::transform, forward, on the plan's pool
  double interp = 0.0;    // Nufft::interp
  double spread = 0.0;    // Nufft::spread (grid clear included)
  double fft_inv = 0.0;   // FftNd::transform, inverse
  double to_image = 0.0;  // Nufft::grid_to_image
  double sum() const { return to_grid + fft_fwd + interp + spread + fft_inv + to_image; }
};

/// Forward (image → raw) then adjoint (raw_in → image_out) composed from the
/// plan's component entry points. Either half is skipped when its output is
/// null. The result matches Nufft::forward/adjoint bit for bit.
ComponentTimes component_pair(nufft::Nufft& plan, const GridFfts& ffts, const nufft::cfloat* image,
                              nufft::cfloat* raw, const nufft::cfloat* raw_in,
                              nufft::cfloat* image_out);

/// Median of per-call component times over `reps` calls (field-wise).
ComponentTimes median_of(const std::vector<ComponentTimes>& runs);

/// Largest |core.ledger_gap| a traced run accepts. The components and the
/// untraced operation are timed at different moments, so the gap carries the
/// machine's run-to-run noise as well as any unaccounted work.
inline constexpr double kMaxLedgerGap = 0.25;

/// Records core.* and fft.* metrics from component runs, with the ledger gap
/// against `untraced_op_s`, the untraced operation the components compose,
/// and gates the gap on kMaxLedgerGap.
void record_components(Report& rep, const nufft::Nufft& plan, const ComponentTimes& med,
                       double accounted_s, double untraced_op_s);

/// kernels.window_ns_per_sample: compute_window (Part 1) over every sample
/// of the plan with a LUT built from its configuration.
double window_ns_per_sample(const nufft::Nufft& plan, const nufft::datasets::SampleSet& samples);

/// prep.cold_s (median of `reps` preprocess() calls on `pool`) and the
/// PreprocessStats stage split of the last call.
void record_prep(Report& rep, const nufft::GridDesc& g, const nufft::datasets::SampleSet& samples,
                 const nufft::PlanConfig& cfg, nufft::ThreadPool& pool, int reps);

}  // namespace perfbench
