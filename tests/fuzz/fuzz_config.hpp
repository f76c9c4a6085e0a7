// Randomized adversarial plan configurations for the differential fuzz
// harness (`ctest -L fuzz`).
//
// Every FuzzConfig is a pure function of its 64-bit seed (xoshiro256**,
// bit-reproducible across platforms), so any failure reported by the runner
// is reproducible from the seed alone:
//
//   NUFFT_FUZZ_SEED=<seed> NUFFT_FUZZ_CONFIGS=1 ./nufft_fuzz_tests
//
// The generator deliberately over-samples the hostile corners of the input
// space: grids narrower than the kernel footprint (m < 2⌈W⌉+1, must be
// rejected at plan construction), prime grid sizes (Bluestein FFT), tiny
// legal grids one cell wider than the footprint, half-integer and
// domain-boundary coordinates (the float-rounding window-trim regression),
// zero/one/two-sample plans (empty scheduler partitions), clustered
// trajectories that cross the Eq. 6 privatization threshold, and batch
// sizes 1..8.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"
#include "core/preprocess.hpp"
#include "kernels/kernel.hpp"

namespace nufft::fuzz {

/// The default differential sweep (tests/fuzz/test_fuzz.cpp): configs
/// kSweepBaseSeed .. kSweepBaseSeed + kSweepConfigs − 1. Fixed so CI runs
/// are reproducible; the paper's conference date.
inline constexpr std::uint64_t kSweepBaseSeed = 20120521;
inline constexpr std::int64_t kSweepConfigs = 224;

enum class CoordStyle {
  kUniform,      // uniform over [0, m)
  kInteger,      // pinned to grid cells (maximal 2W+1 windows)
  kHalfInteger,  // pinned to cell midpoints (ceil/floor rounding hazards)
  kBoundary,     // 0, nextafter(m, 0), m−0.5, ... (wrap + trim hazards)
  kClustered,    // Gaussian blob (drives partitions over the privatization threshold)
};

const char* coord_style_name(CoordStyle s);

struct FuzzConfig {
  std::uint64_t seed = 0;

  int dim = 1;
  index_t n = 0;       // image size per dimension
  double alpha = 2.0;  // oversampling ratio; m = llround(alpha·n)
  index_t m = 0;       // oversampled grid size per dimension

  double kernel_radius = 4.0;
  kernels::KernelType kernel = kernels::KernelType::kKaiserBessel;
  int lut_samples_per_unit = 1024;
  kernels::KernelEval eval = kernels::KernelEval::kLut;
  /// > 0: tolerance-driven planning — kernel_radius / lut_samples_per_unit /
  /// eval above were pre-resolved from the calibration table at config-gen
  /// time (so the footprint logic sees the true width), and the plan itself
  /// re-resolves the same row from the tolerance.
  double tolerance = 0.0;

  int threads = 1;
  index_t count = 0;  // total samples (single interleave)
  CoordStyle style = CoordStyle::kUniform;
  index_t batch = 1;  // BatchNufft slices (1 = skip the batched comparison)

  // Scheduler / ablation toggles shared by every execution-path variant.
  bool priority_queue = true;
  bool selective_privatization = true;
  bool color_barrier_schedule = false;
  bool variable_partitions = true;
  bool reorder = true;
  double privatization_factor = 1.0;

  /// > 0: after the main battery, stream this many jittered trajectory
  /// frames through Nufft::update_samples, checking each updated plan
  /// against the exact NUDFT on the new coordinates and — exactly, to the
  /// bit — against a cold plan of the same frame (the §15 determinism
  /// contract at the operator level).
  int update_frames = 0;
  /// Fraction of samples perturbed per frame: 0 exercises the bitwise
  /// no-op short-circuit, 1 the rebuild-fallback regime.
  double jitter_fraction = 0.0;

  /// True when the kernel footprint exceeds the grid: plan construction
  /// must reject the config, and only the raw kernel-level baselines
  /// (which rely on compute_window's full modular wrap) run on it.
  bool footprint_exceeds_grid() const;

  /// Relative-L2 tolerance for comparisons against the exact NUDFT,
  /// derived from the kernel width, oversampling ratio, and kernel type
  /// (see DESIGN.md §10 for the model).
  double nudft_tolerance() const;

  /// One-line human-readable description (embedded in failure reports).
  std::string describe() const;
};

/// Derive a complete configuration from a seed. Pure and deterministic.
FuzzConfig make_fuzz_config(std::uint64_t seed);

}  // namespace nufft::fuzz
