// Differential execution of one fuzz configuration across every execution
// path the library ships, checked against the exact double-precision NUDFT
// and against each other. Assertion-free: failures come back as strings
// (each embedding the seed and the config description) so the gtest driver
// can aggregate a whole sweep and print one reproduction line per failure.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/fuzz_config.hpp"

namespace nufft::fuzz {

/// Run the full differential battery for one configuration:
///
///  * grids narrower than the kernel footprint: Nufft / ReferenceNufft
///    construction must throw kInvalidInput, and the raw kernel-level
///    baselines (spread_atomic, spread_privatized) must still match a
///    double-precision fully-wrapped brute-force spread;
///  * otherwise: Nufft scalar / SSE / AVX2 (when the CPU has it) forward and
///    adjoint against the NUDFT oracle, against each other and against
///    their recorded output digests, BatchNufft slices against single
///    applies, spread_atomic / spread_privatized
///    against the plan's deterministic spread, ReferenceNufft against the
///    oracle, empty-plan zero semantics, and NaN-free operator stats.
///
/// Returns one message per violated property; empty means the config passed.
std::vector<std::string> run_differential(const FuzzConfig& c);

/// 64-bit digests (testing::digest64) of one plan variant's forward and
/// adjoint outputs on a config's random inputs, applied on one pool thread.
struct OutputDigest {
  std::uint64_t seed;
  const char* variant;  // "scalar", "sse" or "avx2"
  std::uint64_t forward;
  std::uint64_t adjoint;
};

/// The digests a config's plan variants produce now (none for a config
/// whose kernel footprint exceeds the grid).
std::vector<OutputDigest> output_digests(const FuzzConfig& c);

/// The recorded digest of (seed, variant), or nullptr when none was recorded.
const OutputDigest* recorded_digest(std::uint64_t seed, const char* variant);

}  // namespace nufft::fuzz
