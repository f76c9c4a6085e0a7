// Fault injection for the robustness and chaos test suites.
//
// Production code marks the places where a failure has a defined recovery
// path with a *named site*:
//
//   fault::inject("registry.build", ErrorCode::kBuildFailure);  // may throw
//   fault::inject_alloc("workspace.private_alloc");             // may throw bad_alloc
//   if (fault::should_fail("registry.spill.corrupt")) { ... }   // caller acts
//   fault::maybe_stall("engine.apply.stall");                   // may sleep
//
// Sites are armed either programmatically (fault::arm / fault::arm_prob,
// used by the test suite) or through the NUFFT_FAULT environment variable,
// a comma/semicolon separated list of triggers in one of two forms:
//
//   site:count[:skip[:param]]     deterministic — fire `count` times after
//                                 ignoring the first `skip` hits
//   site:p0.05[:budget[:param]]   probabilistic — each hit fires with
//                                 probability 0.05, at most `budget` times
//                                 total (0 or omitted = unlimited)
//
// `param` is a site-defined integer the firing code can read back (e.g. the
// stall duration in milliseconds for maybe_stall sites). Probabilistic draws
// come from a process-wide PRNG seeded by NUFFT_FAULT_SEED (default 1), so a
// chaos run is reproducible given the same seed and thread interleaving.
//
// The whole facility compiles away unless the NUFFT_FAULT_INJECT CMake
// option defines the macro of the same name: in release builds every call
// below is a constant-false / empty inline and the named sites cost nothing.
#pragma once

#include <cstdint>

#include "common/error.hpp"

namespace nufft::fault {

#if defined(NUFFT_FAULT_INJECT)

/// True in builds that compile the injection hooks.
constexpr bool enabled() { return true; }

/// Consume one trigger at `site`; true when the site is armed and fires.
bool should_fail(const char* site);

/// Throw Error(code) when `site` fires.
void inject(const char* site, ErrorCode code);

/// Throw std::bad_alloc when `site` fires — stands in for a real allocation
/// failure on the path that owns the site.
void inject_alloc(const char* site);

/// Sleep for the site's `param` milliseconds (default 50) when `site` fires —
/// stands in for a wedged computation so watchdog/timeout paths can be
/// exercised without hand-written sleeps in production code.
void maybe_stall(const char* site);

/// Arm `site` to fire `count` times after skipping its next `skip` hits.
/// `param` is stored verbatim for the firing code (see maybe_stall).
void arm(const char* site, int count, int skip = 0, int param = 0);

/// Arm `site` to fire each hit with probability `prob` (clamped to [0,1]),
/// at most `budget` times total (budget <= 0 = unlimited).
void arm_prob(const char* site, double prob, int budget = 0, int param = 0);

/// Disarm every site and zero the hit counters (NUFFT_FAULT and
/// NUFFT_FAULT_SEED are re-read on the next hit).
void reset();

/// How many times `site` has fired since the last reset().
std::uint64_t fired(const char* site);

/// Total fires across all sites since the last reset().
std::uint64_t fired_total();

#else

constexpr bool enabled() { return false; }
constexpr bool should_fail(const char*) { return false; }
inline void inject(const char*, ErrorCode) {}
inline void inject_alloc(const char*) {}
inline void maybe_stall(const char*) {}
inline void arm(const char*, int, int = 0, int = 0) {}
inline void arm_prob(const char*, double, int = 0, int = 0) {}
inline void reset() {}
inline std::uint64_t fired(const char*) { return 0; }
inline std::uint64_t fired_total() { return 0; }

#endif

}  // namespace nufft::fault
