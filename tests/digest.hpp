// Output digests for bit-exact regression pins: a 64-bit FNV-1a hash over
// an output's bytes. Tests record the digest an operator produced and
// assert it exactly, so any change in rounding (operation order, fused
// multiply-adds, a different kernel) fails them even when no second
// implementation is left to compare against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include "common/types.hpp"

namespace nufft::testing {

inline std::uint64_t digest64(const cfloat* data, index_t n) {
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(cfloat);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Whether the recorded AVX2 digests apply to this build. The AVX2 TUs
/// (core/convolution_avx2.cpp, fft/column_stages_avx2.cpp) are compiled with
/// -mfma, where the compiler may contract a multiply and an add into one
/// FMA, so AVX2 bits belong to the build as well as to the source. The
/// recorded values are those of an optimized (-O2/-O3, e.g. Release),
/// uninstrumented GCC 12 build; an unoptimized or sanitizer build contracts
/// elsewhere and skips only the AVX2 digest comparisons (its AVX2 applies
/// still run), and another compiler may need them re-recorded. Scalar and
/// SSE outputs (no FMA) are pinned in every build.
#if defined(NUFFT_SANITIZED) || !defined(__OPTIMIZE__)
inline constexpr bool kAvx2DigestsApply = false;
#else
inline constexpr bool kAvx2DigestsApply = true;
#endif

/// "0x%016llx", the form the recorded tables use.
inline std::string digest_hex(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace nufft::testing
