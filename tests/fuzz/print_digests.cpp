// Prints the default fuzz sweep's output digests in the form
// tests/fuzz/fuzz_digests.inc records them (one line per full config and
// plan variant). Re-record the file with
//
//   ./nufft_fuzz_digests > ../tests/fuzz/fuzz_digests.inc
//
// only for a change meant to alter the operator's rounding.
#include <cstdint>
#include <cstdio>

#include "digest.hpp"
#include "fuzz/fuzz_config.hpp"
#include "fuzz/fuzz_runner.hpp"

int main() {
  using namespace nufft;
  for (std::int64_t i = 0; i < fuzz::kSweepConfigs; ++i) {
    const fuzz::FuzzConfig c =
        fuzz::make_fuzz_config(fuzz::kSweepBaseSeed + static_cast<std::uint64_t>(i));
    for (const fuzz::OutputDigest& d : fuzz::output_digests(c)) {
      std::printf("{%llu, \"%s\", %s, %s},\n", static_cast<unsigned long long>(d.seed),
                  d.variant, testing::digest_hex(d.forward).c_str(),
                  testing::digest_hex(d.adjoint).c_str());
    }
  }
  return 0;
}
