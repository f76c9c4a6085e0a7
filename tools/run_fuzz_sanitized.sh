#!/usr/bin/env bash
# Run the differential fuzz harness (`ctest -L fuzz`, including the serving
# wire-protocol fuzz, the streaming trajectory-delta battery and the
# recorded single-apply output digests — compared for scalar and SSE only
# here, since instrumentation changes FMA contraction in the AVX2 TUs; the
# AVX2 applies still run), the
# tolerance-contract harness (`ctest -L accuracy`),
# the parallel-preprocessing suite (`ctest -L preproc`),
# the FFT substrate suite (`ctest -L fft`, the padded gather/scatter tails of
# the column-blocked and pruned FftNd passes),
# the convolution-dispatch suite (`ctest -L dispatch`, the constexpr-W vs
# runtime-width bit-match matrix and the boundary-coordinate trim sweep),
# the batched-execution suite (`ctest -L concurrency`, nufft_exec_tests —
# the apply driver runs the lane kernels over cell-interleaved grids and the
# interleaved BatchFft passes, plus the registry, the engine's mixed-lane
# leases and the recorded nb = 1 output digests), the fault-injection suite
# (`ctest -L faults`, nufft_fault_tests — the workspace's privatization
# downgrade reruns the direct-scatter path at one and four lanes),
# the streaming plan-update suite (`ctest -L streaming`, the warm-vs-cold
# bit-match matrix — under TSan this races concurrent update-vs-apply paths
# on the pool), the serving-layer suite (`ctest -L serve`) and the chaos
# suite (`ctest -L chaos`, fault hooks compiled in) under AddressSanitizer and
# UndefinedBehaviorSanitizer, as CI does; pass `thread` to race-check the
# preprocessing scatter/radix passes and the server's poll/builder/engine
# thread handoff under TSan. The sweep seeds are fixed
# (tests/fuzz/test_fuzz.cpp kBaseSeed) so both instrumented runs execute the
# identical configuration set; override with NUFFT_FUZZ_SEED /
# NUFFT_FUZZ_CONFIGS to explore further or to reproduce one failing seed:
#
#   NUFFT_FUZZ_SEED=<seed> NUFFT_FUZZ_CONFIGS=1 tools/run_fuzz_sanitized.sh
#
# Sanitizer builds also compile in the library's debug invariant assertions
# (NUFFT_DASSERT via NUFFT_DEBUG_ASSERTS — see the NUFFT_SANITIZE block in
# the top-level CMakeLists.txt), so window-length and scheduler invariants
# are checked alongside the memory/UB instrumentation. Fault injection
# (NUFFT_FAULT_INJECT) is enabled so the chaos suite exists; it is inert for
# every other suite unless a NUFFT_FAULT env spec arms a site.
#
# Usage: tools/run_fuzz_sanitized.sh [address] [undefined] [thread]
#        (no arguments = address + undefined)
set -euo pipefail

cd "$(dirname "$0")/.."

sanitizers=("$@")
if [ ${#sanitizers[@]} -eq 0 ]; then
  sanitizers=(address undefined)
fi

for san in "${sanitizers[@]}"; do
  build="build-${san}san"
  echo "=== ${san} sanitizer: configuring ${build} ==="
  cmake -B "${build}" -S . \
    -DNUFFT_SANITIZE="${san}" -DNUFFT_FAULT_INJECT=ON \
    -DNUFFT_BUILD_BENCH=OFF -DNUFFT_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "${build}" -j --target nufft_fuzz_tests --target nufft_accuracy_tests \
    --target nufft_fft_tests --target nufft_preproc_tests --target nufft_dispatch_tests \
    --target nufft_streaming_tests --target nufft_serve_tests --target nufft_chaos_tests \
    --target nufft_exec_tests --target nufft_fault_tests
  echo "=== ${san} sanitizer: ctest -L 'fuzz|accuracy|fft|preproc|dispatch|concurrency|faults|streaming|serve|chaos' ==="
  (cd "${build}" && ctest -L 'fuzz|accuracy|fft|preproc|dispatch|concurrency|faults|streaming|serve|chaos' --output-on-failure)
done

echo "All sanitized fuzz + accuracy + fft + preproc + dispatch + concurrency + faults + streaming + serve + chaos runs passed."
