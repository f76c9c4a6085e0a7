// The repository benchmark: one workload per run, inputs generated from the
// seed, outputs checked, result printed as one JSON line.
//
//   perfbench --workload pair3d|recon3d|stream2d|serve2d --seed N
//             --seconds S --trace 0|1 [--tiny] [--tamper] [--commit ID]
//
// --trace 0 measures the end-to-end metrics, --trace 1 the per-layer ones;
// the result carries every metric the workload recorded, and run.py keeps
// the set BENCHMARK.json names for the mode. Before the result, a
// `{"context": ...}` line gives the run context. Exit code 1 when any
// correctness gate or accounting check fails, 2 on a usage or runtime error.
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

using perfbench::Args;
using perfbench::Report;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string isa_string() {
  std::string isa = "sse4.1";
  if (__builtin_cpu_supports("avx2")) isa += ",avx2";
  if (__builtin_cpu_supports("avx512f")) isa += ",avx512f";
  return isa;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload pair3d|recon3d|stream2d|serve2d "
               "--seed N --seconds S --trace 0|1 [--tiny] [--tamper] [--commit ID]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args.seed = std::stoull(argv[++i]);
    } else if (a == "--seconds" && has_value) {
      args.seconds = std::stod(argv[++i]);
    } else if (a == "--trace" && has_value) {
      args.trace = std::string(argv[++i]) != "0";
    } else if (a == "--commit" && has_value) {
      commit = argv[++i];
    } else if (a == "--tiny") {
      args.tiny = true;
    } else if (a == "--tamper") {
      args.tamper = true;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");

  Report rep;
  try {
    if (args.workload == "pair3d") {
      perfbench::run_pair3d(args, rep);
    } else if (args.workload == "recon3d") {
      perfbench::run_recon3d(args, rep);
    } else if (args.workload == "stream2d") {
      perfbench::run_stream2d(args, rep);
    } else if (args.workload == "serve2d") {
      perfbench::run_serve2d(args, rep);
    } else {
      return usage(("unknown workload '" + args.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 2;
  }

  // Every metric the workload recorded; perfbench/run.py selects the set
  // BENCHMARK.json names for the mode and checks names and units.
  std::string metrics;
  for (const auto& [name, m] : rep.metrics()) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    metrics += (metrics.empty() ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + m.unit + "\"}";
  }

  std::string ctx = "\"workload\": \"" + args.workload + "\", \"seed\": " +
                    std::to_string(args.seed) + ", \"trace\": " + (args.trace ? "1" : "0") +
                    ", \"tiny\": " + (args.tiny ? "1" : "0") +
                    ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
                    ", \"isa\": \"" + isa_string() + "\", \"build_type\": \"" +
                    PERFBENCH_BUILD_TYPE + "\", \"commit\": \"" + json_escape(commit) + "\"";
  for (const auto& [k, v] : rep.context()) ctx += ", \"" + k + "\": \"" + json_escape(v) + "\"";
  std::string fails;
  for (const auto& f : rep.failures()) fails += (fails.empty() ? "\"" : ", \"") + json_escape(f) + "\"";
  std::printf("{\"context\": {%s}, \"check_failures\": [%s]}\n", ctx.c_str(), fails.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              rep.correct() ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted()),
              static_cast<unsigned long long>(rep.failed()), metrics.c_str());
  std::fflush(stdout);
  return rep.correct() ? 0 : 1;
}
