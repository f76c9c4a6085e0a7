// Shared pieces of the repository benchmark: command-line arguments, the
// per-run report (metrics, operation books, correctness gates, run context)
// and the small statistics every workload reports with.
//
// A workload fills one Report. main.cpp prints it as the final JSON line:
// the end-to-end metrics in an untraced run, the per-layer metrics in a
// traced one, never both.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/nufft.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;    // test-size inputs: exercises gates and report format
  bool tamper = false;  // corrupt one output before its check (gate self-test)
};

class Report {
 public:
  /// Record a metric. Names must be unique within a run.
  void metric(const std::string& name, double value, const std::string& unit);

  /// Operation books: every operation the workload attempted, and how it
  /// ended. failed counts operations that errored or were refused.
  void op_ok(std::uint64_t n = 1) { attempted_ += n; }
  void op_failed(std::uint64_t n = 1) {
    attempted_ += n;
    failed_ += n;
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// A correctness gate: a false condition fails the run (each distinct
  /// failure is reported once).
  void check(bool ok, const std::string& what);
  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

  /// Free-form run context, printed on its own line before the result.
  void context(const std::string& key, const std::string& value) { context_[key] = value; }
  void context(const std::string& key, double value);

  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  const std::map<std::string, Metric>& metrics() const { return metrics_; }
  const std::map<std::string, std::string>& context() const { return context_; }

 private:
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> context_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Seconds elapsed since `t0`.
double since(Clock::time_point t0);

double median(std::vector<double> v);

/// The tail statistic every *_tail metric reports: the highest percentile
/// with at least 10 samples beyond it, i.e. the 11th-largest sample. Fewer
/// than 11 samples fall back to the maximum (percentile 100).
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
};
Tail tail(std::vector<double> v);

/// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// Complex values with independent standard-normal parts.
nufft::cvecf random_complex(nufft::index_t n, nufft::Rng& rng);

/// The 3D geometry pair3d and recon3d share: the default Table I row shrunk
/// to N=64 (N=16 in tiny mode), 2x oversampled radial kooshball, PlanConfig
/// defaults with 4 plan threads.
struct Geometry3d {
  nufft::GridDesc grid;
  nufft::datasets::SampleSet samples;
  nufft::PlanConfig cfg;
};
Geometry3d kooshball(bool tiny);

/// Builds the plan cold at least kSetupReps times and on until kSetupBudgetS
/// of building has run (at most kSetupMaxReps builds; 2 in tiny mode),
/// records setup_s as the median build time and returns the last plan.
std::unique_ptr<nufft::Nufft> build_plan(const nufft::GridDesc& g,
                                         const nufft::datasets::SampleSet& samples,
                                         const nufft::PlanConfig& cfg, bool tiny, Report& rep);

inline constexpr std::size_t kSetupReps = 15;
inline constexpr double kSetupBudgetS = 0.5;
inline constexpr std::size_t kSetupMaxReps = 200;

/// op_s (median) from per-operation times, plus record_tail().
void record_op_times(Report& rep, const std::vector<double>& times);

/// The tail (see tail()), its percentile and the sample count, as run
/// context: on a shared machine the tail spreads too much between runs to
/// hold a regression bound.
void record_tail(Report& rep, const std::vector<double>& times);

/// Each workload's entry point.
void run_pair3d(const Args& args, Report& rep);
void run_recon3d(const Args& args, Report& rep);
void run_stream2d(const Args& args, Report& rep);
void run_serve2d(const Args& args, Report& rep);

}  // namespace perfbench
