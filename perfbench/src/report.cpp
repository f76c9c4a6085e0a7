#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

void Report::metric(const std::string& name, double value, const std::string& unit) {
  if (!metrics_.emplace(name, Metric{value, unit}).second) {
    throw std::logic_error("metric recorded twice: " + name);
  }
}

void Report::check(bool ok, const std::string& what) {
  if (!ok && std::find(failures_.begin(), failures_.end(), what) == failures_.end()) {
    failures_.push_back(what);
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

void Report::context(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", value);
  context_[key] = buf;
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

Tail tail(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 11) {
    t.value = v.back();
    return t;
  }
  t.value = v[n - 11];
  t.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return t;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::ceil(q * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::clamp(pos, 1.0, static_cast<double>(v.size())));
  return v[idx - 1];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::unique_ptr<nufft::Nufft> build_plan(const nufft::GridDesc& g,
                                         const nufft::datasets::SampleSet& samples,
                                         const nufft::PlanConfig& cfg, bool tiny, Report& rep) {
  std::vector<double> times;
  double total = 0.0;
  std::unique_ptr<nufft::Nufft> plan;
  const std::size_t min_reps = tiny ? 2 : kSetupReps;
  while (times.size() < min_reps ||
         (!tiny && total < kSetupBudgetS && times.size() < kSetupMaxReps)) {
    plan.reset();
    const auto t0 = Clock::now();
    plan = std::make_unique<nufft::Nufft>(g, samples, cfg);
    times.push_back(since(t0));
    total += times.back();
  }
  rep.metric("setup_s", median(times), "s");
  rep.context("setup_reps", static_cast<double>(times.size()));
  return plan;
}

void record_op_times(Report& rep, const std::vector<double>& times) {
  rep.metric("op_s", median(times), "s");
  record_tail(rep, times);
}

void record_tail(Report& rep, const std::vector<double>& times) {
  const Tail t = tail(times);
  rep.context("op_samples", static_cast<double>(times.size()));
  rep.context("op_tail_s", t.value);
  rep.context("op_tail_percentile", t.percentile);
}

nufft::cvecf random_complex(nufft::index_t n, nufft::Rng& rng) {
  nufft::cvecf v(static_cast<std::size_t>(n));
  for (auto& x : v) {
    const auto re = static_cast<float>(rng.normal());
    x = nufft::cfloat(re, static_cast<float>(rng.normal()));
  }
  return v;
}

}  // namespace perfbench
