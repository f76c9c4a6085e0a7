// Tests for the observability layer (src/obs/): metrics registry semantics
// and thread-safety, span rings, exporter well-formedness, and the
// stats-discipline invariants it is built to expose — in particular the
// multi-pass busy-time accumulation fixed in BatchNufft/Nufft. This binary
// carries the `obs` ctest label and is included in the
// -DNUFFT_SANITIZE=thread build.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <future>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "baselines/reference_nufft.hpp"
#include "core/nufft.hpp"
#include "core/stats.hpp"
#include "datasets/trajectory.hpp"
#include "exec/batch_nufft.hpp"
#include "exec/engine.hpp"
#include "exec/plan_registry.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "test_util.hpp"

namespace nufft {
namespace {

using datasets::TrajectoryType;
using exec::BatchNufft;
using exec::NufftEngine;
using exec::PlanRegistry;

// Saves and restores the obs switches around a test, clearing accumulated
// state on both sides so tests cannot observe each other.
class ObsGuard {
 public:
  ObsGuard() : metrics_(obs::metrics_enabled()), trace_(obs::trace_enabled()) { clear(); }
  ~ObsGuard() {
    clear();
    obs::set_metrics_enabled(metrics_);
    obs::set_trace_enabled(trace_);
  }

 private:
  static void clear() {
    obs::MetricsRegistry::instance().reset();
    obs::reset_spans();
  }
  bool metrics_;
  bool trace_;
};

// --- minimal JSON validator -------------------------------------------------
// Recursive-descent checker, enough to prove the exporters emit parseable
// JSON (balanced structure, legal literals/strings/numbers).

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing '"'
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// --- MetricsRegistry --------------------------------------------------------

TEST(Metrics, ConcurrentCountersAreExact) {
  ObsGuard guard;
  obs::set_metrics_enabled(true);
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([t] {
      auto& mr = obs::MetricsRegistry::instance();
      // Mix a shared counter with per-thread registrations so the map sees
      // concurrent inserts and lookups.
      auto& shared = mr.counter("obs_test.shared");
      auto& own = mr.counter("obs_test.thread." + std::to_string(t));
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        shared.add(1);
        own.add(2);
        mr.histogram("obs_test.hist").record(i % 1000);
      }
    });
  }
  for (auto& t : ts) t.join();

  auto& mr = obs::MetricsRegistry::instance();
  EXPECT_EQ(mr.counter("obs_test.shared").value(), kThreads * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mr.counter("obs_test.thread." + std::to_string(t)).value(), 2 * kPerThread);
  }
  EXPECT_EQ(mr.histogram("obs_test.hist").count(), kThreads * kPerThread);
}

TEST(Metrics, ResetKeepsCachedReferencesValid) {
  ObsGuard guard;
  obs::set_metrics_enabled(true);
  auto& c = obs::MetricsRegistry::instance().counter("obs_test.reset");
  c.add(7);
  EXPECT_EQ(c.value(), 7u);
  obs::MetricsRegistry::instance().reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(3);  // the pre-reset reference still points at the live instrument
  EXPECT_EQ(obs::MetricsRegistry::instance().counter("obs_test.reset").value(), 3u);
}

TEST(Metrics, HistogramBucketPlacement) {
  using obs::Histogram;
  EXPECT_EQ(Histogram::bucket_of(0), 0);
  EXPECT_EQ(Histogram::bucket_of(1), 0);
  EXPECT_EQ(Histogram::bucket_of(2), 1);
  EXPECT_EQ(Histogram::bucket_of(3), 1);
  EXPECT_EQ(Histogram::bucket_of(4), 2);
  EXPECT_EQ(Histogram::bucket_of(1023), 9);
  EXPECT_EQ(Histogram::bucket_of(1024), 10);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::bucket_lo(0), 0u);
  EXPECT_EQ(Histogram::bucket_lo(10), 1024u);

  Histogram h;
  h.record(0);
  h.record(5);
  h.record(5);
  h.record(1 << 20);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum_ns(), 0u + 5 + 5 + (1 << 20));
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(20), 1u);
}

TEST(Metrics, DisabledRecordersRegisterNothing) {
  ObsGuard guard;
  obs::set_metrics_enabled(false);
  obs::count("obs_test.off_counter");
  obs::observe_ns("obs_test.off_hist", 42);
  obs::gauge_set("obs_test.off_gauge", 1);
  obs::set_metrics_enabled(true);
  const auto snap = obs::MetricsRegistry::instance().snapshot();
  for (const auto& [name, v] : snap.counters) EXPECT_NE(name, "obs_test.off_counter");
  for (const auto& h : snap.histograms) EXPECT_NE(h.name, "obs_test.off_hist");
  for (const auto& [name, v] : snap.gauges) EXPECT_NE(name, "obs_test.off_gauge");
}

// --- span rings -------------------------------------------------------------

TEST(Trace, SpansDrainAcrossThreads) {
  ObsGuard guard;
  obs::set_trace_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kSpans = 100;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([] {
      for (int i = 0; i < kSpans; ++i) {
        obs::Span s("obs_test.span", "test", i);
      }
    });
  }
  for (auto& t : ts) t.join();

  const auto spans = obs::drain_spans();
  EXPECT_EQ(spans.size(), static_cast<std::size_t>(kThreads * kSpans));
  std::vector<std::uint32_t> tids;
  for (const auto& s : spans) {
    EXPECT_STREQ(s.name, "obs_test.span");
    EXPECT_LE(s.t0_ns, s.t1_ns);
    tids.push_back(s.tid);
  }
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
  EXPECT_EQ(obs::dropped_spans(), 0u);
  // The drain cleared the rings.
  EXPECT_TRUE(obs::drain_spans().empty());
}

TEST(Trace, DisabledSpanRecordsNothing) {
  ObsGuard guard;
  obs::set_trace_enabled(false);
  { obs::Span s("obs_test.off", "test"); }
  obs::set_trace_enabled(true);
  EXPECT_TRUE(obs::drain_spans().empty());
}

// --- exporters --------------------------------------------------------------

TEST(Export, ChromeTraceJsonIsWellFormed) {
  ObsGuard guard;
  obs::set_trace_enabled(true);
  {
    obs::Span a("obs_test.outer", "test", 3);
    obs::Span b("obs_test.inner", "test");
  }
  const auto spans = obs::drain_spans();
  ASSERT_EQ(spans.size(), 2u);
  const std::string json = obs::chrome_trace_json(spans);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("obs_test.outer"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);

  // Empty input is still a valid document.
  EXPECT_TRUE(JsonChecker(obs::chrome_trace_json({})).valid());
}

TEST(Export, MetricsJsonIsWellFormed) {
  ObsGuard guard;
  obs::set_metrics_enabled(true);
  auto& mr = obs::MetricsRegistry::instance();
  mr.counter("obs_test.a").add(1);
  mr.counter("obs_test.b").add(2);
  mr.gauge("obs_test.g").set(-5);
  mr.histogram("obs_test.h").record(100);
  const std::string json = obs::metrics_json(mr.snapshot());
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"obs_test.a\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_TRUE(JsonChecker(obs::metrics_json(obs::MetricsSnapshot{})).valid());
}

// --- OperatorStats discipline ----------------------------------------------

TEST(Stats, AddSchedulerPassAccumulatesElementWise) {
  OperatorStats s;
  s.add_scheduler_pass(4, 1, {10, 20});
  s.add_scheduler_pass(4, 2, {1, 2, 3});  // wider pool on a later pass
  EXPECT_EQ(s.tasks, 8);
  EXPECT_EQ(s.privatized_tasks, 3);
  ASSERT_EQ(s.busy_ns_per_context.size(), 3u);
  EXPECT_EQ(s.busy_ns_per_context[0], 11u);
  EXPECT_EQ(s.busy_ns_per_context[1], 22u);
  EXPECT_EQ(s.busy_ns_per_context[2], 3u);
}

TEST(Stats, LoadImbalanceSentinels) {
  OperatorStats s;
  EXPECT_DOUBLE_EQ(s.load_imbalance(), 0.0);  // no pass ran

  s.add_scheduler_pass(0, 0, {0, 0});
  EXPECT_DOUBLE_EQ(s.load_imbalance(), 1.0);  // ran with nothing to do

  OperatorStats t;
  t.add_scheduler_pass(8, 0, {0, 0});
  EXPECT_DOUBLE_EQ(t.load_imbalance(), 0.0);  // unmeasurable, not perfect

  OperatorStats u;
  u.add_scheduler_pass(8, 0, {100, 300});
  EXPECT_DOUBLE_EQ(u.load_imbalance(), 1.5);  // max 300 / mean 200
}

struct Fixture {
  GridDesc g;
  datasets::SampleSet set;
};

Fixture make_fixture(int threads_hint = 2) {
  (void)threads_hint;
  Fixture f;
  f.g = make_grid(3, 12, 2.0);
  f.set = testing::small_trajectory(TrajectoryType::kRadial, 3, 12, 400);
  return f;
}

void expect_phase_invariant(const OperatorStats& s, const char* what) {
  // total_s spans the whole apply, the phases are disjoint sub-intervals:
  // phase_sum ≤ total (up to clock granularity), and the slack is bounded
  // overhead, not a missing phase.
  EXPECT_GT(s.total_s, 0.0) << what;
  EXPECT_LE(s.phase_sum(), s.total_s + 1e-6) << what;
  EXPECT_LE(s.total_s - s.phase_sum(), 0.5 * s.total_s + 1e-3) << what;
}

TEST(Stats, PhaseSumMatchesTotalAcrossOperators) {
  Fixture f = make_fixture();
  PlanConfig cfg;
  cfg.threads = 2;
  cvecf img = testing::random_image(f.g.image_elems(), 1);
  cvecf raw = testing::random_raw(f.set.count(), 2);
  cvecf img_out(static_cast<std::size_t>(f.g.image_elems()));
  cvecf raw_out(static_cast<std::size_t>(f.set.count()));

  Nufft plan(f.g, f.set, cfg);
  plan.forward(img.data(), raw_out.data());
  expect_phase_invariant(plan.last_forward_stats(), "Nufft::forward");
  plan.adjoint(raw.data(), img_out.data());
  expect_phase_invariant(plan.last_adjoint_stats(), "Nufft::adjoint");

  // Reset discipline: a second apply reports one apply's worth of tasks.
  const int tasks_once = plan.last_adjoint_stats().tasks;
  plan.adjoint(raw.data(), img_out.data());
  EXPECT_EQ(plan.last_adjoint_stats().tasks, tasks_once);
  expect_phase_invariant(plan.last_adjoint_stats(), "Nufft::adjoint (2nd)");

  baselines::ReferenceNufft ref(f.g, f.set, 4.0, 2);
  ref.forward(img.data(), raw_out.data());
  expect_phase_invariant(ref.last_forward_stats(), "ReferenceNufft::forward");
  ref.adjoint(raw.data(), img_out.data());
  expect_phase_invariant(ref.last_adjoint_stats(), "ReferenceNufft::adjoint");
  ref.adjoint(raw.data(), img_out.data());
  expect_phase_invariant(ref.last_adjoint_stats(), "ReferenceNufft::adjoint (2nd)");

  BatchNufft batch(plan, 2);
  cvecf imgs = testing::random_image(4 * f.g.image_elems(), 3);
  cvecf raws = testing::random_raw(4 * f.set.count(), 4);
  cvecf imgs_out(static_cast<std::size_t>(4 * f.g.image_elems()));
  cvecf raws_out(static_cast<std::size_t>(4 * f.set.count()));
  batch.forward(imgs.data(), raws_out.data(), 4);
  expect_phase_invariant(batch.last_forward_stats(), "BatchNufft::forward");
  batch.adjoint(raws.data(), imgs_out.data(), 4);
  expect_phase_invariant(batch.last_adjoint_stats(), "BatchNufft::adjoint");
}

// Regression for the multi-pass busy-time loss: a capacity-2 BatchNufft
// applied to 4 slices runs two scheduler walks; the per-apply stats must
// cover both, not just the last one.
TEST(Stats, MultiPassAdjointBusyCoversAllWalks) {
  Fixture f = make_fixture();
  PlanConfig cfg;
  cfg.threads = 2;
  Nufft plan(f.g, f.set, cfg);
  BatchNufft batch(plan, 2);

  cvecf raws = testing::random_raw(4 * f.set.count(), 5);
  cvecf imgs_out(static_cast<std::size_t>(4 * f.g.image_elems()));

  batch.adjoint(raws.data(), imgs_out.data(), 2);  // one walk
  const OperatorStats one = batch.last_adjoint_stats();
  const std::uint64_t busy_one = std::accumulate(one.busy_ns_per_context.begin(),
                                                 one.busy_ns_per_context.end(),
                                                 std::uint64_t{0});
  ASSERT_GT(one.tasks, 0);
  ASSERT_GT(busy_one, 0u);

  batch.adjoint(raws.data(), imgs_out.data(), 4);  // two walks, equal work each
  const OperatorStats two = batch.last_adjoint_stats();
  const std::uint64_t busy_two = std::accumulate(two.busy_ns_per_context.begin(),
                                                 two.busy_ns_per_context.end(),
                                                 std::uint64_t{0});
  // Task counts are deterministic: exactly double.
  EXPECT_EQ(two.tasks, 2 * one.tasks);
  EXPECT_EQ(two.privatized_tasks, 2 * one.privatized_tasks);
  // Busy time covers both walks — strictly more than any single walk. (With
  // the pre-fix overwrite, `two` would report only the final walk ≈ busy_one.)
  EXPECT_GT(busy_two, busy_one);
  EXPECT_EQ(two.busy_ns_per_context.size(), one.busy_ns_per_context.size());
}

// --- spans vs. stats --------------------------------------------------------

TEST(Trace, BatchAdjointSpanSumMatchesStats) {
  ObsGuard guard;
  obs::set_trace_enabled(true);
  Fixture f = make_fixture();
  PlanConfig cfg;
  cfg.threads = 2;
  Nufft plan(f.g, f.set, cfg);
  BatchNufft batch(plan, 2);

  cvecf raws = testing::random_raw(4 * f.set.count(), 6);
  cvecf imgs_out(static_cast<std::size_t>(4 * f.g.image_elems()));
  obs::reset_spans();
  batch.adjoint(raws.data(), imgs_out.data(), 4);
  const OperatorStats stats = batch.last_adjoint_stats();

  const auto spans = obs::drain_spans();
  double conv_span_s = 0.0, fft_span_s = 0.0, scale_span_s = 0.0, apply_span_s = 0.0;
  for (const auto& s : spans) {
    const double dur = static_cast<double>(s.t1_ns - s.t0_ns) * 1e-9;
    if (std::string_view(s.name) == "nufft.conv") conv_span_s += dur;
    if (std::string_view(s.name) == "nufft.fft") fft_span_s += dur;
    if (std::string_view(s.name) == "nufft.scale") scale_span_s += dur;
    if (std::string_view(s.name) == "nufft.adjoint") apply_span_s += dur;
  }
  ASSERT_GT(conv_span_s, 0.0);
  ASSERT_GT(apply_span_s, 0.0);
  // The spans bracket exactly the regions the OperatorStats timers measure,
  // so per phase they must agree within 5% (plus a floor for clock grain).
  const auto close = [](double span_s, double stat_s) {
    return std::abs(span_s - stat_s) <= 0.05 * std::max(span_s, stat_s) + 1e-4;
  };
  EXPECT_TRUE(close(conv_span_s, stats.conv_s))
      << "conv spans " << conv_span_s << " vs stats " << stats.conv_s;
  EXPECT_TRUE(close(fft_span_s, stats.fft_s))
      << "fft spans " << fft_span_s << " vs stats " << stats.fft_s;
  EXPECT_TRUE(close(scale_span_s, stats.scale_s))
      << "scale spans " << scale_span_s << " vs stats " << stats.scale_s;
  EXPECT_TRUE(close(apply_span_s, stats.total_s))
      << "apply span " << apply_span_s << " vs stats " << stats.total_s;
}

// --- engine / registry counters ---------------------------------------------

TEST(Metrics, EngineAndRegistryCountersMirrorStats) {
  ObsGuard guard;
  obs::set_metrics_enabled(true);
  Fixture f = make_fixture();
  auto samples = std::make_shared<datasets::SampleSet>(f.set);
  PlanConfig cfg;
  cfg.threads = 1;

  PlanRegistry registry;
  cvecf img = testing::random_image(f.g.image_elems(), 7);
  std::vector<cvecf> raw_out(4, cvecf(static_cast<std::size_t>(f.set.count())));
  {
    NufftEngine engine({2, 1});
    std::vector<std::future<exec::JobResult>> futs;
    for (int i = 0; i < 4; ++i) {
      futs.push_back(engine.submit(exec::Op::kForward, registry, f.g, samples, cfg,
                                   img.data(), raw_out[static_cast<std::size_t>(i)].data(), 1));
    }
    for (auto& fu : futs) fu.get();
  }

  auto& mr = obs::MetricsRegistry::instance();
  EXPECT_EQ(mr.counter("engine.jobs_submitted").value(), 4u);
  EXPECT_EQ(mr.counter("engine.jobs_completed").value(), 4u);
  EXPECT_EQ(mr.counter("engine.jobs_failed").value(), 0u);
  EXPECT_EQ(mr.histogram("engine.queue_wait_ns").count(), 4u);

  const auto rs = registry.stats();
  EXPECT_EQ(mr.counter("registry.misses").value(), static_cast<std::uint64_t>(rs.misses));
  EXPECT_EQ(mr.counter("registry.hits").value(), static_cast<std::uint64_t>(rs.hits));
  EXPECT_EQ(rs.hits + rs.misses, 4u);
}

}  // namespace
}  // namespace nufft
