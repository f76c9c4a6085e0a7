// RAII span tracer with per-thread ring buffers.
//
// This is the one API behind every trace path in the repo: the scheduler's
// per-job events, the engine's job lifecycle, the per-phase breakdown of
// the apply driver (Nufft::forward/adjoint) and the plan-registry builds
// all record through record_span() / Span. drain_spans() collects
// everything for export as Chrome trace JSON (obs/export.hpp).
//
// Recording model:
//  * Span names and categories must be string literals (static storage) —
//    events store the pointer, never a copy.
//  * Each thread owns a fixed-capacity ring (kRingCapacity events). When the
//    ring wraps, the oldest events are overwritten and counted in
//    dropped_spans() — tracing never blocks or allocates on the hot path
//    after a thread's first span.
//  * A ring is guarded by its own mutex so drain_spans() can run while
//    workers are still recording; the owning thread's lock is uncontended in
//    steady state, which keeps the per-span cost at ~a timestamp plus a
//    handful of stores.
//  * When tracing is off (obs::trace_enabled() false) constructing a Span
//    costs one relaxed atomic load; nothing is recorded.
#pragma once

#include <cstdint>
#include <vector>

#include "common/timer.hpp"
#include "obs/obs.hpp"

namespace nufft::obs {

struct SpanEvent {
  const char* name;  // static-storage strings only
  const char* cat;
  std::uint64_t t0_ns;
  std::uint64_t t1_ns;
  std::uint32_t tid;     // dense per-process thread id (see thread_id())
  std::int64_t arg;      // optional payload (task id, batch width); -1 = none
};

/// Dense id of the calling thread, assigned on first use. Stable for the
/// thread's lifetime; exported as the "tid" of its spans.
std::uint32_t thread_id();

/// Append a completed span to the calling thread's ring.
void record_span(const char* name, const char* cat, std::uint64_t t0_ns, std::uint64_t t1_ns,
                 std::int64_t arg = -1);

/// Collect every thread's buffered spans (oldest first per thread) and clear
/// the rings. Safe to call while other threads keep recording.
std::vector<SpanEvent> drain_spans();

/// Spans overwritten by ring wrap-around since the last drain/reset.
std::uint64_t dropped_spans();

/// Drop all buffered spans and zero the dropped counter (tests).
void reset_spans();

/// RAII span: times from construction to destruction when tracing is on.
class Span {
 public:
  explicit Span(const char* name, const char* cat = "nufft", std::int64_t arg = -1)
      : name_(name), cat_(cat), arg_(arg), t0_(trace_enabled() ? now_ns() : 0) {}
  ~Span() {
    if (t0_ != 0) record_span(name_, cat_, t0_, now_ns(), arg_);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  const char* cat_;
  std::int64_t arg_;
  std::uint64_t t0_;  // 0: tracing was off at construction
};

}  // namespace nufft::obs
