#include "exec/engine.hpp"

#include <algorithm>
#include <chrono>
#include <new>
#include <utility>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "core/convolution.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace nufft::exec {

namespace {

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - since)
                                        .count());
}

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Fire a job's completion hook after its promise has been resolved. The hook
// contract (JobOptions::on_complete) promises a ready future and exactly one
// invocation; a throwing hook is a caller bug we contain rather than letting
// it tear down a worker thread.
void notify_complete(const JobOptions& opts) noexcept {
  if (!opts.on_complete) return;
  try {
    opts.on_complete();
  } catch (...) {
  }
}

}  // namespace

NufftEngine::NufftEngine(EngineConfig cfg) : cfg_(cfg) {
  NUFFT_CHECK(cfg_.workers >= 1);
  NUFFT_CHECK(cfg_.threads_per_worker >= 1);
  threads_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int w = 0; w < cfg_.workers; ++w) {
    threads_.emplace_back([this] { worker_main(); });
  }
  if (cfg_.stall_threshold.count() >= 0) {
    watchdog_ = std::thread([this] { watchdog_main(); });
  }
}

NufftEngine::~NufftEngine() { shutdown(); }

void NufftEngine::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  {
    std::lock_guard<std::mutex> lock(wd_mu_);
    wd_stop_ = true;
  }
  cv_.notify_all();
  wd_cv_.notify_all();
  // Exactly one caller joins; concurrent shutdown() calls (including the
  // destructor racing an explicit shutdown from another thread) block here
  // until the drain completes instead of racing on std::thread::join.
  // The watchdog goes first: it is the only thread that grows threads_, so
  // once it is joined the worker join loop iterates a stable vector. A truly
  // wedged worker blocks the join until its apply returns — the watchdog has
  // already resolved its future, but thread teardown cannot be forced.
  std::call_once(join_once_, [this] {
    if (watchdog_.joinable()) watchdog_.join();
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  });
}

EngineLoad NufftEngine::load() const {
  std::lock_guard<std::mutex> lock(mu_);
  return EngineLoad{queue_.size(), active_, static_cast<int>(threads_.size())};
}

std::future<JobResult> NufftEngine::submit(Op op, std::shared_ptr<const Nufft> plan,
                                           const cfloat* in, cfloat* out, index_t batch,
                                           const JobOptions& opts) {
  NUFFT_CHECK(plan != nullptr);
  NUFFT_CHECK(batch >= 1);
  Job job;
  job.op = op;
  job.resolve_plan = [p = std::move(plan)] { return p; };
  job.in = in;
  job.out = out;
  job.batch = batch;
  job.options = opts;
  return enqueue(std::move(job));
}

std::future<JobResult> NufftEngine::submit(Op op, PlanRegistry& registry, const GridDesc& g,
                                           std::shared_ptr<const datasets::SampleSet> samples,
                                           const PlanConfig& cfg, const cfloat* in, cfloat* out,
                                           index_t batch, const JobOptions& opts) {
  NUFFT_CHECK(samples != nullptr);
  NUFFT_CHECK(batch >= 1);
  Job job;
  job.op = op;
  job.resolve_plan = [&registry, g, s = std::move(samples), cfg] {
    return registry.acquire(g, *s, cfg);
  };
  job.in = in;
  job.out = out;
  job.batch = batch;
  job.options = opts;
  return enqueue(std::move(job));
}

std::future<JobResult> NufftEngine::submit_update(
    PlanRegistry& registry, const GridDesc& g, std::string old_key,
    std::shared_ptr<const datasets::SampleSet> new_samples, const PlanConfig& cfg,
    std::shared_ptr<PlanUpdateResult> result, const std::string& tenant,
    const JobOptions& opts) {
  NUFFT_CHECK(new_samples != nullptr);
  Job job;
  job.op = Op::kForward;  // unused: plan_only jobs never apply
  job.plan_only = true;
  job.resolve_plan = [&registry, g, key = std::move(old_key), s = std::move(new_samples), cfg,
                      tenant, r = std::move(result)] {
    PlanUpdateResult upd = registry.update_plan(g, key, *s, cfg, tenant);
    if (r != nullptr) *r = upd;
    return upd.plan;
  };
  job.options = opts;
  obs::count("engine.plan_updates_submitted");
  return enqueue(std::move(job));
}

std::future<JobResult> NufftEngine::enqueue(Job job) {
  auto fut = job.promise.get_future();
  job.submitted = std::chrono::steady_clock::now();
  if (job.options.timeout.count() >= 0) {
    // Stamped at submission, so queue residence counts against the budget.
    // timeout == 0 is already expired here — the job deterministically
    // resolves with kTimeout at dispatch.
    job.deadline = job.submitted + job.options.timeout;
    job.has_deadline = true;
  }
  obs::count("engine.jobs_submitted");
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stop_) {
      queue_.push_back(std::move(job));
      cv_.notify_one();
      return fut;
    }
  }
  // Racing submit against shutdown is benign: the caller gets a future that
  // reports the job as cancelled instead of a crashed submitter. Resolved
  // outside the lock so the completion hook may inspect the engine.
  obs::count("engine.jobs_rejected");
  job.promise.set_exception(std::make_exception_ptr(
      Error("job submitted after engine shutdown", ErrorCode::kCancelled)));
  notify_complete(job.options);
  return fut;
}

void NufftEngine::worker_main() {
  // Each worker owns its pool: applies use run_on_all, which must not nest,
  // so concurrent jobs need disjoint execution contexts.
  ThreadPool pool(cfg_.threads_per_worker);
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and queue drained
      job = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    obs::observe_ns("engine.queue_wait_ns", elapsed_ns(job.submitted));
    // Shared record the watchdog can see: promise ownership moves here so a
    // stalled job can be resolved from outside this (possibly wedged) thread.
    auto rec = std::make_shared<Running>();
    rec->options = job.options;
    rec->promise = std::move(job.promise);
    rec->last_beat_ns.store(steady_now_ns(), std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(wd_mu_);
      running_.push_back(rec);
    }
    bool expelled = false;
    try {
      obs::Span span("engine.job", "engine", job.batch);
      JobResult result = dispatch_job(job, pool, *rec);
      if (!rec->claimed.exchange(true)) {
        rec->promise.set_value(std::move(result));
        obs::count("engine.jobs_completed");
        notify_complete(rec->options);
      } else {
        expelled = true;
      }
    } catch (...) {
      if (!rec->claimed.exchange(true)) {
        obs::count("engine.jobs_failed");
        rec->promise.set_exception(std::current_exception());
        notify_complete(rec->options);
      } else {
        expelled = true;
      }
    }
    {
      // Only now may the submitter's buffers die: the apply has returned, so
      // releasing options.keepalive (held via rec) is safe.
      std::lock_guard<std::mutex> lock(wd_mu_);
      running_.erase(std::find(running_.begin(), running_.end(), rec));
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
    }
    idle_cv_.notify_all();
    if (expelled) {
      // The watchdog already resolved this job kTimeout and spawned a
      // replacement worker; exiting keeps the worker count at cfg_.workers.
      // Release ordering: a caller that observes this count through
      // watchdog_stats() must also observe the late apply's buffer writes —
      // it is the only signal that the expelled worker is done with them.
      wd_late_.fetch_add(1, std::memory_order_release);
      obs::count("engine.watchdog_late_completions");
      return;
    }
  }
}

void NufftEngine::watchdog_main() {
  const auto threshold = std::chrono::nanoseconds(cfg_.stall_threshold).count();
  auto poll = cfg_.watchdog_poll;
  if (poll.count() <= 0) {
    poll = std::clamp(cfg_.stall_threshold / 4, std::chrono::milliseconds{5},
                      std::chrono::milliseconds{500});
  }
  for (;;) {
    // Claim stalled jobs under wd_mu_, act on them outside it: promise
    // resolution fires user code (future waiters, on_complete) and the
    // quarantine takes the registry lock — neither belongs under wd_mu_.
    std::vector<std::pair<std::shared_ptr<Running>, std::shared_ptr<const Nufft>>> stalled;
    {
      std::unique_lock<std::mutex> lock(wd_mu_);
      wd_cv_.wait_for(lock, poll, [this] { return wd_stop_; });
      if (wd_stop_) return;
      const std::int64_t now = steady_now_ns();
      for (const auto& rec : running_) {
        if (now - rec->last_beat_ns.load(std::memory_order_relaxed) < threshold) continue;
        if (rec->claimed.exchange(true)) continue;  // worker is resolving right now
        stalled.emplace_back(rec, rec->plan);
      }
    }
    for (auto& [rec, plan] : stalled) {
      wd_stalls_.fetch_add(1, std::memory_order_relaxed);
      obs::count("engine.watchdog_stalls");
      rec->promise.set_exception(std::make_exception_ptr(
          Error("watchdog: job heartbeat exceeded the stall threshold (" +
                    std::to_string(cfg_.stall_threshold.count()) + " ms); worker presumed hung",
                ErrorCode::kTimeout)));
      if (cfg_.watchdog_registry != nullptr && plan != nullptr &&
          cfg_.watchdog_registry->quarantine_plan(plan, "watchdog: apply hung on this plan")) {
        wd_quarantines_.fetch_add(1, std::memory_order_relaxed);
      }
      notify_complete(rec->options);
      {
        // Restore the worker slot the wedged thread occupies. Skipped during
        // shutdown — stop_ is set, so a new worker would exit immediately
        // and the join loop may already be iterating threads_.
        std::lock_guard<std::mutex> lock(mu_);
        if (!stop_) {
          threads_.emplace_back([this] { worker_main(); });
          wd_replacements_.fetch_add(1, std::memory_order_relaxed);
          obs::count("engine.watchdog_replacements");
        }
      }
    }
  }
}

WatchdogStats NufftEngine::watchdog_stats() const {
  // Acquire pairs with the release increment of wd_late_ in worker_main:
  // seeing late_completions == n makes the expelled workers' final buffer
  // writes visible, so observers may reclaim job buffers afterwards.
  WatchdogStats s;
  s.stalls = wd_stalls_.load(std::memory_order_relaxed);
  s.quarantines = wd_quarantines_.load(std::memory_order_relaxed);
  s.replacements = wd_replacements_.load(std::memory_order_relaxed);
  s.late_completions = wd_late_.load(std::memory_order_acquire);
  return s;
}

JobResult NufftEngine::dispatch_job(Job& job, ThreadPool& pool, Running& rec) {
  constexpr std::chrono::milliseconds kBackoffCap{250};
  constexpr std::chrono::milliseconds kSleepSlice{10};
  int attempt = 0;
  auto backoff = std::max(job.options.retry_backoff, std::chrono::milliseconds{1});
  for (;;) {
    rec.last_beat_ns.store(steady_now_ns(), std::memory_order_relaxed);
    if (job.options.cancel && job.options.cancel->cancelled()) {
      obs::count("engine.jobs_cancelled");
      throw Error("job cancelled before dispatch", ErrorCode::kCancelled);
    }
    if (job.has_deadline && std::chrono::steady_clock::now() >= job.deadline) {
      obs::count("engine.jobs_timeout");
      throw Error("job deadline expired", ErrorCode::kTimeout);
    }
    try {
      return run_job(job, pool, rec);
    } catch (const std::bad_alloc&) {
      if (attempt >= job.options.max_retries) {
        throw Error("job allocation failed and retry budget is exhausted",
                    ErrorCode::kResourceExhausted);
      }
    } catch (const Error& e) {
      // Deterministic failures (bad input, plan build bugs, cancellation)
      // would fail identically on every attempt — rethrow immediately.
      if (!is_retryable(e.code()) || attempt >= job.options.max_retries) throw;
    }
    ++attempt;
    obs::count("engine.retries");
    // Exponential backoff, sliced so cancellation and the deadline are
    // honoured mid-sleep (the loop head converts them to kCancelled /
    // kTimeout on wakeup).
    auto remaining = backoff;
    while (remaining.count() > 0) {
      if (job.options.cancel && job.options.cancel->cancelled()) break;
      if (job.has_deadline && std::chrono::steady_clock::now() >= job.deadline) break;
      const auto slice = std::min(remaining, kSleepSlice);
      std::this_thread::sleep_for(slice);
      remaining -= slice;
      // Backing off is not a stall — keep the watchdog fed between attempts.
      rec.last_beat_ns.store(steady_now_ns(), std::memory_order_relaxed);
    }
    backoff = std::min(backoff * 2, kBackoffCap);
  }
}

JobResult NufftEngine::run_job(Job& job, ThreadPool& pool, Running& rec) {
  std::shared_ptr<const Nufft> plan = job.resolve_plan();
  {
    // Publish the plan so a stall claimed from here on can quarantine it,
    // and re-stamp the heartbeat: plan resolution may legitimately have
    // taken a while (registry builds run inside the worker) and the apply's
    // budget starts now.
    std::lock_guard<std::mutex> lock(wd_mu_);
    rec.plan = plan;
  }
  rec.last_beat_ns.store(steady_now_ns(), std::memory_order_relaxed);
  // Chaos site: a hung apply, from the watchdog's point of view. The stall
  // duration comes from the site's param (milliseconds).
  fault::maybe_stall("engine.apply.stall");
  // Plan-update jobs are done once the plan resolved — nothing to apply.
  if (job.plan_only) return JobResult{};
  JobResult result;
  auto ws = lease_workspace(plan, std::min(job.batch, kMaxBatch));
  // A throwing apply must still return the lease: every apply fully
  // overwrites or re-zeroes the workspace buffers, so a lease that saw a
  // failure is indistinguishable from a fresh one and pooling it back
  // cannot poison later jobs. Leaking it instead would shrink the pool by
  // one slot per failure until every job allocates from scratch.
  try {
    fault::inject("engine.apply", ErrorCode::kInternal);
    fault::inject("engine.apply.transient", ErrorCode::kResourceExhausted);
    // One pointer per slice; a single-slice job points at its own buffers.
    const cfloat* const* in = &job.in;
    cfloat* const* out = &job.out;
    std::vector<const cfloat*> ins;
    std::vector<cfloat*> outs;
    if (job.batch > 1) {
      const index_t in_stride =
          job.op == Op::kForward ? plan->image_elems() : plan->sample_count();
      const index_t out_stride =
          job.op == Op::kForward ? plan->sample_count() : plan->image_elems();
      for (index_t b = 0; b < job.batch; ++b) {
        ins.push_back(job.in + b * in_stride);
        outs.push_back(job.out + b * out_stride);
      }
      in = ins.data();
      out = outs.data();
    }
    if (job.op == Op::kForward) {
      plan->forward(in, out, job.batch, *ws, pool);
      result.stats = ws->fwd_stats;
    } else {
      plan->adjoint(in, out, job.batch, *ws, pool);
      result.stats = ws->adj_stats;
    }
    result.trace = std::move(ws->trace);
  } catch (...) {
    return_workspace(plan.get(), std::move(ws));
    throw;
  }
  return_workspace(plan.get(), std::move(ws));
  return result;
}

std::unique_ptr<Workspace> NufftEngine::lease_workspace(const std::shared_ptr<const Nufft>& plan,
                                                        index_t lanes) {
  {
    std::lock_guard<std::mutex> lock(lease_mu_);
    LeasePool& lp = leases_[plan.get()];
    if (!lp.pin) lp.pin = plan;
    // Best fit: the narrowest free workspace that holds the job, so a
    // single-slice job does not tie up a wide one a batched job could use.
    // Ties go to the most recently returned.
    auto best = lp.workspaces.rend();
    for (auto it = lp.workspaces.rbegin(); it != lp.workspaces.rend(); ++it) {
      const index_t have = plan->lanes(**it);
      if (have >= lanes && (best == lp.workspaces.rend() || have < plan->lanes(**best))) {
        best = it;
      }
    }
    if (best != lp.workspaces.rend()) {
      auto ws = std::move(*best);
      lp.workspaces.erase(std::next(best).base());
      return ws;
    }
  }
  return std::make_unique<Workspace>(plan->make_workspace(lanes));
}

void NufftEngine::return_workspace(const Nufft* plan, std::unique_ptr<Workspace> ws) {
  std::lock_guard<std::mutex> lock(lease_mu_);
  leases_[plan].workspaces.push_back(std::move(ws));
}

std::vector<index_t> NufftEngine::free_workspace_lanes(const Nufft& plan) const {
  std::lock_guard<std::mutex> lock(lease_mu_);
  std::vector<index_t> out;
  const auto it = leases_.find(&plan);
  if (it == leases_.end()) return out;
  for (const auto& ws : it->second.workspaces) out.push_back(plan.lanes(*ws));
  return out;
}

void NufftEngine::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

}  // namespace nufft::exec
