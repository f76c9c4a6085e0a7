#include "parallel/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <queue>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace nufft {

namespace {

// Span names / metric counters per JobPhase, indexed by the enum value.
constexpr const char* kPhaseSpanName[3] = {"sched.convolve", "sched.private_convolve",
                                           "sched.reduce"};
constexpr const char* kPhaseNsCounter[3] = {"sched.convolve_ns", "sched.private_convolve_ns",
                                            "sched.reduce_ns"};

// Per-walk metric handles, resolved once so the per-job cost is a relaxed
// atomic add (MetricsRegistry references stay valid forever).
struct WalkMetrics {
  obs::Counter* phase_ns[3] = {nullptr, nullptr, nullptr};
  obs::Histogram* job_ns = nullptr;

  explicit WalkMetrics(int ntasks) {
    if (!obs::metrics_enabled()) return;
    auto& mr = obs::MetricsRegistry::instance();
    for (int p = 0; p < 3; ++p) phase_ns[p] = &mr.counter(kPhaseNsCounter[p]);
    job_ns = &mr.histogram("sched.job_ns");
    mr.counter("sched.walks").add(1);
    mr.counter("sched.tasks").add(static_cast<std::uint64_t>(ntasks));
  }

  void record(JobPhase phase, std::uint64_t dur_ns) const {
    const auto p = static_cast<std::size_t>(phase);
    if (phase_ns[p] != nullptr) {
      phase_ns[p]->add(dur_ns);
      job_ns->record(dur_ns);
    }
  }
};

struct Job {
  std::int32_t task;
  JobPhase phase;
  index_t weight;
};

struct JobLess {
  bool operator()(const Job& a, const Job& b) const {
    if (a.weight != b.weight) return a.weight < b.weight;
    return a.task > b.task;  // deterministic tie-break
  }
};

// Ready-job queue: binary heap (priority mode) or FIFO, guarded by one
// mutex. The adjoint TDG produces at most a few jobs per completion, so a
// single lock is not a bottleneck at the task granularities the partitioner
// produces (hundreds of samples per task).
class ReadyQueue {
 public:
  explicit ReadyQueue(bool priority) : priority_(priority) {}

  void push(Job j) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (priority_) {
        heap_.push(j);
      } else {
        fifo_.push_back(j);
      }
    }
    cv_.notify_one();
  }

  /// Blocks until a job is available or `stop()` was called.
  /// Returns false on stop with an empty queue.
  bool pop(Job& out) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return stopped_ || !empty_locked(); });
    if (empty_locked()) return false;
    if (priority_) {
      out = heap_.top();
      heap_.pop();
    } else {
      out = fifo_.front();
      fifo_.pop_front();
    }
    return true;
  }

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopped_ = true;
    }
    cv_.notify_all();
  }

 private:
  bool empty_locked() const { return priority_ ? heap_.empty() : fifo_.empty(); }

  bool priority_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::priority_queue<Job, std::vector<Job>, JobLess> heap_;
  std::deque<Job> fifo_;
  bool stopped_ = false;
};

}  // namespace

SchedulerStats run_task_graph(const TaskGraph& graph, const std::vector<index_t>& weights,
                              const std::vector<char>& privatized, ThreadPool& pool,
                              const std::function<void(int, int, JobPhase)>& body,
                              const SchedulerConfig& cfg) {
  const int n = graph.size();
  NUFFT_CHECK(static_cast<int>(weights.size()) == n);
  NUFFT_CHECK(privatized.empty() || static_cast<int>(privatized.size()) == n);
  const auto is_private = [&](int t) {
    return !privatized.empty() && privatized[static_cast<std::size_t>(t)] != 0;
  };

  SchedulerStats stats;
  stats.tasks = n;
  stats.busy_ns_per_context.assign(static_cast<std::size_t>(pool.size()), 0);
  if (n == 0) return stats;

  // pending[t] = TDG predecessors + 1 if the private convolution must also
  // finish before the node's grid-exclusive work may run.
  std::vector<std::atomic<int>> pending(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) {
    const int extra = is_private(t) ? 1 : 0;
    pending[static_cast<std::size_t>(t)].store(graph.node(t).num_preds + extra,
                                               std::memory_order_relaxed);
    if (extra) ++stats.privatized_tasks;
  }

  ReadyQueue queue(cfg.priority_queue);
  std::atomic<int> completed{0};  // TDG nodes whose grid-exclusive work is done

  // Grid-exclusive phase of a node: convolve for normal tasks, reduce for
  // privatized ones.
  auto node_phase = [&](int t) {
    return is_private(t) ? JobPhase::kReduce : JobPhase::kConvolve;
  };
  auto push_node = [&](int t) {
    queue.push(Job{t, node_phase(t), weights[static_cast<std::size_t>(t)]});
  };

  // Seed: private convolutions are dependency-free; TDG roots whose pending
  // count is already zero can start their grid-exclusive work directly.
  for (int t = 0; t < n; ++t) {
    if (is_private(t)) {
      queue.push(Job{t, JobPhase::kPrivateConvolve, weights[static_cast<std::size_t>(t)]});
    }
  }
  for (const std::int32_t t : graph.roots()) {
    if (pending[static_cast<std::size_t>(t)].load(std::memory_order_relaxed) == 0) push_node(t);
  }

  std::mutex trace_mu;
  const WalkMetrics metrics(n);
  const bool spans = obs::trace_enabled();

  pool.run_on_all([&](int tid) {
    Job job;
    while (queue.pop(job)) {
      const std::uint64_t t0 = now_ns();
      body(job.task, tid, job.phase);
      const std::uint64_t t1 = now_ns();
      stats.busy_ns_per_context[static_cast<std::size_t>(tid)] += t1 - t0;
      metrics.record(job.phase, t1 - t0);
      if (spans) {
        obs::record_span(kPhaseSpanName[static_cast<std::size_t>(job.phase)], "sched", t0, t1,
                         job.task);
      }
      if (cfg.record_trace) {
        std::lock_guard<std::mutex> lock(trace_mu);
        stats.trace.push_back(TraceEvent{job.task, job.phase, tid, t0, t1});
      }

      if (job.phase == JobPhase::kPrivateConvolve) {
        // Releases the node's own +1; the reduction may now be pending only
        // on TDG predecessors.
        if (pending[static_cast<std::size_t>(job.task)].fetch_sub(1, std::memory_order_acq_rel) == 1) {
          push_node(job.task);
        }
        continue;
      }

      // Grid-exclusive work of `job.task` finished: release successors.
      const TaskNode& node = graph.node(job.task);
      for (int i = 0; i < node.num_succs; ++i) {
        const std::int32_t s = node.succs[static_cast<std::size_t>(i)];
        if (pending[static_cast<std::size_t>(s)].fetch_sub(1, std::memory_order_acq_rel) == 1) {
          push_node(s);
        }
      }
      if (completed.fetch_add(1, std::memory_order_acq_rel) + 1 == n) queue.stop();
    }
  });

  NUFFT_CHECK_MSG(completed.load() == n, "task graph did not drain");
  return stats;
}

SchedulerStats run_task_graph_colored(const TaskGraph& graph,
                                      const std::vector<index_t>& weights, ThreadPool& pool,
                                      const std::function<void(int, int, JobPhase)>& body) {
  const int n = graph.size();
  NUFFT_CHECK(static_cast<int>(weights.size()) == n);
  SchedulerStats stats;
  stats.tasks = n;
  stats.busy_ns_per_context.assign(static_cast<std::size_t>(pool.size()), 0);
  if (n == 0) return stats;

  int max_rank = 0;
  for (int t = 0; t < n; ++t) max_rank = std::max(max_rank, graph.node(t).gray_rank);
  std::vector<std::vector<std::int32_t>> by_rank(static_cast<std::size_t>(max_rank) + 1);
  for (int t = 0; t < n; ++t) {
    by_rank[static_cast<std::size_t>(graph.node(t).gray_rank)].push_back(t);
  }
  // Large tasks first within a color — the closest analogue of the priority
  // queue the barrier model allows.
  for (auto& group : by_rank) {
    std::sort(group.begin(), group.end(), [&](std::int32_t a, std::int32_t b) {
      return weights[static_cast<std::size_t>(a)] > weights[static_cast<std::size_t>(b)];
    });
  }

  const WalkMetrics metrics(n);
  const bool spans = obs::trace_enabled();
  for (const auto& group : by_rank) {
    // parallel_for returns only when the whole color finished: the barrier.
    pool.parallel_for_tid(static_cast<index_t>(group.size()), 1,
                          [&](int tid, index_t b, index_t e) {
                            for (index_t i = b; i < e; ++i) {
                              const std::int32_t task = group[static_cast<std::size_t>(i)];
                              const std::uint64_t t0 = now_ns();
                              body(task, tid, JobPhase::kConvolve);
                              const std::uint64_t t1 = now_ns();
                              stats.busy_ns_per_context[static_cast<std::size_t>(tid)] +=
                                  t1 - t0;
                              metrics.record(JobPhase::kConvolve, t1 - t0);
                              if (spans) {
                                obs::record_span("sched.convolve", "sched", t0, t1, task);
                              }
                            }
                          });
  }
  return stats;
}

}  // namespace nufft
