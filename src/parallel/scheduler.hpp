// Task-queue scheduler for the adjoint convolution
// (paper §III-B2 "Task Queue Scheduling", §III-B3 "Priority Queue",
//  §III-B4 "Selective Privatization with Reduction").
//
// Execution model:
//   * Every TDG node owns one unit of grid-exclusive work. For a normal
//     task that is the convolution of its samples; for a *privatized* task
//     it is only the cheap reduction (merge of the task's private buffer
//     into the global grid) — the expensive private convolution runs as a
//     dependency-free job that can start immediately.
//   * A node becomes ready when its TDG predecessors have completed and,
//     if privatized, its private convolution has finished.
//   * Ready jobs sit in a priority queue ordered by sample count, so long
//     tasks start as early as possible (Fig. 12 group C); a FIFO queue is
//     available as the ablation baseline (group B).
//
// The scheduler is workload-agnostic: callers supply the convolve /
// private-convolve / reduce bodies. An optional trace records
// (job, context, start, end) for the mutual-exclusion tests and the
// load-balance statistics.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "parallel/task_graph.hpp"
#include "parallel/thread_pool.hpp"

namespace nufft {

enum class JobPhase : int {
  kConvolve = 0,         // normal task: convolve samples into the global grid
  kPrivateConvolve = 1,  // privatized task: convolve into the private buffer
  kReduce = 2,           // privatized task: merge private buffer into the grid
};

struct TraceEvent {
  std::int32_t task;
  JobPhase phase;
  int tid;
  std::uint64_t t0_ns;
  std::uint64_t t1_ns;
};

struct SchedulerConfig {
  bool priority_queue = true;  // false: FIFO (Fig. 12 ablation)
  bool record_trace = false;
};

struct SchedulerStats {
  int tasks = 0;
  int privatized_tasks = 0;
  std::vector<std::uint64_t> busy_ns_per_context;
  std::vector<TraceEvent> trace;  // populated when record_trace
};

/// Execute one pass of the TDG.
///   weights[t]     — priority of task t (its sample count)
///   privatized[t]  — nonzero when task t uses selective privatization;
///                    an empty vector marks no task
///   body(t, tid, phase) — performs the work of `phase` for task t on
///                         execution context tid
/// Blocks until every node has completed. Returns scheduling statistics.
SchedulerStats run_task_graph(const TaskGraph& graph, const std::vector<index_t>& weights,
                              const std::vector<char>& privatized, ThreadPool& pool,
                              const std::function<void(int, int, JobPhase)>& body,
                              const SchedulerConfig& cfg = {});

/// Ablation baseline (paper §III-B2, contrasting Zhang et al. [30]):
/// execute the same task set color-by-color — tasks of equal turn run in
/// parallel, with a barrier between turns in Gray-code order. Privatization
/// is not used; every task runs as JobPhase::kConvolve.
SchedulerStats run_task_graph_colored(const TaskGraph& graph,
                                      const std::vector<index_t>& weights, ThreadPool& pool,
                                      const std::function<void(int, int, JobPhase)>& body);

}  // namespace nufft
