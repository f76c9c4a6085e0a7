#include "exec/batch_nufft.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/timer.hpp"
#include "core/convolution.hpp"
#include "core/convolution_avx2.hpp"
#include "exec/batch_conv.hpp"
#include "obs/trace.hpp"
#include "parallel/scheduler.hpp"

namespace nufft::exec {

namespace {

// Convolution loop blocking: windows for kSampleBlock consecutive (sorted)
// samples are staged once, then swept over kSlabGroup slabs at a time. The
// block's windows overlap heavily after bucket sorting, so the touched grid
// region of a slab group stays cache-resident across the whole block, while
// the group width keeps the per-row weight-vector build amortized over
// several slices.
constexpr index_t kSampleBlock = 32;
constexpr index_t kSlabGroup = 8;

inline index_t wrap_coord(index_t v, index_t m) {
  if (v < 0) return v + m;
  if (v >= m) return v - m;
  return v;
}

template <class F1, class F2, class F3>
void dim_dispatch(int dim, F1&& f1, F2&& f2, F3&& f3) {
  switch (dim) {
    case 1:
      f1();
      return;
    case 2:
      f2();
      return;
    case 3:
      f3();
      return;
    default:
      throw Error("unsupported dimension");
  }
}

}  // namespace

BatchNufft::BatchNufft(const Nufft& plan, index_t max_batch)
    : plan_(&plan),
      capacity_(std::min<index_t>(std::max<index_t>(max_batch, 1), kMaxBatch)),
      slab_elems_(static_cast<std::size_t>(plan.grid_desc().grid_elems())),
      conv_mode_(plan.conv_mode()),
      bfft_(plan.grid_desc(), *plan.fft_fwd_, *plan.fft_inv_) {
  // The slabs are the irreducible working set — without them there is no
  // batched apply at all, so this allocation failure propagates.
  slabs_.resize(static_cast<std::size_t>(capacity_) * slab_elems_);
  const auto& pp = plan_->pp_;
  // The private reduction buffers are an optimization: when they cannot be
  // allocated (B × box_elems per over-dense task can dwarf the slabs on
  // dense trajectories), degrade to the TDG-serialized direct-scatter path
  // instead of failing the construction.
  try {
    fault::inject_alloc("batch.private_alloc");
    private_slabs_.resize(pp.tasks.size());
    for (std::size_t k = 0; k < pp.tasks.size(); ++k) {
      if (pp.privatized[k]) {
        private_slabs_[k].resize(static_cast<std::size_t>(capacity_) *
                                 static_cast<std::size_t>(pp.tasks[k].box_elems(plan_->g_.dim)));
      }
    }
  } catch (const std::bad_alloc&) {
    private_slabs_.clear();
    privatization_downgraded_ = true;
    privatized_off_.assign(pp.tasks.size(), 0);
  }
}

BatchNufft::~BatchNufft() = default;

void BatchNufft::clear_slabs(index_t nb, ThreadPool& pool) {
  cfloat* p = slabs_.data();
  const auto total = static_cast<index_t>(static_cast<std::size_t>(nb) * slab_elems_);
  pool.parallel_for(total, [&](index_t b, index_t e) {
    zero_complex(p + b, static_cast<std::size_t>(e - b));
  });
}

void BatchNufft::batch_image_to_grid(const cfloat* const* images, index_t nb,
                                     ThreadPool& pool) {
  clear_slabs(nb, pool);
  const GridDesc& g = plan_->g_;
  const int dim = g.dim;
  const auto st = g.grid_strides();
  const index_t n0 = g.n[0];
  const index_t n1 = dim >= 2 ? g.n[1] : 1;
  const index_t n2 = dim >= 3 ? g.n[2] : 1;
  const auto& scale = plan_->scale_;
  const auto& wrap = plan_->wrap_;
  pool.parallel_for(n0, [&](index_t rb, index_t re) {
    for (index_t i0 = rb; i0 < re; ++i0) {
      const float f0 = scale[0][static_cast<std::size_t>(i0)];
      const index_t g0 = wrap[0][static_cast<std::size_t>(i0)];
      for (index_t i1 = 0; i1 < n1; ++i1) {
        const float f01 = dim >= 2 ? f0 * scale[1][static_cast<std::size_t>(i1)] : f0;
        const index_t g1 = dim >= 2 ? wrap[1][static_cast<std::size_t>(i1)] : 0;
        // Row geometry resolved once, applied to every slice.
        cfloat* dst0 = slabs_.data() + g0 * st[0] + (dim >= 2 ? g1 * st[1] : 0);
        const index_t row_off = (i0 * n1 + i1) * n2;
        for (index_t b = 0; b < nb; ++b) {
          const cfloat* src = images[b] + row_off;
          cfloat* dst = dst0 + static_cast<std::size_t>(b) * slab_elems_;
          if (dim >= 3) {
            for (index_t i2 = 0; i2 < n2; ++i2) {
              dst[wrap[2][static_cast<std::size_t>(i2)]] =
                  src[i2] * (f01 * scale[2][static_cast<std::size_t>(i2)]);
            }
          } else {
            dst[0] = src[0] * f01;
          }
        }
      }
    }
  });
}

void BatchNufft::batch_grid_to_image(cfloat* const* images, index_t nb, ThreadPool& pool) {
  const GridDesc& g = plan_->g_;
  const int dim = g.dim;
  const auto st = g.grid_strides();
  const index_t n0 = g.n[0];
  const index_t n1 = dim >= 2 ? g.n[1] : 1;
  const index_t n2 = dim >= 3 ? g.n[2] : 1;
  const auto& scale = plan_->scale_;
  const auto& wrap = plan_->wrap_;
  pool.parallel_for(n0, [&](index_t rb, index_t re) {
    for (index_t i0 = rb; i0 < re; ++i0) {
      const float f0 = scale[0][static_cast<std::size_t>(i0)];
      const index_t g0 = wrap[0][static_cast<std::size_t>(i0)];
      for (index_t i1 = 0; i1 < n1; ++i1) {
        const float f01 = dim >= 2 ? f0 * scale[1][static_cast<std::size_t>(i1)] : f0;
        const index_t g1 = dim >= 2 ? wrap[1][static_cast<std::size_t>(i1)] : 0;
        const cfloat* src0 = slabs_.data() + g0 * st[0] + (dim >= 2 ? g1 * st[1] : 0);
        const index_t row_off = (i0 * n1 + i1) * n2;
        for (index_t b = 0; b < nb; ++b) {
          cfloat* dst = images[b] + row_off;
          const cfloat* src = src0 + static_cast<std::size_t>(b) * slab_elems_;
          if (dim >= 3) {
            for (index_t i2 = 0; i2 < n2; ++i2) {
              dst[i2] = src[wrap[2][static_cast<std::size_t>(i2)]] *
                        (f01 * scale[2][static_cast<std::size_t>(i2)]);
            }
          } else {
            dst[0] = src[0] * f01;
          }
        }
      }
    }
  });
}

template <int DIM>
void BatchNufft::batch_interp(cfloat* const* raws, index_t nb, ThreadPool& pool) {
  const auto st = plan_->g_.grid_strides();
  const cfloat* slab0 = slabs_.data();
  const auto& pp = plan_->pp_;
  const int ntasks = static_cast<int>(pp.tasks.size());
  const Nufft::ConvMode mode = conv_mode_;
  const bool fill_dup = mode != Nufft::ConvMode::kScalar;
  const WindowEval ev = plan_->window_eval();
  pool.parallel_for_tid(ntasks, 1, [&](int, index_t kb, index_t ke) {
    // Sample-block × slab-group order: consecutive sorted samples' windows
    // overlap heavily, so sweeping a block of samples over a small group of
    // slabs keeps the touched grid region cache-resident, instead of cycling
    // all nb slab working sets through the cache once per sample.
    std::vector<WindowBuf> wbs(static_cast<std::size_t>(kSampleBlock));
    std::vector<index_t> ois(static_cast<std::size_t>(kSampleBlock));
    cfloat outs[kMaxBatch];
    for (index_t k = kb; k < ke; ++k) {
      const ConvTask& task = pp.tasks[static_cast<std::size_t>(k)];
      for (index_t s0 = task.begin; s0 < task.end; s0 += kSampleBlock) {
        const index_t sb = std::min<index_t>(kSampleBlock, task.end - s0);
        for (index_t i = 0; i < sb; ++i) {
          float coord[3];
          for (int d = 0; d < DIM; ++d) {
            coord[d] = pp.coords[static_cast<std::size_t>(d)][static_cast<std::size_t>(s0 + i)];
          }
          compute_window(plan_->g_, ev, coord, DIM, fill_dup,
                         wbs[static_cast<std::size_t>(i)]);
          ois[static_cast<std::size_t>(i)] =
              pp.orig_index[static_cast<std::size_t>(s0 + i)];
        }
        if (mode == Nufft::ConvMode::kScalar) {
          for (index_t b = 0; b < nb; ++b) {
            const cfloat* slab = slab0 + static_cast<std::size_t>(b) * slab_elems_;
            cfloat* raw = raws[b];
            for (index_t i = 0; i < sb; ++i) {
              raw[ois[static_cast<std::size_t>(i)]] =
                  fwd_gather_scalar<DIM>(slab, st, wbs[static_cast<std::size_t>(i)]);
            }
          }
        } else {
          for (index_t b0 = 0; b0 < nb; b0 += kSlabGroup) {
            const index_t gnb = std::min<index_t>(kSlabGroup, nb - b0);
            const cfloat* gslab0 = slab0 + static_cast<std::size_t>(b0) * slab_elems_;
            for (index_t i = 0; i < sb; ++i) {
              const WindowBuf& wb = wbs[static_cast<std::size_t>(i)];
              if (mode == Nufft::ConvMode::kSse) {
                bfwd_gather_sse<DIM>(gslab0, slab_elems_, gnb, st, wb, outs);
              } else {
                bfwd_gather_avx2<DIM>(gslab0, slab_elems_, gnb, st, wb, outs);
              }
              const index_t oi = ois[static_cast<std::size_t>(i)];
              for (index_t b = 0; b < gnb; ++b) raws[b0 + b][oi] = outs[b];
            }
          }
        }
      }
    }
  });
}

template <int DIM>
void BatchNufft::batch_spread(const cfloat* const* raws, index_t nb, ThreadPool& pool,
                              OperatorStats* stats) {
  const auto st = plan_->g_.grid_strides();
  cfloat* slab0 = slabs_.data();
  const auto& pp = plan_->pp_;
  const PlanConfig& cfg = plan_->cfg_;
  const Nufft::ConvMode mode = conv_mode_;
  const bool fill_dup = mode != Nufft::ConvMode::kScalar;
  const WindowEval ev = plan_->window_eval();

  auto convolve_range = [&](const ConvTask& task, cfloat* dst0, std::size_t sstride,
                            const std::array<index_t, 3>& strides, bool box_local) {
    // Sample-block × slab-group order (see batch_interp): windows and raw
    // values for a block of consecutive samples are staged once, then the
    // block is scattered into a few slabs at a time so the overlapping
    // window region stays cache-resident. Per-slab sample order is
    // unchanged, so scalar-mode accumulation stays bit-identical to the
    // single-transform path.
    std::vector<WindowBuf> wbs(static_cast<std::size_t>(kSampleBlock));
    std::vector<cfloat> vals(static_cast<std::size_t>(kSampleBlock * kMaxBatch));
    for (index_t s0 = task.begin; s0 < task.end; s0 += kSampleBlock) {
      const index_t sb = std::min<index_t>(kSampleBlock, task.end - s0);
      for (index_t i = 0; i < sb; ++i) {
        WindowBuf& wb = wbs[static_cast<std::size_t>(i)];
        float coord[3];
        for (int d = 0; d < DIM; ++d) {
          coord[d] = pp.coords[static_cast<std::size_t>(d)][static_cast<std::size_t>(s0 + i)];
        }
        compute_window(plan_->g_, ev, coord, DIM, fill_dup, wb);
        if (box_local) {
          for (int d = 0; d < DIM; ++d) {
            for (int t = 0; t < wb.len[d]; ++t) {
              wb.idx[d][t] = wb.start[d] + t - task.box_lo[static_cast<std::size_t>(d)];
            }
          }
          wb.inner_contiguous = true;
        }
        const index_t oi = pp.orig_index[static_cast<std::size_t>(s0 + i)];
        for (index_t b = 0; b < nb; ++b) {
          vals[static_cast<std::size_t>(i * kMaxBatch + b)] = raws[b][oi];
        }
      }
      if (mode == Nufft::ConvMode::kScalar) {
        for (index_t b = 0; b < nb; ++b) {
          cfloat* dst = dst0 + static_cast<std::size_t>(b) * sstride;
          for (index_t i = 0; i < sb; ++i) {
            adj_scatter_scalar<DIM>(dst, strides, wbs[static_cast<std::size_t>(i)],
                                    vals[static_cast<std::size_t>(i * kMaxBatch + b)]);
          }
        }
      } else {
        for (index_t b0 = 0; b0 < nb; b0 += kSlabGroup) {
          const index_t gnb = std::min<index_t>(kSlabGroup, nb - b0);
          cfloat* gdst0 = dst0 + static_cast<std::size_t>(b0) * sstride;
          for (index_t i = 0; i < sb; ++i) {
            const cfloat* v = vals.data() + static_cast<std::size_t>(i * kMaxBatch + b0);
            if (mode == Nufft::ConvMode::kSse) {
              badj_scatter_sse<DIM>(gdst0, sstride, gnb, strides,
                                    wbs[static_cast<std::size_t>(i)], v);
            } else {
              badj_scatter_avx2<DIM>(gdst0, sstride, gnb, strides,
                                     wbs[static_cast<std::size_t>(i)], v);
            }
          }
        }
      }
    }
  };

  auto body = [&](int task_id, int, JobPhase phase) {
    const ConvTask& task = pp.tasks[static_cast<std::size_t>(task_id)];
    switch (phase) {
      case JobPhase::kConvolve:
        convolve_range(task, slab0, slab_elems_, st, false);
        break;
      case JobPhase::kPrivateConvolve: {
        auto& buf = private_slabs_[static_cast<std::size_t>(task_id)];
        const auto box_elems = static_cast<std::size_t>(task.box_elems(DIM));
        zero_complex(buf.data(), static_cast<std::size_t>(nb) * box_elems);
        std::array<index_t, 3> bst{1, 1, 1};
        for (int d = DIM - 2; d >= 0; --d) {
          bst[static_cast<std::size_t>(d)] =
              bst[static_cast<std::size_t>(d + 1)] *
              (task.box_hi[static_cast<std::size_t>(d + 1)] -
               task.box_lo[static_cast<std::size_t>(d + 1)]);
        }
        convolve_range(task, buf.data(), box_elems, bst, true);
        break;
      }
      case JobPhase::kReduce: {
        // Merge each slice's private box into its slab, wrapping mod M.
        const auto& buf = private_slabs_[static_cast<std::size_t>(task_id)];
        const auto box_elems = static_cast<std::size_t>(task.box_elems(DIM));
        std::array<index_t, 3> blen{1, 1, 1};
        for (int d = 0; d < DIM; ++d) {
          blen[static_cast<std::size_t>(d)] = task.box_hi[static_cast<std::size_t>(d)] -
                                              task.box_lo[static_cast<std::size_t>(d)];
        }
        const index_t rows = DIM >= 2 ? blen[0] * (DIM >= 3 ? blen[1] : 1) : 1;
        const index_t inner = blen[static_cast<std::size_t>(DIM - 1)];
        const GridDesc& g = plan_->g_;
        for (index_t b = 0; b < nb; ++b) {
          cfloat* grid = slab0 + static_cast<std::size_t>(b) * slab_elems_;
          const cfloat* box = buf.data() + static_cast<std::size_t>(b) * box_elems;
          for (index_t r = 0; r < rows; ++r) {
            const index_t b0 = DIM >= 3 ? r / blen[1] : (DIM == 2 ? r : 0);
            const index_t b1 = DIM >= 3 ? r % blen[1] : 0;
            index_t base = 0;
            if (DIM >= 2) base += wrap_coord(task.box_lo[0] + b0, g.m[0]) * st[0];
            if (DIM >= 3) base += wrap_coord(task.box_lo[1] + b1, g.m[1]) * st[1];
            const cfloat* src = box + r * inner;
            const index_t lo = task.box_lo[static_cast<std::size_t>(DIM - 1)];
            const index_t m = g.m[static_cast<std::size_t>(DIM - 1)];
            for (index_t c = 0; c < inner; ++c) {
              grid[base + wrap_coord(lo + c, m)] += src[c];
            }
          }
        }
        break;
      }
    }
  };

  SchedulerStats sstats;
  if (cfg.color_barrier_schedule) {
    sstats = run_task_graph_colored(*pp.graph, pp.weights, pool, body);
  } else {
    SchedulerConfig scfg;
    scfg.priority_queue = cfg.priority_queue;
    scfg.record_trace = cfg.record_trace;
    // When the private buffers failed to allocate, an all-zero privatized
    // mask routes every task through the TDG-serialized direct-scatter path.
    const auto& priv = privatization_downgraded_ ? privatized_off_ : pp.privatized;
    sstats = run_task_graph(*pp.graph, pp.weights, priv, pool, body, scfg);
  }
  if (stats != nullptr) {
    // Accumulate element-wise: a B-slice adjoint walks the scheduler once
    // per slab-group chunk, and the apply's load-balance record must cover
    // every walk, not just the last one.
    stats->add_scheduler_pass(sstats.tasks, sstats.privatized_tasks,
                              sstats.busy_ns_per_context);
  }
  if (trace_.empty()) {
    trace_ = std::move(sstats.trace);
  } else {
    trace_.insert(trace_.end(), sstats.trace.begin(), sstats.trace.end());
  }
}

void BatchNufft::forward_chunk(const cfloat* const* images, cfloat* const* raws, index_t nb,
                               ThreadPool& pool) {
  Timer t;
  {
    obs::Span s("batch.scale", "batch", nb);
    batch_image_to_grid(images, nb, pool);
  }
  fwd_stats_.scale_s += t.seconds();

  t.reset();
  {
    obs::Span s("batch.fft", "batch", nb);
    const bool batched_stages = conv_mode_ != Nufft::ConvMode::kScalar;
    bfft_.transform(slabs_.data(), nb, fft::Direction::kForward, pool, batched_stages);
  }
  fwd_stats_.fft_s += t.seconds();

  t.reset();
  {
    obs::Span s("batch.conv", "batch", nb);
    dim_dispatch(
        plan_->g_.dim, [&] { batch_interp<1>(raws, nb, pool); },
        [&] { batch_interp<2>(raws, nb, pool); }, [&] { batch_interp<3>(raws, nb, pool); });
  }
  fwd_stats_.conv_s += t.seconds();
}

void BatchNufft::adjoint_chunk(const cfloat* const* raws, cfloat* const* images, index_t nb,
                               ThreadPool& pool) {
  Timer t;
  {
    obs::Span s("batch.scale", "batch", nb);
    clear_slabs(nb, pool);
  }
  adj_stats_.scale_s += t.seconds();

  t.reset();
  {
    obs::Span s("batch.conv", "batch", nb);
    dim_dispatch(
        plan_->g_.dim, [&] { batch_spread<1>(raws, nb, pool, &adj_stats_); },
        [&] { batch_spread<2>(raws, nb, pool, &adj_stats_); },
        [&] { batch_spread<3>(raws, nb, pool, &adj_stats_); });
  }
  adj_stats_.conv_s += t.seconds();

  t.reset();
  {
    obs::Span s("batch.fft", "batch", nb);
    const bool batched_stages = conv_mode_ != Nufft::ConvMode::kScalar;
    bfft_.transform(slabs_.data(), nb, fft::Direction::kInverse, pool, batched_stages);
  }
  adj_stats_.fft_s += t.seconds();

  t.reset();
  {
    obs::Span s("batch.scale", "batch", nb);
    batch_grid_to_image(images, nb, pool);
  }
  adj_stats_.scale_s += t.seconds();
}

void BatchNufft::forward(const cfloat* const* images, cfloat* const* raws, index_t nb,
                         ThreadPool& pool) {
  NUFFT_CHECK(nb >= 1);
  fwd_stats_ = OperatorStats{};
  trace_.clear();
  obs::Span apply("batch.forward", "batch", nb);
  Timer total;
  for (index_t off = 0; off < nb; off += capacity_) {
    const index_t nc = std::min(capacity_, nb - off);
    try {
      fault::inject_alloc("batch.simd_alloc");
      forward_chunk(images + off, raws + off, nc, pool);
    } catch (const std::bad_alloc&) {
      // A chunk writes every output it touches, so it can be re-run whole on
      // the scalar path (which needs no batch-group scratch). If the scalar
      // path itself cannot allocate there is nothing left to shed.
      if (conv_mode_ == Nufft::ConvMode::kScalar) {
        throw Error("batched forward: allocation failed on the scalar fallback path",
                    ErrorCode::kResourceExhausted);
      }
      conv_mode_ = Nufft::ConvMode::kScalar;
      simd_downgraded_ = true;
      forward_chunk(images + off, raws + off, nc, pool);
    }
  }
  fwd_stats_.total_s = total.seconds();
  fwd_stats_.simd_downgraded = simd_downgraded_;
  fwd_stats_.privatization_downgraded = privatization_downgraded_;
}

void BatchNufft::adjoint(const cfloat* const* raws, cfloat* const* images, index_t nb,
                         ThreadPool& pool) {
  NUFFT_CHECK(nb >= 1);
  adj_stats_ = OperatorStats{};
  trace_.clear();
  obs::Span apply("batch.adjoint", "batch", nb);
  Timer total;
  for (index_t off = 0; off < nb; off += capacity_) {
    const index_t nc = std::min(capacity_, nb - off);
    try {
      fault::inject_alloc("batch.simd_alloc");
      adjoint_chunk(raws + off, images + off, nc, pool);
    } catch (const std::bad_alloc&) {
      if (conv_mode_ == Nufft::ConvMode::kScalar) {
        throw Error("batched adjoint: allocation failed on the scalar fallback path",
                    ErrorCode::kResourceExhausted);
      }
      conv_mode_ = Nufft::ConvMode::kScalar;
      simd_downgraded_ = true;
      adjoint_chunk(raws + off, images + off, nc, pool);
    }
  }
  adj_stats_.total_s = total.seconds();
  adj_stats_.simd_downgraded = simd_downgraded_;
  adj_stats_.privatization_downgraded = privatization_downgraded_;
}

void BatchNufft::forward(const cfloat* const* images, cfloat* const* raws, index_t nb) {
  forward(images, raws, nb, *plan_->pool_);
}

void BatchNufft::adjoint(const cfloat* const* raws, cfloat* const* images, index_t nb) {
  adjoint(raws, images, nb, *plan_->pool_);
}

void BatchNufft::forward(const cfloat* images, cfloat* raws, index_t nb) {
  std::vector<const cfloat*> ip(static_cast<std::size_t>(nb));
  std::vector<cfloat*> rp(static_cast<std::size_t>(nb));
  for (index_t b = 0; b < nb; ++b) {
    ip[static_cast<std::size_t>(b)] = images + b * plan_->image_elems();
    rp[static_cast<std::size_t>(b)] = raws + b * plan_->sample_count();
  }
  forward(ip.data(), rp.data(), nb, *plan_->pool_);
}

void BatchNufft::adjoint(const cfloat* raws, cfloat* images, index_t nb) {
  std::vector<const cfloat*> rp(static_cast<std::size_t>(nb));
  std::vector<cfloat*> ip(static_cast<std::size_t>(nb));
  for (index_t b = 0; b < nb; ++b) {
    rp[static_cast<std::size_t>(b)] = raws + b * plan_->sample_count();
    ip[static_cast<std::size_t>(b)] = images + b * plan_->image_elems();
  }
  adjoint(rp.data(), ip.data(), nb, *plan_->pool_);
}

}  // namespace nufft::exec
