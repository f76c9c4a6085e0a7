#include "core/nufft.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/timer.hpp"
#include "core/conv_dispatch.hpp"
#include "core/convolution.hpp"
#include "core/convolution_avx2.hpp"
#include "core/tolerance.hpp"
#include "kernels/rolloff.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace nufft {

namespace {

// Wrap an unwrapped grid coordinate into [0, m); preprocessing guarantees
// coordinates stay within one period of the grid.
inline index_t wrap_coord(index_t v, index_t m) {
  if (v < 0) return v + m;
  if (v >= m) return v - m;
  return v;
}

}  // namespace

Nufft::Nufft(const GridDesc& g, const datasets::SampleSet& samples, const PlanConfig& cfg)
    : Nufft(g, samples, cfg, Preprocessed{}) {}

Nufft::Nufft(const GridDesc& g, const datasets::SampleSet& samples, const PlanConfig& cfg,
             Preprocessed restored)
    : g_(g), cfg_(cfg) {
  // Tolerance-driven plans resolve their kernel parameters first, so every
  // check and table below sees the resolved width/eval. Deterministic, so a
  // restored plan preprocessed under the same cfg resolves identically.
  apply_tolerance(cfg_, g.alpha);
  // Reject degenerate input before preprocessing touches it: NaN/Inf or
  // out-of-range coordinates would silently corrupt the histogram pass.
  datasets::validate_samples(samples);
  NUFFT_CHECK(samples.dim == g.dim);
  for (int d = 0; d < g.dim; ++d) {
    NUFFT_CHECK_MSG(samples.m == g.m[static_cast<std::size_t>(d)],
                    "sample set generated for a different grid size");
  }
  // A kernel footprint wider than the grid would make one sample revisit
  // grid cells and the rolloff correction meaningless; reject it for every
  // construction path — in particular the restored-plan constructor below,
  // which skips preprocess() and its identical check.
  const auto footprint = 2 * static_cast<index_t>(std::ceil(cfg_.kernel_radius)) + 1;
  for (int d = 0; d < g.dim; ++d) {
    NUFFT_CHECK_MSG(g.m[static_cast<std::size_t>(d)] >= footprint,
                    "grid dimension " << d << " (m = " << g.m[static_cast<std::size_t>(d)]
                                      << ") narrower than one kernel footprint (2*ceil(W)+1 = "
                                      << footprint
                                      << "); shrink kernel_radius or enlarge the grid");
  }
  pool_ = std::make_unique<ThreadPool>(cfg_.threads);
  if (restored.graph != nullptr) {
    NUFFT_CHECK_MSG(static_cast<index_t>(restored.orig_index.size()) == samples.count(),
                    "restored plan does not match the sample set");
    pp_ = std::move(restored);
  } else {
    pp_ = preprocess(g_, samples, cfg_, *pool_);
  }

  // Rolloff precompensation with the ±1 chop baked in per dimension:
  // scale[d][i] = (−1)^(i − N/2) / apodization(i − N/2).
  const auto kernel = kernels::make_kernel(cfg_.kernel, cfg_.kernel_radius, g.alpha);
  for (int d = 0; d < g.dim; ++d) {
    const index_t n = g.n[static_cast<std::size_t>(d)];
    const index_t m = g.m[static_cast<std::size_t>(d)];
    fvec s = kernels::rolloff_1d(*kernel, n, m);
    auto& wrap = wrap_[static_cast<std::size_t>(d)];
    wrap.resize(static_cast<std::size_t>(n));
    // Inverse map for the fused scale pass: grid index → image index, −1 on
    // the zero-padding cells the image never touches.
    auto& inv = inv_wrap_[static_cast<std::size_t>(d)];
    inv.assign(static_cast<std::size_t>(m), static_cast<index_t>(-1));
    for (index_t i = 0; i < n; ++i) {
      const index_t centered = i - n / 2;
      if ((centered & 1) != 0) s[static_cast<std::size_t>(i)] = -s[static_cast<std::size_t>(i)];
      wrap[static_cast<std::size_t>(i)] = centered >= 0 ? centered : centered + m;
      inv[static_cast<std::size_t>(wrap[static_cast<std::size_t>(i)])] = i;
    }
    // Collapse the inverse map into maximal contiguous runs so the fused
    // scale pass can stream each stretch instead of looking up every cell.
    auto& runs = wrap_runs_[static_cast<std::size_t>(d)];
    for (index_t gidx = 0; gidx < m; ++gidx) {
      const index_t img = inv[static_cast<std::size_t>(gidx)];
      if (img < 0) continue;
      if (!runs.empty() && runs.back().g_end == gidx &&
          runs.back().i_begin + (gidx - runs.back().g_begin) == img) {
        runs.back().g_end = gidx + 1;
      } else {
        runs.push_back({gidx, gidx + 1, img});
      }
    }
    scale_[static_cast<std::size_t>(d)] = std::move(s);
  }

  // The FFTs prune to the image-support rows: the grid cells image_to_grid
  // fills and grid_to_image reads, i.e. the sorted wrapped image indices.
  std::vector<std::size_t> dims;
  std::vector<std::vector<index_t>> support;
  for (int d = 0; d < g.dim; ++d) {
    const auto ds = static_cast<std::size_t>(d);
    dims.push_back(static_cast<std::size_t>(g.m[ds]));
    auto& rows = support.emplace_back();
    for (std::size_t gidx = 0; gidx < inv_wrap_[ds].size(); ++gidx) {
      if (inv_wrap_[ds][gidx] >= 0) rows.push_back(static_cast<index_t>(gidx));
    }
  }
  fft_fwd_ = std::make_shared<fft::FftNd<float>>(dims, fft::Direction::kForward, support);
  fft_inv_ = std::make_shared<fft::FftNd<float>>(dims, fft::Direction::kInverse, std::move(support));

  // The LUT lives in the plan for the whole lifetime; Horner plans fit their
  // piecewise polynomials alongside it (the LUT stays available for
  // diagnostics and the radius bookkeeping).
  lut_ = std::make_shared<kernels::KernelLut>(*kernel, cfg_.lut_samples_per_unit);
  if (cfg_.eval == kernels::KernelEval::kHorner) {
    horner_ = std::make_shared<kernels::KernelHorner>(*kernel);
  }

  // Resolve the vector backend once. kAuto prefers AVX2 when the CPU has it;
  // an explicit kAvx2 request on an unsupported CPU is a caller error.
  ConvVariantKey key;
  if (!cfg_.use_simd) {
    key.backend = ConvBackend::kScalar;
  } else if (cfg_.isa == SimdIsa::kAvx2 ||
             (cfg_.isa == SimdIsa::kAuto && avx2_available())) {
    NUFFT_CHECK_MSG(avx2_available(), "AVX2 kernels requested on a CPU without AVX2+FMA");
    key.backend = ConvBackend::kAvx2;
  } else {
    key.backend = ConvBackend::kSse;
  }

  // Bind the convolution hot path: the constexpr-W variant for a calibrated
  // width, the runtime-width entry for any other W. The two are bit-identical
  // by contract (tests/test_dispatch.cpp), so this is purely a performance
  // decision.
  key.dim = static_cast<std::uint8_t>(g_.dim);
  key.width2 = conv_width2(cfg_.kernel_radius);
  key.eval = cfg_.eval;
  conv_variant_ = ConvDispatch::instance().find(key);
  NUFFT_CHECK_MSG(conv_variant_ != nullptr, "unsupported dimension " << g_.dim);
  plan_stats_.conv_specialized = conv_variant_->key.width2 != 0;
  plan_stats_.conv_variant_id = conv_variant_->key.id();
  plan_stats_.conv_variant = conv_variant_->name;
  obs::count(std::string("nufft.conv.variant.") + plan_stats_.conv_variant);

  init_own_workspace();
}

Nufft::Nufft(const Nufft& src, const datasets::SampleSet& new_samples, const UpdateOptions& opts)
    : g_(src.g_),
      cfg_(src.cfg_) {  // already tolerance-resolved — do NOT re-apply
  datasets::validate_samples(new_samples);
  NUFFT_CHECK(new_samples.dim == g_.dim);
  for (int d = 0; d < g_.dim; ++d) {
    NUFFT_CHECK_MSG(new_samples.m == g_.m[static_cast<std::size_t>(d)],
                    "sample set generated for a different grid size");
  }
  pool_ = std::make_unique<ThreadPool>(cfg_.threads);
  pp_ = clone_preprocessed(src.pp_);
  const UpdatePath path = update_preprocessed(pp_, g_, new_samples, cfg_, *pool_, opts);

  // Everything below depends only on (grid, cfg), both preserved verbatim —
  // share the immutable tables instead of rebuilding them.
  fft_fwd_ = src.fft_fwd_;
  fft_inv_ = src.fft_inv_;
  scale_ = src.scale_;
  wrap_ = src.wrap_;
  inv_wrap_ = src.inv_wrap_;
  wrap_runs_ = src.wrap_runs_;
  lut_ = src.lut_;
  horner_ = src.horner_;
  conv_variant_ = src.conv_variant_;
  plan_stats_ = src.plan_stats_;
  if (path != UpdatePath::kNoop) ++plan_stats_.generation;
  plan_stats_.warm_updated = path == UpdatePath::kWarm;

  init_own_workspace();
}

UpdatePath Nufft::update_samples(const datasets::SampleSet& new_samples,
                                 const UpdateOptions& opts) {
  datasets::validate_samples(new_samples);
  NUFFT_CHECK(new_samples.dim == g_.dim);
  for (int d = 0; d < g_.dim; ++d) {
    NUFFT_CHECK_MSG(new_samples.m == g_.m[static_cast<std::size_t>(d)],
                    "sample set generated for a different grid size");
  }
  const UpdatePath path = update_preprocessed(pp_, g_, new_samples, cfg_, *pool_, opts);
  if (path == UpdatePath::kNoop) return path;
  ++plan_stats_.generation;
  plan_stats_.warm_updated = path == UpdatePath::kWarm;
  // Reconcile the plan-owned workspace with the new privatization marks:
  // keep already-sized boxes, size newly privatized ones, release the rest.
  fit_private_bufs(ws_);
  return path;
}

void Nufft::init_own_workspace() {
  // The plan-owned workspace backing the convenience (non-const) API: one
  // lane, sized outright — a plan that cannot hold its own boxes fails to
  // build rather than downgrading.
  ws_.grid.resize(static_cast<std::size_t>(g_.grid_elems()));
  fit_private_bufs(ws_);
}

Nufft::~Nufft() = default;

ConvRange Nufft::conv_range(const ConvTask& task, bool box_local) const {
  ConvRange r;
  r.g = &g_;
  r.ev = window_eval();
  for (int d = 0; d < g_.dim; ++d) {
    r.coords[static_cast<std::size_t>(d)] = pp_.coords[static_cast<std::size_t>(d)].data();
  }
  r.orig_index = pp_.orig_index.data();
  r.begin = task.begin;
  r.end = task.end;
  r.box_lo = box_local ? task.box_lo.data() : nullptr;
  return r;
}

Workspace Nufft::make_workspace(index_t lanes) const {
  lanes = std::min<index_t>(std::max<index_t>(lanes, 1), kMaxBatch);
  Workspace ws;
  // The grids are the irreducible working set — without them there is no
  // apply at all, so this allocation failure propagates.
  ws.grid.resize(static_cast<std::size_t>(lanes) * static_cast<std::size_t>(g_.grid_elems()));
  // The private reduction boxes are an optimization: when they cannot be
  // allocated (L × box_elems per over-dense task can dwarf the grids on
  // dense trajectories), degrade to the TDG-serialized direct-scatter path
  // instead of failing.
  try {
    fault::inject_alloc("workspace.private_alloc");
    fit_private_bufs(ws);
  } catch (const std::bad_alloc&) {
    std::vector<cvecf>().swap(ws.private_bufs);
  }
  if (lanes >= 2) {
    ws.bfft = std::make_unique<BatchFft>(g_, *fft_fwd_, *fft_inv_, lanes, pool_->size());
  }
  return ws;
}

void Nufft::fit_private_bufs(Workspace& ws) const {
  const auto box_lanes = static_cast<std::size_t>(lanes(ws));
  ws.private_bufs.resize(pp_.tasks.size());
  for (std::size_t k = 0; k < pp_.tasks.size(); ++k) {
    if (pp_.privatized[k]) {
      ws.private_bufs[k].resize(box_lanes *
                                static_cast<std::size_t>(pp_.tasks[k].box_elems(g_.dim)));
    } else if (!ws.private_bufs[k].empty()) {
      cvecf().swap(ws.private_bufs[k]);
    }
  }
}

std::size_t Nufft::workspace_bytes(index_t lanes) const {
  lanes = std::min<index_t>(std::max<index_t>(lanes, 1), kMaxBatch);
  std::size_t elems = static_cast<std::size_t>(g_.grid_elems());
  for (std::size_t k = 0; k < pp_.tasks.size(); ++k) {
    if (pp_.privatized[k]) elems += static_cast<std::size_t>(pp_.tasks[k].box_elems(g_.dim));
  }
  std::size_t bytes = static_cast<std::size_t>(lanes) * elems * sizeof(cfloat);
  if (lanes >= 2) bytes += BatchFft::scratch_bytes(g_, lanes, pool_->size());
  return bytes;
}

void Nufft::clear_slabs(cfloat* slabs, std::size_t elems, ThreadPool& pool) {
  pool.parallel_for(static_cast<index_t>(elems), [&](index_t b, index_t e) {
    zero_complex(slabs + b, static_cast<std::size_t>(e - b));
  });
}

void Nufft::clear_grid() { clear_slabs(ws_.grid.data(), ws_.grid.size(), *pool_); }

void Nufft::images_to_slabs(const cfloat* const* images, index_t nb, cfloat* slabs,
                            ThreadPool& pool) const {
  // One sweep writing every lane of every cell exactly once (zero padding
  // or scaled image value), so the grids need no separate clear. The
  // innermost dimension walks the precomputed wrap runs (contiguous
  // grid↔image stretches): the hot loop is a straight copy-scale with no
  // per-element lookup or branch, writing each cell's nb lanes in turn.
  // Multiply grouping is src · (f · scale), with f the product of the outer
  // dims' factors.
  const int dim = g_.dim;
  const auto st = g_.grid_strides();
  const index_t m1 = dim >= 2 ? g_.m[1] : 1;
  const index_t m2 = dim >= 3 ? g_.m[2] : 1;
  const index_t n1 = dim >= 2 ? g_.n[1] : 1;
  const index_t n2 = dim >= 3 ? g_.n[2] : 1;
  const fvec& s0 = scale_[0];
  const fvec* s1 = dim >= 2 ? &scale_[1] : nullptr;
  const fvec* s2 = dim >= 3 ? &scale_[2] : nullptr;
  // Stream one row's runs: gaps zeroed, each run a lookup-free copy-scale
  // from image offset `src` on.
  const auto stream_row = [&](cfloat* row, index_t m, const std::vector<WrapRun>& runs,
                              index_t src, float f, const fvec& scale) {
    index_t gcur = 0;
    for (const WrapRun& r : runs) {
      zero_complex(row + gcur * nb, static_cast<std::size_t>((r.g_begin - gcur) * nb));
      const index_t len = r.g_end - r.g_begin;
      cfloat* out = row + r.g_begin * nb;
      const index_t in = src + r.i_begin;
      const float* sc = scale.data() + r.i_begin;
      if (nb == 1) {
        const cfloat* image = images[0] + in;
        for (index_t j = 0; j < len; ++j) out[j] = image[j] * (f * sc[j]);
      } else {
        for (index_t j = 0; j < len; ++j) {
          const float fs = f * sc[j];
          for (index_t k = 0; k < nb; ++k) out[j * nb + k] = images[k][in + j] * fs;
        }
      }
      gcur = r.g_end;
    }
    zero_complex(row + gcur * nb, static_cast<std::size_t>((m - gcur) * nb));
  };
  pool.parallel_for(g_.m[0], [&](index_t b, index_t e) {
    for (index_t g0 = b; g0 < e; ++g0) {
      const index_t i0 = inv_wrap_[0][static_cast<std::size_t>(g0)];
      cfloat* slab = slabs + g0 * st[0] * nb;
      if (i0 < 0) {
        zero_complex(slab, static_cast<std::size_t>(st[0] * nb));
        continue;
      }
      const float f0 = s0[static_cast<std::size_t>(i0)];
      if (dim == 1) {
        for (index_t k = 0; k < nb; ++k) slab[k] = images[k][i0] * f0;
        continue;
      }
      if (dim == 2) {
        stream_row(slab, m1, wrap_runs_[1], i0 * n1, f0, *s1);
        continue;
      }
      for (index_t g1 = 0; g1 < m1; ++g1) {
        cfloat* row = slab + g1 * st[1] * nb;
        const index_t i1 = inv_wrap_[1][static_cast<std::size_t>(g1)];
        if (i1 < 0) {
          zero_complex(row, static_cast<std::size_t>(st[1] * nb));
          continue;
        }
        const float f01 = f0 * (*s1)[static_cast<std::size_t>(i1)];
        stream_row(row, m2, wrap_runs_[2], (i0 * n1 + i1) * n2, f01, *s2);
      }
    }
  });
}

void Nufft::image_to_grid(const cfloat* image) {
  images_to_slabs(&image, 1, ws_.grid.data(), *pool_);
}

void Nufft::slabs_to_images(const cfloat* slabs, index_t nb, cfloat* const* images,
                            ThreadPool& pool) const {
  const int dim = g_.dim;
  const auto st = g_.grid_strides();
  const index_t n1 = dim >= 2 ? g_.n[1] : 1;
  const index_t n2 = dim >= 3 ? g_.n[2] : 1;
  const fvec& s0 = scale_[0];
  const fvec* s1 = dim >= 2 ? &scale_[1] : nullptr;
  const fvec* s2 = dim >= 3 ? &scale_[2] : nullptr;
  pool.parallel_for(g_.n[0], [&](index_t b, index_t e) {
    for (index_t i0 = b; i0 < e; ++i0) {
      const float f0 = s0[static_cast<std::size_t>(i0)];
      const index_t g0 = wrap_[0][static_cast<std::size_t>(i0)];
      for (index_t i1 = 0; i1 < n1; ++i1) {
        const float f01 = dim >= 2 ? f0 * (*s1)[static_cast<std::size_t>(i1)] : f0;
        const index_t g1 = dim >= 2 ? wrap_[1][static_cast<std::size_t>(i1)] : 0;
        // Row geometry resolved once, applied to every lane.
        const cfloat* src = slabs + (g0 * st[0] + (dim >= 2 ? g1 * st[1] : 0)) * nb;
        const index_t row_off = (i0 * n1 + i1) * n2;
        if (dim < 3) {
          for (index_t k = 0; k < nb; ++k) images[k][row_off] = src[k] * f01;
        } else if (nb == 1) {
          cfloat* dst = images[0] + row_off;
          for (index_t i2 = 0; i2 < n2; ++i2) {
            dst[i2] = src[wrap_[2][static_cast<std::size_t>(i2)]] *
                      (f01 * (*s2)[static_cast<std::size_t>(i2)]);
          }
        } else {
          for (index_t i2 = 0; i2 < n2; ++i2) {
            const cfloat* cell = src + wrap_[2][static_cast<std::size_t>(i2)] * nb;
            const float fs = f01 * (*s2)[static_cast<std::size_t>(i2)];
            for (index_t k = 0; k < nb; ++k) images[k][row_off + i2] = cell[k] * fs;
          }
        }
      }
    }
  });
}

void Nufft::grid_to_image(cfloat* image) const {
  slabs_to_images(ws_.grid.data(), 1, &image, *pool_);
}

void Nufft::interp_slabs(const cfloat* slabs, index_t nb, cfloat* const* raws,
                         ThreadPool& pool) const {
  const ConvVariant& v = *conv_variant_;
  const auto st = g_.grid_strides();
  pool.parallel_for_tid(static_cast<index_t>(pp_.tasks.size()), 1,
                        [&](int, index_t kb, index_t ke) {
                          for (index_t k = kb; k < ke; ++k) {
                            v.interp(conv_range(pp_.tasks[static_cast<std::size_t>(k)], false),
                                     slabs, nb, st, raws);
                          }
                        });
}

void Nufft::interp(cfloat* raw) {
  interp_slabs(ws_.grid.data(), 1, &raw, *pool_);
}

SchedulerStats Nufft::spread_slabs(const cfloat* const* raws, index_t nb, Workspace& ws,
                                   ThreadPool& pool) const {
  const ConvVariant& v = *conv_variant_;
  cfloat* slabs = ws.grid.data();
  std::vector<cvecf>& private_bufs = ws.private_bufs;
  const int dim = g_.dim;
  const auto st = g_.grid_strides();
  auto body = [&](int task_id, int, JobPhase phase) {
    const ConvTask& task = pp_.tasks[static_cast<std::size_t>(task_id)];
    const auto box_elems = static_cast<std::size_t>(task.box_elems(dim));
    switch (phase) {
      case JobPhase::kConvolve:
        v.spread(conv_range(task, false), raws, nb, slabs, st);
        break;
      case JobPhase::kPrivateConvolve: {
        auto& buf = private_bufs[static_cast<std::size_t>(task_id)];
        zero_complex(buf.data(), static_cast<std::size_t>(nb) * box_elems);
        std::array<index_t, 3> bst{1, 1, 1};
        for (int d = dim - 2; d >= 0; --d) {
          bst[static_cast<std::size_t>(d)] =
              bst[static_cast<std::size_t>(d + 1)] *
              (task.box_hi[static_cast<std::size_t>(d + 1)] -
               task.box_lo[static_cast<std::size_t>(d + 1)]);
        }
        v.spread(conv_range(task, true), raws, nb, buf.data(), bst);
        break;
      }
      case JobPhase::kReduce: {
        // Merge the private box into the grids, wrapping mod M: each cell
        // adds its nb contiguous lanes.
        const auto& buf = private_bufs[static_cast<std::size_t>(task_id)];
        std::array<index_t, 3> blen{1, 1, 1};
        for (int d = 0; d < dim; ++d) {
          blen[static_cast<std::size_t>(d)] = task.box_hi[static_cast<std::size_t>(d)] -
                                              task.box_lo[static_cast<std::size_t>(d)];
        }
        const auto last = static_cast<std::size_t>(dim - 1);
        const index_t rows = dim >= 2 ? blen[0] * (dim >= 3 ? blen[1] : 1) : 1;
        const index_t inner = blen[last];
        const index_t lo = task.box_lo[last];
        const index_t m = g_.m[last];
        for (index_t r = 0; r < rows; ++r) {
          const index_t b0 = dim >= 3 ? r / blen[1] : (dim == 2 ? r : 0);
          const index_t b1 = dim >= 3 ? r % blen[1] : 0;
          index_t base = 0;
          if (dim >= 2) base += wrap_coord(task.box_lo[0] + b0, g_.m[0]) * st[0];
          if (dim >= 3) base += wrap_coord(task.box_lo[1] + b1, g_.m[1]) * st[1];
          const cfloat* src = buf.data() + r * inner * nb;
          for (index_t c = 0; c < inner; ++c) {
            cfloat* cell = slabs + (base + wrap_coord(lo + c, m)) * nb;
            for (index_t k = 0; k < nb; ++k) cell[k] += src[c * nb + k];
          }
        }
        break;
      }
    }
  };

  if (cfg_.color_barrier_schedule) {
    return run_task_graph_colored(*pp_.graph, pp_.weights, pool, body);
  }
  SchedulerConfig scfg;
  scfg.priority_queue = cfg_.priority_queue;
  scfg.record_trace = cfg_.record_trace;
  // A downgraded workspace passes no privatization marks, which routes every
  // task through the TDG-serialized direct-scatter path.
  static const std::vector<char> kNoneMarked;
  const auto& marks = privatization_downgraded(ws) ? kNoneMarked : pp_.privatized;
  return run_task_graph(*pp_.graph, pp_.weights, marks, pool, body, scfg);
}

void Nufft::spread(const cfloat* raw) {
  clear_grid();
  ws_.trace = std::move(spread_slabs(&raw, 1, ws_, *pool_).trace);
}

void Nufft::fft_slabs(Workspace& ws, index_t nb, fft::Direction dir, ThreadPool& pool) const {
  if (nb == 1) {
    (dir == fft::Direction::kForward ? fft_fwd_ : fft_inv_)->transform_pruned(ws.grid.data(), pool);
    return;
  }
  const bool batched_stages = conv_variant_->key.backend != ConvBackend::kScalar;
  ws.bfft->transform(ws.grid.data(), nb, dir, pool, batched_stages);
}

void Nufft::forward_chunk(const cfloat* const* images, cfloat* const* raws, index_t nb,
                          Workspace& ws, ThreadPool& pool) const {
  Timer t;
  {
    obs::Span s("nufft.scale", "core", nb);
    images_to_slabs(images, nb, ws.grid.data(), pool);
  }
  ws.fwd_stats.scale_s += t.seconds();

  t.reset();
  {
    obs::Span s("nufft.fft", "core", nb);
    fft_slabs(ws, nb, fft::Direction::kForward, pool);
  }
  ws.fwd_stats.fft_s += t.seconds();

  t.reset();
  {
    obs::Span s("nufft.conv", "core", nb);
    interp_slabs(ws.grid.data(), nb, raws, pool);
  }
  ws.fwd_stats.conv_s += t.seconds();
}

void Nufft::adjoint_chunk(const cfloat* const* raws, cfloat* const* images, index_t nb,
                          Workspace& ws, ThreadPool& pool) const {
  Timer t;
  {
    obs::Span s("nufft.scale", "core", nb);
    clear_slabs(ws.grid.data(), static_cast<std::size_t>(nb * g_.grid_elems()), pool);
  }
  ws.adj_stats.scale_s += t.seconds();

  t.reset();
  {
    obs::Span s("nufft.conv", "core", nb);
    SchedulerStats sstats = spread_slabs(raws, nb, ws, pool);
    // Accumulate element-wise: an apply of more slices than lanes walks the
    // scheduler once per chunk, and its load-balance record covers them all.
    ws.adj_stats.add_scheduler_pass(sstats.tasks, sstats.privatized_tasks,
                                    sstats.busy_ns_per_context);
    if (ws.trace.empty()) {
      ws.trace = std::move(sstats.trace);
    } else {
      ws.trace.insert(ws.trace.end(), sstats.trace.begin(), sstats.trace.end());
    }
  }
  ws.adj_stats.conv_s += t.seconds();

  t.reset();
  {
    obs::Span s("nufft.fft", "core", nb);
    fft_slabs(ws, nb, fft::Direction::kInverse, pool);
  }
  ws.adj_stats.fft_s += t.seconds();

  t.reset();
  {
    obs::Span s("nufft.scale", "core", nb);
    slabs_to_images(ws.grid.data(), nb, images, pool);
  }
  ws.adj_stats.scale_s += t.seconds();
}

void Nufft::forward(const cfloat* const* images, cfloat* const* raws, index_t nb, Workspace& ws,
                    ThreadPool& pool) const {
  NUFFT_CHECK(nb >= 1);
  ws.fwd_stats = OperatorStats{};
  ws.trace.clear();
  obs::Span apply("nufft.forward", "core", nb);
  Timer total;
  const index_t cap = lanes(ws);
  for (index_t off = 0; off < nb; off += cap) {
    forward_chunk(images + off, raws + off, std::min(cap, nb - off), ws, pool);
  }
  ws.fwd_stats.total_s = total.seconds();
  ws.fwd_stats.privatization_downgraded = privatization_downgraded(ws);
}

void Nufft::adjoint(const cfloat* const* raws, cfloat* const* images, index_t nb, Workspace& ws,
                    ThreadPool& pool) const {
  NUFFT_CHECK(nb >= 1);
  ws.adj_stats = OperatorStats{};
  ws.trace.clear();
  obs::Span apply("nufft.adjoint", "core", nb);
  Timer total;
  const index_t cap = lanes(ws);
  for (index_t off = 0; off < nb; off += cap) {
    adjoint_chunk(raws + off, images + off, std::min(cap, nb - off), ws, pool);
  }
  ws.adj_stats.total_s = total.seconds();
  ws.adj_stats.privatization_downgraded = privatization_downgraded(ws);
}

void Nufft::forward(const cfloat* image, cfloat* raw) { forward(&image, &raw, 1, ws_, *pool_); }

void Nufft::adjoint(const cfloat* raw, cfloat* image) { adjoint(&raw, &image, 1, ws_, *pool_); }

}  // namespace nufft
