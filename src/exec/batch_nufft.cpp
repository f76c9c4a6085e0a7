#include "exec/batch_nufft.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/timer.hpp"
#include "obs/trace.hpp"

namespace nufft::exec {

BatchNufft::BatchNufft(const Nufft& plan, index_t max_batch)
    : plan_(&plan),
      capacity_(std::min<index_t>(std::max<index_t>(max_batch, 1), kMaxBatch)),
      slab_elems_(static_cast<std::size_t>(plan.grid_desc().grid_elems())),
      variant_(&plan.conv_variant()),
      bfft_(plan.grid_desc(), *plan.fft_fwd_, *plan.fft_inv_, capacity_, plan.pool_->size()) {
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

void BatchNufft::forward_chunk(const cfloat* const* images, cfloat* const* raws, index_t nb,
                               ThreadPool& pool) {
  Timer t;
  {
    obs::Span s("batch.scale", "batch", nb);
    plan_->images_to_slabs(images, nb, slabs_.data(), pool);
  }
  fwd_stats_.scale_s += t.seconds();

  t.reset();
  {
    obs::Span s("batch.fft", "batch", nb);
    const bool batched_stages = variant_->key.backend != ConvBackend::kScalar;
    bfft_.transform(slabs_.data(), nb, fft::Direction::kForward, pool, batched_stages);
  }
  fwd_stats_.fft_s += t.seconds();

  t.reset();
  {
    obs::Span s("batch.conv", "batch", nb);
    plan_->interp_slabs(*variant_, slabs_.data(), nb, raws, pool);
  }
  fwd_stats_.conv_s += t.seconds();
}

void BatchNufft::adjoint_chunk(const cfloat* const* raws, cfloat* const* images, index_t nb,
                               ThreadPool& pool) {
  Timer t;
  {
    obs::Span s("batch.scale", "batch", nb);
    Nufft::clear_slabs(slabs_.data(), static_cast<std::size_t>(nb) * slab_elems_, pool);
  }
  adj_stats_.scale_s += t.seconds();

  t.reset();
  {
    obs::Span s("batch.conv", "batch", nb);
    // When the private buffers failed to allocate, an all-zero privatized
    // mask routes every task through the TDG-serialized direct-scatter path.
    const auto& priv = privatization_downgraded_ ? privatized_off_ : plan_->pp_.privatized;
    SchedulerStats sstats =
        plan_->spread_slabs(*variant_, raws, nb, slabs_.data(), private_slabs_, priv, pool);
    // Accumulate element-wise: a B-slice adjoint walks the scheduler once
    // per chunk, and the apply's load-balance record must cover every walk.
    adj_stats_.add_scheduler_pass(sstats.tasks, sstats.privatized_tasks,
                                  sstats.busy_ns_per_context);
    trace_.insert(trace_.end(), sstats.trace.begin(), sstats.trace.end());
  }
  adj_stats_.conv_s += t.seconds();

  t.reset();
  {
    obs::Span s("batch.fft", "batch", nb);
    const bool batched_stages = variant_->key.backend != ConvBackend::kScalar;
    bfft_.transform(slabs_.data(), nb, fft::Direction::kInverse, pool, batched_stages);
  }
  adj_stats_.fft_s += t.seconds();

  t.reset();
  {
    obs::Span s("batch.scale", "batch", nb);
    plan_->slabs_to_images(slabs_.data(), nb, images, pool);
  }
  adj_stats_.scale_s += t.seconds();
}

void BatchNufft::downgrade_to_scalar(const char* direction) {
  // A chunk writes every output it touches, so it can be re-run whole on the
  // scalar variant. If the scalar path itself cannot allocate there is
  // nothing left to shed.
  if (variant_->key.backend == ConvBackend::kScalar) {
    throw Error(std::string("batched ") + direction +
                    ": allocation failed on the scalar fallback path",
                ErrorCode::kResourceExhausted);
  }
  ConvVariantKey key = variant_->key;
  key.backend = ConvBackend::kScalar;
  variant_ = ConvDispatch::instance().find(key);
  simd_downgraded_ = true;
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
      downgrade_to_scalar("forward");
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
      downgrade_to_scalar("adjoint");
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
