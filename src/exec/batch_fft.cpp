#include "exec/batch_fft.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "core/convolution_avx2.hpp"
#include "fft/fft1d.hpp"

namespace nufft::exec {

using fft::Direction;

BatchFft::BatchFft(const GridDesc& g, const fft::FftNd<float>& fwd, const fft::FftNd<float>& inv,
                   index_t max_lanes, int threads)
    : g_(g),
      max_lanes_(std::max<index_t>(max_lanes, 1)),
      fwd_(&fwd),
      inv_(&inv),
      avx2_(avx2_available()) {
  st_ = g_.grid_strides();
  cells_ = g_.grid_elems();
  std::array<std::vector<index_t>, 3> full;
  std::size_t max_len = 1;
  for (int d = 0; d < g_.dim; ++d) {
    const auto ds = static_cast<std::size_t>(d);
    const auto m = static_cast<std::size_t>(g_.m[ds]);
    full[ds].resize(m);
    for (std::size_t i = 0; i < m; ++i) full[ds][i] = static_cast<index_t>(i);
    all_pow2_ = all_pow2_ && fft::is_pow2(m);
    max_len = std::max(max_len, m);
  }

  // Row groups of each axis pass. The rows are the products of the
  // non-transform dims' coordinate lists. The dims above the axis are
  // corner-confined: in the ascending forward walk they are not transformed
  // yet (still zero outside the corners), in the descending adjoint walk
  // they are finished (non-corner outputs never read). Strided-axis rows
  // are blocked: adjacent rows along the contiguous grid dimension sit one
  // cell apart, and the coordinate lists are unions of contiguous runs (the
  // corner set is [0, n−n/2) ∪ [m−n/2, m)), so up to kRowBlock of them
  // become extra columns of one transform and each element's gather reads
  // kRowBlock·nb consecutive values.
  for (int axis = 0; axis < g_.dim; ++axis) {
    const std::vector<index_t>* lists[2] = {nullptr, nullptr};
    index_t lstrides[2] = {0, 0};
    int nlists = 0;
    for (int d = 0; d < g_.dim; ++d) {
      if (d == axis) continue;
      const auto ds = static_cast<std::size_t>(d);
      lists[nlists] = d > axis ? &fwd_->support(ds) : &full[ds];
      lstrides[nlists] = st_[ds];
      ++nlists;
    }
    index_t nrows = 1;
    for (int i = 0; i < nlists; ++i) nrows *= static_cast<index_t>(lists[i]->size());
    const index_t inner = nlists > 0 ? static_cast<index_t>(lists[nlists - 1]->size()) : 1;
    const auto row_base = [&](index_t r) {
      index_t base = 0;
      if (nlists == 2) {
        base = (*lists[0])[static_cast<std::size_t>(r / inner)] * lstrides[0] +
               (*lists[1])[static_cast<std::size_t>(r % inner)] * lstrides[1];
      } else if (nlists == 1) {
        base = (*lists[0])[static_cast<std::size_t>(r)] * lstrides[0];
      }
      return base;
    };
    const bool blockable =
        nlists > 0 && lstrides[nlists - 1] == 1 && st_[static_cast<std::size_t>(axis)] != 1;
    auto& groups = groups_[static_cast<std::size_t>(axis)];
    groups.reserve(static_cast<std::size_t>(nrows));
    for (index_t r = 0; r < nrows;) {
      index_t blk = 1;
      if (blockable) {
        const std::vector<index_t>& ilist = *lists[nlists - 1];
        const index_t i1 = r % inner;
        while (blk < kRowBlock && i1 + blk < inner &&
               ilist[static_cast<std::size_t>(i1 + blk)] ==
                   ilist[static_cast<std::size_t>(i1)] + blk) {
          ++blk;
        }
      }
      groups.push_back({row_base(r), blk});
      r += blk;
    }
  }

  scratch_elems_ = 2 * max_len * pad_cols(static_cast<std::size_t>(kRowBlock * max_lanes_));
  scratch_.resize(static_cast<std::size_t>(std::max(threads, 1)));
  for (auto& s : scratch_) s.resize(scratch_elems_);
}

void BatchFft::transform(cfloat* grids, index_t nb, Direction dir, ThreadPool& pool,
                         bool batched_stages) {
  NUFFT_CHECK(nb >= 1 && nb <= max_lanes_);
  const fft::FftNd<float>& plan = dir == Direction::kForward ? *fwd_ : *inv_;
  if (nb == 1) {
    plan.transform_pruned(grids, pool);
    return;
  }
  if (!batched_stages || !all_pow2_) {
    per_lane(grids, nb, plan, pool);
    return;
  }
  if (scratch_.size() < static_cast<std::size_t>(pool.size())) {
    scratch_.resize(static_cast<std::size_t>(pool.size()));
    for (auto& s : scratch_) s.resize(scratch_elems_);
  }
  // The prunable rows are always the ones whose *untransformed* (forward)
  // or *already-transformed* (adjoint) coordinates are corner-confined, so
  // the traversal order decides which axes get the pruning. The adjoint
  // wants the FftNd order (contiguous axis first): its full pass lands on
  // the cheap in-place axis and the ¼ pass on the expensive strided axis 0.
  // For the forward that order is pessimal — the strided axis would run
  // unpruned — so the forward traverses ascending instead, which hands it
  // the mirror-image (optimal) distribution.
  if (dir == Direction::kForward) {
    for (std::size_t a = 0; a < static_cast<std::size_t>(g_.dim); ++a) {
      axis_pass(grids, nb, a, dir, pool);
    }
  } else {
    for (std::size_t a = static_cast<std::size_t>(g_.dim); a-- > 0;) {
      axis_pass(grids, nb, a, dir, pool);
    }
  }
}

void BatchFft::per_lane(cfloat* grids, index_t nb, const fft::FftNd<float>& plan,
                        ThreadPool& pool) {
  if (lane_.size() < static_cast<std::size_t>(cells_)) {
    lane_.resize(static_cast<std::size_t>(cells_));
  }
  cfloat* one = lane_.data();
  for (index_t b = 0; b < nb; ++b) {
    pool.parallel_for(cells_, [&](index_t c0, index_t c1) {
      for (index_t c = c0; c < c1; ++c) one[c] = grids[c * nb + b];
    });
    plan.transform_pruned(one, pool);
    pool.parallel_for(cells_, [&](index_t c0, index_t c1) {
      for (index_t c = c0; c < c1; ++c) grids[c * nb + b] = one[c];
    });
  }
}

void BatchFft::axis_pass(cfloat* grids, index_t nb, std::size_t axis, Direction dir,
                         ThreadPool& pool) {
  const auto len = static_cast<std::size_t>(g_.m[axis]);
  if (len == 1) return;
  const fft::Fft1d<float>& plan =
      (dir == Direction::kForward ? fwd_ : inv_)->axis_plan(axis);
  const std::vector<Group>& groups = groups_[axis];
  const auto lanes = static_cast<std::size_t>(nb);
  const auto step = static_cast<std::size_t>(st_[axis]) * lanes;  // element stride
  const auto ngroups = static_cast<index_t>(groups.size());
  const index_t gchunk = ngroups / (static_cast<index_t>(pool.size()) * 8) + 1;
  pool.parallel_for_tid(ngroups, gchunk, [&](int tid, index_t gb, index_t ge) {
    cfloat* buf = scratch_[static_cast<std::size_t>(tid)].data();
    for (index_t gi = gb; gi < ge; ++gi) {
      const Group grp = groups[static_cast<std::size_t>(gi)];
      const std::size_t run = static_cast<std::size_t>(grp.blk) * lanes;
      const std::size_t cols = pad_cols(run);
      cfloat* row = grids + static_cast<std::size_t>(grp.base) * lanes;
      cfloat* cur = buf;
      cfloat* alt = buf + len * cols;
      // Gather: element k of (row j, lane b) at cur[k·cols + j·nb + b] — the
      // grid's own order, one contiguous run per element.
      for (std::size_t k = 0; k < len; ++k) {
        const cfloat* s = row + k * step;
        cfloat* d = cur + k * cols;
        for (std::size_t c = 0; c < run; ++c) d[c] = s[c];
        for (std::size_t c = run; c < cols; ++c) d[c] = cfloat(0.0f, 0.0f);
      }
      cur = plan.transform_columns(cur, alt, cols, avx2_);
      for (std::size_t k = 0; k < len; ++k) {
        const cfloat* s = cur + k * cols;
        cfloat* d = row + k * step;
        for (std::size_t c = 0; c < run; ++c) d[c] = s[c];
      }
    }
  });
}

}  // namespace nufft::exec
