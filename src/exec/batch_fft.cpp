#include "exec/batch_fft.hpp"

#include "common/error.hpp"
#include "core/convolution_avx2.hpp"
#include "fft/fft1d.hpp"

namespace nufft::exec {

using fft::Direction;

BatchFft::BatchFft(const GridDesc& g, const fft::FftNd<float>& fwd, const fft::FftNd<float>& inv)
    : g_(g), fwd_(&fwd), inv_(&inv), avx2_(avx2_available()) {
  st_ = g_.grid_strides();
  slab_elems_ = g_.grid_elems();
  for (int d = 0; d < g_.dim; ++d) {
    const auto ds = static_cast<std::size_t>(d);
    const auto m = static_cast<std::size_t>(g_.m[ds]);
    full_[ds].resize(m);
    for (std::size_t i = 0; i < m; ++i) full_[ds][i] = static_cast<index_t>(i);
    all_pow2_ = all_pow2_ && fft::is_pow2(m);
  }
}

void BatchFft::transform(cfloat* slabs, index_t nb, Direction dir, ThreadPool& pool,
                         bool batched_stages) const {
  NUFFT_CHECK(nb >= 1);
  if (!batched_stages || !all_pow2_ || nb < 2) {
    // The single-RHS path's own FFT, slab by slab: bitwise equal to Nufft.
    const fft::FftNd<float>& plan = dir == Direction::kForward ? *fwd_ : *inv_;
    for (index_t b = 0; b < nb; ++b) plan.transform_pruned(slabs + b * slab_elems_, pool);
    return;
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
      axis_pass(slabs, nb, a, dir, pool);
    }
  } else {
    for (std::size_t a = static_cast<std::size_t>(g_.dim); a-- > 0;) {
      axis_pass(slabs, nb, a, dir, pool);
    }
  }
}

void BatchFft::axis_pass(cfloat* slabs, index_t nb, std::size_t axis, Direction dir,
                         ThreadPool& pool) const {
  const std::size_t len = static_cast<std::size_t>(g_.m[axis]);
  if (len == 1) return;
  const int dim = g_.dim;

  // Row coordinate lists for the non-transform dims. The dims above the
  // axis are corner-confined: in the ascending forward walk they are not
  // transformed yet (still zero outside the corners), in the descending
  // adjoint walk they are finished (non-corner outputs never read).
  const std::vector<index_t>* lists[2] = {nullptr, nullptr};
  index_t lstrides[2] = {0, 0};
  int nlists = 0;
  for (int d = 0; d < dim; ++d) {
    if (d == static_cast<int>(axis)) continue;
    const auto ds = static_cast<std::size_t>(d);
    lists[nlists] = d > static_cast<int>(axis) ? &fwd_->support(ds) : &full_[ds];
    lstrides[nlists] = st_[ds];
    ++nlists;
  }
  index_t nrows = 1;
  for (int i = 0; i < nlists; ++i) nrows *= static_cast<index_t>(lists[i]->size());
  const index_t inner2 = nlists == 2 ? static_cast<index_t>(lists[1]->size()) : 1;
  const index_t ax_st = st_[axis];

  auto row_base = [&](index_t r) {
    index_t base = 0;
    if (nlists == 2) {
      base = (*lists[0])[static_cast<std::size_t>(r / inner2)] * lstrides[0] +
             (*lists[1])[static_cast<std::size_t>(r % inner2)] * lstrides[1];
    } else if (nlists == 1) {
      base = (*lists[0])[static_cast<std::size_t>(r)] * lstrides[0];
    }
    return base;
  };

  const fft::Fft1d<float>& plan =
      (dir == Direction::kForward ? fwd_ : inv_)->axis_plan(axis);
  // AVX2 stages consume 4 complex columns per 256-bit op, SSE stages 2;
  // pad the column count (zeroed pad columns) to the vector width.
  const std::size_t colpad = avx2_ ? 3 : 1;
  auto pad_cols = [colpad](std::size_t c) { return (c + colpad) & ~colpad; };

  // Strided-axis rows are gathered one 8-byte complex per 64-byte cache
  // line. Adjacent rows along the contiguous grid dimension sit 1 complex
  // apart, and the row-coordinate lists are unions of contiguous runs (the
  // corner set is [0, n−n/2) ∪ [m−n/2, m)), so blocks of up to kRowBlock
  // adjacent rows are transformed together — the block's rows simply become
  // extra columns of the same interleaved transform, and each (k, slice)
  // gather reads kRowBlock consecutive complex values (a full line).
  constexpr index_t kRowBlock = 2;
  const std::vector<index_t>* ilist = nlists > 0 ? lists[nlists - 1] : nullptr;
  const bool blockable = nlists > 0 && lstrides[nlists - 1] == 1 && ax_st != 1;
  struct Group {
    index_t r0;
    index_t blk;
  };
  std::vector<Group> groups;
  groups.reserve(static_cast<std::size_t>(nrows));
  if (blockable) {
    const auto ilen = static_cast<index_t>(ilist->size());
    for (index_t r = 0; r < nrows;) {
      const index_t i1 = r % ilen;
      index_t blk = 1;
      while (blk < kRowBlock && i1 + blk < ilen &&
             (*ilist)[static_cast<std::size_t>(i1 + blk)] ==
                 (*ilist)[static_cast<std::size_t>(i1)] + blk) {
        ++blk;
      }
      groups.push_back({r, blk});
      r += blk;
    }
  } else {
    for (index_t r = 0; r < nrows; ++r) groups.push_back({r, 1});
  }

  const std::size_t bufn = len * pad_cols(static_cast<std::size_t>(kRowBlock * nb));
  const auto ngroups = static_cast<index_t>(groups.size());
  const index_t gchunk = ngroups / (static_cast<index_t>(pool.size()) * 8) + 1;
  std::vector<aligned_vector<cfloat>> scratch(static_cast<std::size_t>(pool.size()));
  pool.parallel_for_tid(ngroups, gchunk, [&](int tid, index_t gb, index_t ge) {
    auto& buf = scratch[static_cast<std::size_t>(tid)];
    if (buf.size() < 2 * bufn) buf.resize(2 * bufn);
    for (index_t gi = gb; gi < ge; ++gi) {
      const Group grp = groups[static_cast<std::size_t>(gi)];
      const index_t base = row_base(grp.r0);
      const std::size_t blk = static_cast<std::size_t>(grp.blk);
      const std::size_t cols = pad_cols(blk * static_cast<std::size_t>(nb));
      cfloat* cur = buf.data();
      cfloat* alt = buf.data() + len * cols;
      // Gather: element k of (row j, slice b) at cur[k·cols + j·nb + b].
      for (index_t b = 0; b < nb; ++b) {
        const cfloat* p =
            slabs + static_cast<std::size_t>(b) * static_cast<std::size_t>(slab_elems_) + base;
        cfloat* dst = cur + static_cast<std::size_t>(b);
        for (std::size_t k = 0; k < len; ++k) {
          const cfloat* src = p + static_cast<index_t>(k) * ax_st;
          cfloat* d = dst + k * cols;
          for (std::size_t j = 0; j < blk; ++j) d[j * static_cast<std::size_t>(nb)] = src[j];
        }
      }
      for (std::size_t pad = blk * static_cast<std::size_t>(nb); pad < cols; ++pad) {
        for (std::size_t k = 0; k < len; ++k) cur[k * cols + pad] = cfloat(0.0f, 0.0f);
      }
      cur = plan.transform_columns(cur, alt, cols, avx2_);
      // Scatter the transformed rows back.
      for (index_t b = 0; b < nb; ++b) {
        cfloat* p =
            slabs + static_cast<std::size_t>(b) * static_cast<std::size_t>(slab_elems_) + base;
        const cfloat* src = cur + static_cast<std::size_t>(b);
        for (std::size_t k = 0; k < len; ++k) {
          cfloat* d = p + static_cast<index_t>(k) * ax_st;
          const cfloat* s = src + k * cols;
          for (std::size_t j = 0; j < blk; ++j) d[j] = s[j * static_cast<std::size_t>(nb)];
        }
      }
    }
  });
}

}  // namespace nufft::exec
