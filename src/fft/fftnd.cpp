#include "fft/fftnd.hpp"

#include <utility>

#include "common/error.hpp"

namespace nufft::fft {

namespace {

// Rows per column-blocked group: 8 complex<float> fill one 64-byte line.
constexpr index_t kRowBlock = 8;

}  // namespace

template <class T>
FftNd<T>::FftNd(std::vector<std::size_t> dims, Direction dir,
                std::vector<std::vector<index_t>> support)
    : dims_(std::move(dims)), dir_(dir), total_(1) {
  NUFFT_CHECK(!dims_.empty());
  NUFFT_CHECK(support.empty() || support.size() == dims_.size());
  const std::size_t rank = dims_.size();
  plans_.reserve(rank);
  for (const std::size_t d : dims_) {
    NUFFT_CHECK(d >= 1);
    total_ *= d;
    plans_.emplace_back(d, dir_);
  }
  strides_.assign(rank, 1);
  for (std::size_t d = rank - 1; d-- > 0;) {
    strides_[d] = strides_[d + 1] * static_cast<index_t>(dims_[d + 1]);
  }

  // Cut each row list into blocks of consecutive indices, at most kRowBlock long.
  auto make_rows = [](std::vector<index_t> rows) {
    Rows r;
    for (std::size_t i = 0; i < rows.size();) {
      index_t len = 1;
      while (len < kRowBlock && i + static_cast<std::size_t>(len) < rows.size() &&
             rows[i + static_cast<std::size_t>(len)] == rows[i] + len) {
        ++len;
      }
      r.blocks.push_back({rows[i], len});
      i += static_cast<std::size_t>(len);
    }
    r.rows = std::move(rows);
    return r;
  };
  for (std::size_t d = 0; d < rank; ++d) {
    std::vector<index_t> all(dims_[d]);
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<index_t>(i);
    full_.push_back(make_rows(all));
    if (support.empty()) {
      support_.push_back(full_.back());
      continue;
    }
    const auto& s = support[d];
    for (std::size_t i = 0; i < s.size(); ++i) {
      NUFFT_CHECK_MSG(s[i] >= 0 && s[i] < static_cast<index_t>(dims_[d]) &&
                          (i == 0 || s[i] > s[i - 1]),
                      "support rows of dim " << d << " must be sorted, distinct and in range");
    }
    support_.push_back(make_rows(s));
  }
}

template <class T>
void FftNd<T>::transform_pass(std::complex<T>* data, std::size_t axis, bool pruned,
                              ThreadPool& pool) const {
  using C = std::complex<T>;
  NUFFT_CHECK(axis < dims_.size());
  const std::size_t len = dims_[axis];
  if (len == 1) return;
  const Fft1d<T>& plan = plans_[axis];
  const std::size_t rank = dims_.size();
  if (rank == 1) {
    aligned_vector<C> fs(plan.scratch_size());
    plan.transform(data, data, fs.data());
    return;
  }

  // Rows visited along each other dimension. The walk runs the axes in
  // descending order, so a pruned forward pass restricts the dimensions it
  // has not transformed yet (d < axis: still zero outside the support) and a
  // pruned inverse pass the ones it has finished (d > axis: cells outside
  // the support are never read).
  auto rows_of = [&](std::size_t d) -> const Rows& {
    const bool restricted = pruned && (dir_ == Direction::kForward ? d < axis : d > axis);
    return restricted ? support_[d] : full_[d];
  };
  // Rows are grouped in blocks along the innermost other dimension; the
  // remaining dimensions are decoded from the group index, innermost fastest.
  const std::size_t bdim = axis == rank - 1 ? rank - 2 : rank - 1;
  const std::vector<Block>& blocks = rows_of(bdim).blocks;
  const index_t b_st = strides_[bdim];
  struct Outer {
    const std::vector<index_t>* rows;
    index_t stride;
  };
  std::vector<Outer> outer;
  const auto nblocks = static_cast<index_t>(blocks.size());
  index_t ngroups = nblocks;
  for (std::size_t d = 0; d < rank; ++d) {
    if (d == axis || d == bdim) continue;
    outer.push_back({&rows_of(d).rows, strides_[d]});
    ngroups *= static_cast<index_t>(outer.back().rows->size());
  }
  if (ngroups == 0) return;

  const index_t ax_st = strides_[axis];
  const bool columns = is_pow2(len);
  // Column groups pad to an even count for float (two complex per SSE op).
  const std::size_t step = sizeof(T) == sizeof(float) ? 2 : 1;
  const std::size_t need = columns ? 2 * len * static_cast<std::size_t>(kRowBlock)
                                   : len + plan.scratch_size();
  std::vector<aligned_vector<C>> scratch(static_cast<std::size_t>(pool.size()));
  const index_t chunk = ngroups / (static_cast<index_t>(pool.size()) * 8) + 1;

  pool.parallel_for_tid(ngroups, chunk, [&](int tid, index_t gb, index_t ge) {
    auto& buf = scratch[static_cast<std::size_t>(tid)];
    if (buf.size() < need) buf.resize(need);
    for (index_t g = gb; g < ge; ++g) {
      const Block blk = blocks[static_cast<std::size_t>(g % nblocks)];
      index_t rest = g / nblocks;
      index_t base = blk.start * b_st;
      for (std::size_t i = outer.size(); i-- > 0;) {
        const auto n = static_cast<index_t>(outer[i].rows->size());
        base += (*outer[i].rows)[static_cast<std::size_t>(rest % n)] * outer[i].stride;
        rest /= n;
      }
      C* p = data + base;
      if (columns) {
        // Gather: element k of block row j at cur[k·cols + j]; pad columns zero.
        const auto bl = static_cast<std::size_t>(blk.len);
        const std::size_t cols = (bl + step - 1) / step * step;
        C* cur = buf.data();
        for (std::size_t k = 0; k < len; ++k) {
          const C* src = p + static_cast<index_t>(k) * ax_st;
          C* d = cur + k * cols;
          for (std::size_t j = 0; j < bl; ++j) d[j] = src[static_cast<index_t>(j) * b_st];
          for (std::size_t j = bl; j < cols; ++j) d[j] = C(0, 0);
        }
        const C* out = plan.transform_columns(cur, cur + len * cols, cols);
        for (std::size_t k = 0; k < len; ++k) {
          C* dst = p + static_cast<index_t>(k) * ax_st;
          const C* s = out + k * cols;
          for (std::size_t j = 0; j < bl; ++j) dst[static_cast<index_t>(j) * b_st] = s[j];
        }
        continue;
      }
      C* row = buf.data();
      C* fs = buf.data() + len;
      for (index_t j = 0; j < blk.len; ++j) {
        C* r = p + j * b_st;
        if (ax_st == 1) {
          plan.transform(r, r, fs);
        } else {
          for (std::size_t k = 0; k < len; ++k) row[k] = r[static_cast<index_t>(k) * ax_st];
          plan.transform(row, row, fs);
          for (std::size_t k = 0; k < len; ++k) r[static_cast<index_t>(k) * ax_st] = row[k];
        }
      }
    }
  });
}

template <class T>
void FftNd<T>::transform(std::complex<T>* data, ThreadPool& pool) const {
  // Last (contiguous) axis first: it touches the data with unit stride and
  // warms pages before the strided passes.
  for (std::size_t a = dims_.size(); a-- > 0;) transform_pass(data, a, false, pool);
}

template <class T>
void FftNd<T>::transform(std::complex<T>* data) const {
  ThreadPool serial(1);
  transform(data, serial);
}

template <class T>
void FftNd<T>::transform_pruned(std::complex<T>* data, ThreadPool& pool) const {
  for (std::size_t a = dims_.size(); a-- > 0;) transform_pass(data, a, true, pool);
}

template class FftNd<float>;
template class FftNd<double>;

}  // namespace nufft::fft
