#include "checks.hpp"

#include <algorithm>
#include <cmath>

#include "baselines/nudft.hpp"

namespace perfbench {

using namespace nufft;

std::vector<index_t> pick_subset(index_t count, index_t k, Rng& rng) {
  k = std::min(k, count);
  std::vector<index_t> idx;
  std::vector<char> taken(static_cast<std::size_t>(count), 0);
  while (static_cast<index_t>(idx.size()) < k) {
    const auto i = static_cast<index_t>(rng.below(static_cast<std::uint64_t>(count)));
    if (taken[static_cast<std::size_t>(i)] == 0) {
      taken[static_cast<std::size_t>(i)] = 1;
      idx.push_back(i);
    }
  }
  std::sort(idx.begin(), idx.end());
  return idx;
}

namespace {

/// The samples at `idx`, as a trajectory of their own.
datasets::SampleSet subset_of(const datasets::SampleSet& s, const std::vector<index_t>& idx) {
  datasets::SampleSet out;
  out.dim = s.dim;
  out.m = s.m;
  out.k = static_cast<index_t>(idx.size());
  out.s = 1;
  out.type = s.type;
  for (int d = 0; d < s.dim; ++d) {
    auto& dst = out.coords[static_cast<std::size_t>(d)];
    for (const index_t i : idx) dst.push_back(s.coords[static_cast<std::size_t>(d)][static_cast<std::size_t>(i)]);
  }
  return out;
}

}  // namespace

double rel_l2(const cfloat* a, const cdouble* b, index_t n) {
  double num = 0.0;
  double den = 0.0;
  for (index_t i = 0; i < n; ++i) {
    const cdouble d = cdouble(a[i].real(), a[i].imag()) - b[i];
    num += std::norm(d);
    den += std::norm(b[i]);
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

double forward_error(const GridDesc& g, const datasets::SampleSet& s,
                     const std::vector<index_t>& idx, const cfloat* image, const cfloat* raw,
                     ThreadPool& pool) {
  const auto sub = subset_of(s, idx);
  std::vector<cdouble> exact(idx.size());
  baselines::nudft_forward(g, sub, image, exact.data(), pool);
  cvecf fast(idx.size());
  for (std::size_t j = 0; j < idx.size(); ++j) fast[j] = raw[idx[j]];
  return rel_l2(fast.data(), exact.data(), static_cast<index_t>(idx.size()));
}

cvecf scatter_subset(index_t count, const std::vector<index_t>& idx, const cvecf& vals) {
  cvecf raw(static_cast<std::size_t>(count), cfloat(0.0f, 0.0f));
  for (std::size_t j = 0; j < idx.size(); ++j) raw[static_cast<std::size_t>(idx[j])] = vals[j];
  return raw;
}

double adjoint_error(const GridDesc& g, const datasets::SampleSet& s,
                     const std::vector<index_t>& idx, const cvecf& vals, const cfloat* image,
                     ThreadPool& pool) {
  const auto sub = subset_of(s, idx);
  std::vector<cdouble> exact(static_cast<std::size_t>(g.image_elems()));
  baselines::nudft_adjoint(g, sub, vals.data(), exact.data(), pool);
  return rel_l2(image, exact.data(), g.image_elems());
}

void check_rel_err(Report& rep, const char* workload, double fwd_err, double adj_err) {
  rep.context("rel_err_forward", fwd_err);
  rep.context("rel_err_adjoint", adj_err);
  rep.check(fwd_err <= kMaxRelErr,
            std::string(workload) + ": forward within kMaxRelErr of exact NUDFT");
  rep.check(adj_err <= kMaxRelErr,
            std::string(workload) + ": adjoint within kMaxRelErr of exact NUDFT");
  rep.metric("rel_err", std::max(fwd_err, adj_err), "ratio");
}

}  // namespace perfbench
