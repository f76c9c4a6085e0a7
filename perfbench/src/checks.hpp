// Exact-NUDFT subset gates: the fast operators' outputs against the O(N^d·K)
// direct transform (baselines/nudft.hpp), restricted to a seeded subset of
// samples so the oracle stays affordable at benchmark sizes.
#pragma once

#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/grid.hpp"
#include "datasets/trajectory.hpp"
#include "parallel/thread_pool.hpp"

namespace perfbench {

/// `k` distinct sample indices in [0, count), sorted, drawn from `rng`.
std::vector<nufft::index_t> pick_subset(nufft::index_t count, nufft::index_t k, nufft::Rng& rng);

/// Relative L2 error of a fast forward result `raw` (all samples) against
/// the exact forward of `image`, on the samples at `idx`.
double forward_error(const nufft::GridDesc& g, const nufft::datasets::SampleSet& s,
                     const std::vector<nufft::index_t>& idx, const nufft::cfloat* image,
                     const nufft::cfloat* raw, nufft::ThreadPool& pool);

/// A raw vector that is zero except for `vals` at the samples in `idx`.
nufft::cvecf scatter_subset(nufft::index_t count, const std::vector<nufft::index_t>& idx,
                            const nufft::cvecf& vals);

/// Relative L2 error of a fast adjoint result `image` of
/// scatter_subset(count, idx, vals) against the exact adjoint.
double adjoint_error(const nufft::GridDesc& g, const nufft::datasets::SampleSet& s,
                     const std::vector<nufft::index_t>& idx, const nufft::cvecf& vals,
                     const nufft::cfloat* image, nufft::ThreadPool& pool);

/// Largest relative error the exact-NUDFT gates accept.
inline constexpr double kMaxRelErr = 1e-5;

/// Records rel_err (the worse direction) and gates both directions on
/// kMaxRelErr.
void check_rel_err(Report& rep, const char* workload, double fwd_err, double adj_err);

/// Relative L2 distance ‖a − b‖ / ‖b‖ over n values.
double rel_l2(const nufft::cfloat* a, const nufft::cdouble* b, nufft::index_t n);

}  // namespace perfbench
