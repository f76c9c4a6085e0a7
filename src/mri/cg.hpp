// Conjugate-gradient solver for the normal equations AᴴA x = Aᴴ b
// (Hermitian positive semi-definite operator), the standard engine of
// iterative non-Cartesian MRI reconstruction. Each iteration applies AᴴA
// once — one coil-batched forward and adjoint NUFFT (exec::BatchNufft)
// covering all coils — which is exactly the workload whose per-call cost
// the paper optimizes.
#pragma once

#include <functional>
#include <vector>

#include "common/types.hpp"

namespace nufft::mri {

struct CgOptions {
  int max_iters = 10;
  double tolerance = 1e-6;  // stop when ‖r‖/‖r0‖ falls below this
  double lambda = 0.0;      // Tikhonov term: solve (AᴴA + λI)x = rhs
};

struct CgResult {
  int iterations = 0;
  std::vector<double> residual_norms;  // ‖r_k‖ after each iteration
};

/// The solver's residual, search-direction and operator-output vectors.
/// A caller that solves repeatedly keeps one, so every solve after the
/// first reuses its buffers instead of allocating 3·n values.
struct CgWorkspace {
  cvecf r;
  cvecf p;
  cvecf q;
};

/// Solve (AᴴA + λI)x = rhs with x starting at zero.
/// `normal_op(in, out)` must compute out = AᴴA·in (n values each).
CgResult conjugate_gradient(const std::function<void(const cfloat*, cfloat*)>& normal_op,
                            const cfloat* rhs, cfloat* x, index_t n, const CgOptions& opt);

/// The same solve on the caller's vectors (resized to n as needed).
CgResult conjugate_gradient(const std::function<void(const cfloat*, cfloat*)>& normal_op,
                            const cfloat* rhs, cfloat* x, index_t n, const CgOptions& opt,
                            CgWorkspace& ws);

}  // namespace nufft::mri
