// Convolution dispatch registry (`ctest -L dispatch`).
//
// Every convolution — single-RHS and batched — runs through one registry
// variant. The load-bearing promise is BIT-identity between each
// constexpr-W variant and the runtime-width entry (W2 = 0, Part 1 =
// compute_window) of the same (backend, dim, evaluator): which one a plan
// binds is a pure performance decision, never a numerical one. These tests
// call both variants directly over a real plan's task ranges — interp,
// spread into the global grid, spread into each task's private box — at
// nb = 1 and at nb ∈ {2, 3, 4, 5, 16} cell-interleaved grids (every lane
// tail of the SSE and AVX2 lane kernels), check the SSE lane kernels
// bitwise against the scalar ones, sweep the boundary coordinates where the
// float-rounding window trim diverges first, check the fused image_to_grid
// scale pass cell by cell against a scatter reference, pin the fallback
// rules, and check the plan-time binding is observable (PlanStats + the obs
// counter).
//
// One test body covers every backend (the TEST_EVERY_BACKEND macro below).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "core/conv_dispatch.hpp"
#include "core/convolution_avx2.hpp"
#include "core/grid.hpp"
#include "core/nufft.hpp"
#include "core/tolerance.hpp"
#include "datasets/trajectory.hpp"
#include "kernels/es_kernel.hpp"
#include "kernels/horner.hpp"
#include "kernels/kernel.hpp"
#include "kernels/rolloff.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"

namespace nufft {
namespace {

using datasets::SampleSet;
using datasets::TrajectoryType;
using kernels::KernelEval;

constexpr ConvBackend kBackends[] = {ConvBackend::kScalar, ConvBackend::kSse,
                                     ConvBackend::kAvx2};

bool backend_available(ConvBackend b) {
  return b != ConvBackend::kAvx2 || avx2_available();
}

// One test body, every backend (the TEST_BOTH idiom): the macro defines the
// body once as a function of the backend, and the test runs it for each
// backend this CPU can execute, tagging failures with the backend's name.
#define TEST_EVERY_BACKEND(suite, name)                                \
  void suite##_##name##_body(ConvBackend backend);                     \
  TEST(suite, name) {                                                  \
    for (const ConvBackend b : kBackends) {                            \
      if (!backend_available(b)) continue;                             \
      SCOPED_TRACE(conv_backend_name(b));                              \
      suite##_##name##_body(b);                                        \
      if (::testing::Test::HasFatalFailure()) return;                  \
    }                                                                  \
  }                                                                    \
  void suite##_##name##_body(ConvBackend backend)

// ---- plan-construction helpers -------------------------------------------

index_t image_n_for(int dim) { return dim == 3 ? 10 : (dim == 2 ? 20 : 64); }

index_t count_for(int dim) { return dim == 3 ? 400 : (dim == 2 ? 350 : 300); }

/// PlanConfig that resolves exactly to `key` at plan time.
PlanConfig cfg_for(const ConvVariantKey& key) {
  PlanConfig cfg;
  cfg.kernel = key.eval == KernelEval::kHorner ? kernels::KernelType::kEs
                                               : kernels::KernelType::kKaiserBessel;
  cfg.eval = key.eval;
  cfg.kernel_radius = static_cast<double>(key.width2) / 2.0;
  cfg.lut_samples_per_unit = 512;
  cfg.threads = 1;
  switch (key.backend) {
    case ConvBackend::kScalar:
      cfg.use_simd = false;
      break;
    case ConvBackend::kSse:
      cfg.use_simd = true;
      cfg.isa = SimdIsa::kSse;
      break;
    case ConvBackend::kAvx2:
      cfg.use_simd = true;
      cfg.isa = SimdIsa::kAvx2;
      break;
  }
  return cfg;
}

/// Coordinates adjacent to cell boundaries: exact integers, exact
/// half-integers, and ±1-ulp perturbations of both — the inputs where the
/// k ± W float-rounding trim admits or rejects an edge neighbour, which is
/// exactly where a re-derived trim diverges first.
SampleSet boundary_samples(int dim, index_t m, index_t count) {
  SampleSet set;
  set.dim = dim;
  set.m = m;
  set.k = count;
  set.s = 1;
  const auto mf = static_cast<float>(m);
  for (int d = 0; d < dim; ++d) {
    fvec& c = set.coords[static_cast<std::size_t>(d)];
    c.resize(static_cast<std::size_t>(count));
    for (index_t i = 0; i < count; ++i) {
      // March cells with a dim-dependent stride so the dims decorrelate.
      const float cell =
          static_cast<float>((static_cast<index_t>(i) * (d + 1) + d) % m);
      float v;
      switch (i % 8) {
        case 0: v = cell; break;                                      // integer
        case 1: v = cell + 0.5f; break;                               // half-integer
        case 2: v = std::nextafterf(cell + 0.5f, 0.0f); break;        // half − 1 ulp
        case 3: v = std::nextafterf(cell + 0.5f, mf); break;          // half + 1 ulp
        case 4: v = std::nextafterf(cell, mf); break;                 // int + 1 ulp
        case 5: v = cell > 0.0f ? std::nextafterf(cell, 0.0f) : 0.0f; break;
        case 6: v = std::nextafterf(mf, 0.0f); break;                 // domain edge
        default: v = mf - 0.5f; break;
      }
      if (!(v >= 0.0f && v < mf)) v = 0.0f;
      c[static_cast<std::size_t>(i)] = v;
    }
  }
  return set;
}

/// Clustered samples: a tight blob in one corner so at least one task
/// crosses the (lowered) Eq. 6 privatization threshold — covers the
/// box-rebased spread path of the variants.
SampleSet clustered_samples(int dim, index_t m, index_t count) {
  SampleSet set;
  set.dim = dim;
  set.m = m;
  set.k = count;
  set.s = 1;
  const auto mf = static_cast<float>(m);
  for (int d = 0; d < dim; ++d) {
    fvec& c = set.coords[static_cast<std::size_t>(d)];
    c.resize(static_cast<std::size_t>(count));
    for (index_t i = 0; i < count; ++i) {
      // Deterministic pseudo-random offsets inside a 3-cell blob near the
      // domain edge (so windows also wrap).
      const auto h = static_cast<float>((i * 2654435761u + d * 40503u) % 3000u) / 1000.0f;
      float v = mf - 1.5f + h;  // [m − 1.5, m + 1.5) before wrap
      if (v >= mf) v -= mf;
      c[static_cast<std::size_t>(i)] = v;
    }
  }
  return set;
}

void expect_bitwise_equal(const cvecf& a, const cvecf& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(cfloat)), 0)
      << what << ": outputs differ bitwise";
}

/// Strides of a task's private box (row-major over the box extents).
std::array<index_t, 3> box_strides(const ConvTask& task, int dim) {
  std::array<index_t, 3> bst{1, 1, 1};
  for (int d = dim - 2; d >= 0; --d) {
    const auto ds = static_cast<std::size_t>(d);
    bst[ds] = bst[ds + 1] * (task.box_hi[ds + 1] - task.box_lo[ds + 1]);
  }
  return bst;
}

/// Run variants `spec` and `runtime` over every task range of `plan` at each
/// lane count of `nbs`, and compare bitwise: interp outputs, spreads into
/// the global grid, and spreads into each task's private box.
void compare_bodies(const Nufft& plan, const ConvVariant* spec, const ConvVariant* runtime,
                    std::initializer_list<index_t> nbs) {
  const GridDesc& g = plan.grid_desc();
  const auto st = g.grid_strides();
  const auto grid_elems = static_cast<std::size_t>(g.grid_elems());
  const index_t count = plan.sample_count();
  for (const index_t nb : nbs) {
    SCOPED_TRACE(spec->name + " nb=" + std::to_string(nb));
    const cvecf grids = testing::random_raw(nb * g.grid_elems(), 7);
    std::vector<cvecf> raws;
    std::vector<cvecf> outs_spec(static_cast<std::size_t>(nb), cvecf(static_cast<std::size_t>(count)));
    std::vector<cvecf> outs_rt = outs_spec;
    std::vector<const cfloat*> raw_ptrs;
    std::vector<cfloat*> spec_ptrs, rt_ptrs;
    for (index_t b = 0; b < nb; ++b) {
      raws.push_back(testing::random_raw(count, 11 + static_cast<std::uint64_t>(b)));
      raw_ptrs.push_back(raws.back().data());
      spec_ptrs.push_back(outs_spec[static_cast<std::size_t>(b)].data());
      rt_ptrs.push_back(outs_rt[static_cast<std::size_t>(b)].data());
    }

    // Forward Part 1+2 (interp) from identical grids.
    for (const ConvTask& task : plan.plan().tasks) {
      const ConvRange r = plan.conv_range(task, false);
      spec->interp(r, grids.data(), nb, st, spec_ptrs.data());
      runtime->interp(r, grids.data(), nb, st, rt_ptrs.data());
    }
    for (index_t b = 0; b < nb; ++b) {
      expect_bitwise_equal(outs_spec[static_cast<std::size_t>(b)],
                           outs_rt[static_cast<std::size_t>(b)],
                           "interp lane " + std::to_string(b));
    }

    // Adjoint Part 1+2 (spread) into the global grids, task by task.
    cvecf gs(static_cast<std::size_t>(nb) * grid_elems, cfloat(0.0f, 0.0f));
    cvecf gr = gs;
    for (const ConvTask& task : plan.plan().tasks) {
      const ConvRange r = plan.conv_range(task, false);
      spec->spread(r, raw_ptrs.data(), nb, gs.data(), st);
      runtime->spread(r, raw_ptrs.data(), nb, gr.data(), st);
    }
    expect_bitwise_equal(gs, gr, "spread");

    // Spread into every task's private box (box-local rebased indices — the
    // privatized path; the box covers the partition ± the kernel radius, so
    // it is valid for every task, privatized or not).
    for (const ConvTask& task : plan.plan().tasks) {
      const auto box = static_cast<std::size_t>(task.box_elems(g.dim));
      const auto bst = box_strides(task, g.dim);
      cvecf bs(static_cast<std::size_t>(nb) * box, cfloat(0.0f, 0.0f));
      cvecf br = bs;
      const ConvRange r = plan.conv_range(task, true);
      spec->spread(r, raw_ptrs.data(), nb, bs.data(), bst);
      runtime->spread(r, raw_ptrs.data(), nb, br.data(), bst);
      expect_bitwise_equal(bs, br, "private-box spread");
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

/// Run the constexpr-W variant for `key` and the runtime-width variant of
/// the same (backend, dim, evaluator) over every task range of a plan for
/// `set`, at nb = 1 and nb ∈ {2, 3, 4, 5, 16} interleaved lanes (every lane
/// tail of the SSE and AVX2 lane kernels), and compare bitwise.
void compare_variant(const ConvVariantKey& key, const GridDesc& g, const SampleSet& set,
                     int threads = 1, double privatization_factor = 1.0) {
  ConvVariantKey runtime_key = key;
  runtime_key.width2 = 0;
  const ConvVariant* spec = ConvDispatch::instance().find(key);
  const ConvVariant* runtime = ConvDispatch::instance().find(runtime_key);
  ASSERT_NE(spec, nullptr);
  ASSERT_TRUE(spec->key == key) << "variant not registered";
  ASSERT_NE(runtime, nullptr);
  ASSERT_TRUE(runtime->key == runtime_key) << "runtime-width entry not registered";

  PlanConfig cfg = cfg_for(key);
  cfg.threads = threads;
  cfg.privatization_factor = privatization_factor;
  const Nufft plan(g, set, cfg);
  ASSERT_EQ(&plan.conv_variant(), spec) << "plan did not bind " << spec->name;
  compare_bodies(plan, spec, runtime, {1, 2, 3, 4, 5, 16});
}

// ---- registry shape -------------------------------------------------------

TEST(ConvDispatchRegistry, CoversEveryCalibratedCombination) {
  const auto& variants = ConvDispatch::instance().variants();
  // 3 backends × 3 dims × (runtime width + 5 calibrated widths) × 2 evals.
  EXPECT_EQ(variants.size(), 108u);

  for (const ConvBackend b : kBackends) {
    for (std::uint8_t dim = 1; dim <= 3; ++dim) {
      for (std::uint8_t w2 = ConvDispatch::kMinWidth2 - 1; w2 <= ConvDispatch::kMaxWidth2; ++w2) {
        const std::uint8_t width2 = w2 < ConvDispatch::kMinWidth2 ? 0 : w2;
        for (const KernelEval e : {KernelEval::kLut, KernelEval::kHorner}) {
          const ConvVariantKey key{b, dim, width2, e};
          const ConvVariant* v = ConvDispatch::instance().find(key);
          ASSERT_NE(v, nullptr)
              << conv_backend_name(b) << " d" << int(dim) << " w" << int(width2);
          EXPECT_TRUE(v->key == key);
          EXPECT_NE(v->spread, nullptr);
          EXPECT_NE(v->interp, nullptr);
          EXPECT_EQ(v->key.id(), key.id());
        }
      }
    }
  }
}

TEST(ConvDispatchRegistry, UnknownKeysFindNothing) {
  // Only a dimension outside 1..3 has no entry at all.
  const auto& reg = ConvDispatch::instance();
  EXPECT_EQ(reg.find({ConvBackend::kAvx2, 4, 8, KernelEval::kHorner}), nullptr);  // dim 4
  EXPECT_EQ(reg.find({ConvBackend::kAvx2, 0, 8, KernelEval::kHorner}), nullptr);
  EXPECT_EQ(reg.find({ConvBackend::kScalar, 4, 0, KernelEval::kLut}), nullptr);
}

TEST(ConvDispatchRegistry, UncoveredWidthsFallBackToRuntimeWidth) {
  const auto& reg = ConvDispatch::instance();
  for (const std::uint8_t w2 : {std::uint8_t{3}, std::uint8_t{9}, std::uint8_t{0}}) {
    const ConvVariant* v = reg.find({ConvBackend::kSse, 2, w2, KernelEval::kLut});
    ASSERT_NE(v, nullptr) << "w" << int(w2);
    EXPECT_TRUE(v->key == (ConvVariantKey{ConvBackend::kSse, 2, 0, KernelEval::kLut}));
    EXPECT_EQ(v->name, "sse.d2.wany.lut");
  }
}

TEST(ConvDispatchRegistry, Width2RecognizesOnlyCalibratedHalfIntegerWidths) {
  EXPECT_EQ(conv_width2(2.0), 4);
  EXPECT_EQ(conv_width2(2.5), 5);
  EXPECT_EQ(conv_width2(4.0), 8);
  EXPECT_EQ(conv_width2(1.5), 0);   // below the calibrated set
  EXPECT_EQ(conv_width2(4.5), 0);   // above it
  EXPECT_EQ(conv_width2(2.3), 0);   // not half-integer
  EXPECT_EQ(conv_width2(0.0), 0);
}

// ---- the AVX2 Horner row evaluator ---------------------------------------

TEST(HornerAvx2, LaneExactWithScalarRecurrence) {
  if (!avx2_available()) GTEST_SKIP() << "no AVX2+FMA on this CPU";
  for (const double W : {2.0, 2.5, 3.0, 4.0}) {
    const kernels::EsKernel es(W, 2.0);
    const kernels::KernelHorner h(es);
    ASSERT_EQ(h.stride() % 8, 0) << "AVX2 row evaluation needs 8-float rows";
    const int len = h.segments();
    float ref[kernels::KernelHorner::kMaxStride];
    float got[kernels::KernelHorner::kMaxStride];
    for (int s = 0; s <= 64; ++s) {
      const float z = static_cast<float>(s) / 64.0f;
      h.eval_window(z, len, ref);
      kernels::eval_window_avx2(h, z, len, got);
      for (int i = 0; i < len; ++i) {
        ASSERT_EQ(std::memcmp(&ref[i], &got[i], sizeof(float)), 0)
            << "W=" << W << " z=" << z << " lane " << i
            << ": scalar=" << ref[i] << " avx2=" << got[i];
      }
    }
  }
}

// ---- the bit-match matrix -------------------------------------------------

TEST_EVERY_BACKEND(ConvDispatchBitMatch, EveryVariantMatchesGenericOnRandomPlans) {
  for (const ConvVariant& v : ConvDispatch::instance().variants()) {
    if (v.key.backend != backend || v.key.width2 == 0) continue;
    const int dim = v.key.dim;
    const index_t n = image_n_for(dim);
    const GridDesc g = make_grid(dim, n, 2.0);
    const auto set = testing::small_trajectory(TrajectoryType::kRandom, dim, n,
                                               count_for(dim), 31 + v.key.id() % 17);
    compare_variant(v.key, g, set);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_EVERY_BACKEND(ConvDispatchBitMatch, BoundaryCoordinateSweep) {
  // The float-rounding trim must behave identically in window_spec and
  // compute_window, so coordinates pinned to (and 1 ulp around) cell
  // boundaries — where the trim decides whether the edge neighbour is in or
  // out — must produce bitwise-equal results.
  for (const ConvVariant& v : ConvDispatch::instance().variants()) {
    if (v.key.backend != backend || v.key.width2 == 0) continue;
    const int dim = v.key.dim;
    const index_t n = image_n_for(dim);
    const GridDesc g = make_grid(dim, n, 2.0);
    const auto set = boundary_samples(dim, g.m[0], count_for(dim));
    compare_variant(v.key, g, set);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_EVERY_BACKEND(ConvDispatchBitMatch, PrivatizedTasksMatchGeneric) {
  // Clustered samples near the domain edge + a lowered threshold on a
  // two-thread plan (privatization needs > 1 thread): tasks cross the Eq. 6
  // threshold and their boxes straddle the periodic boundary, so the
  // box-rebased spread sees wrapped windows.
  for (const KernelEval e : {KernelEval::kLut, KernelEval::kHorner}) {
    const ConvVariantKey key{backend, 2, 8, e};
    const GridDesc g = make_grid(2, image_n_for(2), 2.0);
    const auto set = clustered_samples(2, g.m[0], 600);
    {
      PlanConfig cfg = cfg_for(key);
      cfg.threads = 2;
      cfg.privatization_factor = 0.25;
      const Nufft plan(g, set, cfg);
      ASSERT_GT(plan.plan().stats.privatized_tasks, 0) << "no task was privatized";
    }
    compare_variant(key, g, set, /*threads=*/2, /*privatization_factor=*/0.25);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ConvDispatchBitMatch, SseLanesMatchScalarLanes) {
  // Per lane, the SSE lane kernels run the scalar kernels' multiplies and
  // adds in the same order, so at nb ≥ 2 the two backends agree bitwise
  // (same Part 1: neither evaluates Horner rows with AVX2).
  for (const int dim : {1, 2, 3}) {
    for (const KernelEval e : {KernelEval::kLut, KernelEval::kHorner}) {
      const ConvVariantKey scalar_key{ConvBackend::kScalar, static_cast<std::uint8_t>(dim), 8, e};
      ConvVariantKey sse_key = scalar_key;
      sse_key.backend = ConvBackend::kSse;
      const index_t n = image_n_for(dim);
      const GridDesc g = make_grid(dim, n, 2.0);
      const auto set = testing::small_trajectory(TrajectoryType::kRandom, dim, n, count_for(dim));
      const Nufft plan(g, set, cfg_for(scalar_key));
      compare_bodies(plan, ConvDispatch::instance().find(sse_key),
                     ConvDispatch::instance().find(scalar_key), {2, 3, 4, 5, 16});
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// ---- the fused scale pass ----------------------------------------------------

/// image_to_grid as a plain scatter: clear the grid, then write every image
/// value × rolloff × chop to its wrapped grid cell, with the plan's multiply
/// grouping src · ((f0 · f1) · f2).
cvecf scatter_reference(const GridDesc& g, const PlanConfig& cfg, const cvecf& image) {
  const auto kernel = kernels::make_kernel(cfg.kernel, cfg.kernel_radius, g.alpha);
  std::array<fvec, 3> scale;
  std::array<std::vector<index_t>, 3> wrap;
  for (int d = 0; d < g.dim; ++d) {
    const auto ds = static_cast<std::size_t>(d);
    const index_t n = g.n[ds];
    scale[ds] = kernels::rolloff_1d(*kernel, n, g.m[ds]);
    for (index_t i = 0; i < n; ++i) {
      const index_t centered = i - n / 2;
      if ((centered & 1) != 0) scale[ds][static_cast<std::size_t>(i)] *= -1.0f;
      wrap[ds].push_back(centered >= 0 ? centered : centered + g.m[ds]);
    }
  }
  const auto st = g.grid_strides();
  const index_t n1 = g.dim >= 2 ? g.n[1] : 1;
  const index_t n2 = g.dim >= 3 ? g.n[2] : 1;
  cvecf grid(static_cast<std::size_t>(g.grid_elems()), cfloat(0.0f, 0.0f));
  for (index_t i0 = 0; i0 < g.n[0]; ++i0) {
    for (index_t i1 = 0; i1 < n1; ++i1) {
      for (index_t i2 = 0; i2 < n2; ++i2) {
        const cfloat v = image[static_cast<std::size_t>((i0 * n1 + i1) * n2 + i2)];
        float f = scale[0][static_cast<std::size_t>(i0)];
        index_t cell = wrap[0][static_cast<std::size_t>(i0)] * st[0];
        if (g.dim >= 2) {
          f = f * scale[1][static_cast<std::size_t>(i1)];
          cell += wrap[1][static_cast<std::size_t>(i1)] * st[1];
        }
        if (g.dim >= 3) {
          grid[static_cast<std::size_t>(cell + wrap[2][static_cast<std::size_t>(i2)])] =
              v * (f * scale[2][static_cast<std::size_t>(i2)]);
        } else {
          grid[static_cast<std::size_t>(cell)] = v * f;
        }
      }
    }
  }
  return grid;
}

TEST(FusedScalePass, ImageToGridMatchesScatterOnEveryCell) {
  // Even and odd image sizes (odd n shifts the chop/centering), and a W the
  // registry has no constexpr width for — every plan takes the fused pass.
  for (const int dim : {1, 2, 3}) {
    for (const index_t n : {image_n_for(dim), image_n_for(dim) - 1}) {
      for (const double radius : {4.0, 2.3}) {
        SCOPED_TRACE("dim=" + std::to_string(dim) + " n=" + std::to_string(n) +
                     " W=" + std::to_string(radius));
        const GridDesc g = make_grid(dim, n, 2.0);
        const auto set = testing::small_trajectory(TrajectoryType::kRandom, dim, n, 100);
        PlanConfig cfg;
        cfg.threads = 2;
        cfg.kernel_radius = radius;
        Nufft plan(g, set, cfg);
        const cvecf image = testing::random_image(g.image_elems(), 3);
        // Poison the grid first: the pass must write every cell itself.
        std::fill(plan.grid_data(), plan.grid_data() + g.grid_elems(),
                  cfloat(std::numeric_limits<float>::quiet_NaN(), 1.0f));
        plan.image_to_grid(image.data());
        const cvecf got(plan.grid_data(), plan.grid_data() + g.grid_elems());
        const cvecf want = scatter_reference(g, plan.config(), image);
        ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(cfloat)), 0);
      }
    }
  }
}

// ---- fallback rules --------------------------------------------------------

TEST(ConvDispatchFallback, UncoveredShapesRouteToGeneric) {
  const int dim = 2;
  const index_t n = image_n_for(dim);
  const GridDesc g = make_grid(dim, n, 2.0);
  const auto set = testing::small_trajectory(TrajectoryType::kRadial, dim, n, 300);
  const char* backend = avx2_available() ? "avx2" : "sse";
  const ConvBackend auto_backend = avx2_available() ? ConvBackend::kAvx2 : ConvBackend::kSse;

  // W below the calibrated set, and a non-half-integer W (LUT — Horner
  // requires half-integer widths anyway): the runtime-width entry binds.
  for (const double radius : {1.5, 2.3}) {
    PlanConfig cfg;
    cfg.kernel_radius = radius;
    cfg.threads = 1;
    cfg.isa = SimdIsa::kAuto;
    Nufft plan(g, set, cfg);
    EXPECT_FALSE(plan.plan_stats().conv_specialized);
    EXPECT_EQ(plan.plan_stats().conv_variant, std::string(backend) + ".d2.wany.lut");
    const ConvVariantKey runtime{auto_backend, 2, 0, KernelEval::kLut};
    EXPECT_EQ(plan.plan_stats().conv_variant_id, runtime.id());
    EXPECT_TRUE(plan.conv_variant().key == runtime);
  }
  // A covered shape binds its constexpr-W variant — to the key the config
  // implies, with the kAuto ISA resolving to the widest available backend.
  {
    PlanConfig cfg;
    cfg.threads = 1;  // default W = 4.0, KB + LUT
    cfg.isa = SimdIsa::kAuto;
    Nufft plan(g, set, cfg);
    EXPECT_TRUE(plan.plan_stats().conv_specialized);
    EXPECT_EQ(plan.plan_stats().conv_variant, std::string(backend) + ".d2.w8.lut");
    EXPECT_EQ(plan.conv_mode(), auto_backend);
  }
}

// ---- plan-time observability -----------------------------------------------

TEST(ConvDispatchObs, ToleranceDrivenEsPlanSelectsHornerVariantAndCounts) {
  // Acceptance criterion: a tolerance-planned ES config must bind the
  // Horner variant (AVX2 on this hardware) and the selection must be
  // observable through the obs counter.
  const int dim = 3;
  const index_t n = image_n_for(dim);
  const GridDesc g = make_grid(dim, n, 2.0);
  const auto set = testing::small_trajectory(TrajectoryType::kRandom, dim, n, 300);

  PlanConfig cfg;
  cfg.kernel = kernels::KernelType::kEs;
  cfg.tolerance = 1e-6;  // calibration table: W = 4.0, Horner
  cfg.threads = 1;
  cfg.isa = SimdIsa::kAuto;

  obs::set_metrics_enabled(true);
  obs::MetricsRegistry::instance().reset();
  Nufft plan(g, set, cfg);
  const auto snap = obs::MetricsRegistry::instance().snapshot();
  obs::set_metrics_enabled(false);

  ASSERT_TRUE(plan.plan_stats().conv_specialized);
  const std::string expected_backend = avx2_available() ? "avx2" : "sse";
  EXPECT_EQ(plan.plan_stats().conv_variant, expected_backend + ".d3.w8.horner");

  const std::string counter = "nufft.conv.variant." + plan.plan_stats().conv_variant;
  bool found = false;
  for (const auto& [name, value] : snap.counters) {
    if (name == counter) {
      found = true;
      EXPECT_GE(value, 1u);
    }
  }
  EXPECT_TRUE(found) << "selection counter " << counter << " was not recorded";
}

}  // namespace
}  // namespace nufft
