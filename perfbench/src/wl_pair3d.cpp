// pair3d: single-RHS Nufft::forward + Nufft::adjoint pairs on one fixed 3D
// plan — the paper's headline operation (Table II), at the default Table I
// row shrunk to container scale (N=64, 2x oversampled radial kooshball,
// ~196k samples, W=4, PlanConfig defaults, 4 plan threads).
#include <cstring>
#include <memory>

#include "checks.hpp"
#include "datasets/presets.hpp"
#include "exec/batch_nufft.hpp"
#include "layers.hpp"

namespace perfbench {

using namespace nufft;

Geometry3d kooshball(bool tiny) {
  const auto row = datasets::scaled(datasets::default_row(), tiny ? 16 : 4);
  Geometry3d geo;
  geo.grid = make_grid(3, row.n, 2.0);
  geo.samples = datasets::make_trajectory(datasets::TrajectoryType::kRadial, 3,
                                          datasets::params_for(row));
  geo.cfg.threads = 4;
  return geo;
}

namespace {

bool same_bits(const cvecf& a, const cvecf& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(cfloat)) == 0;
}


}  // namespace

void run_pair3d(const Args& args, Report& rep) {
  const Geometry3d geo = kooshball(args.tiny);
  const GridDesc& g = geo.grid;
  const index_t K = geo.samples.count();
  rep.context("N", static_cast<double>(g.n[0]));
  rep.context("samples", static_cast<double>(K));

  const auto plan = build_plan(g, geo.samples, geo.cfg, args.tiny, rep);
  Rng rng(args.seed);
  const cvecf image = random_complex(g.image_elems(), rng);
  cvecf raw_ref(static_cast<std::size_t>(K));
  cvecf back_ref(static_cast<std::size_t>(g.image_elems()));
  plan->forward(image.data(), raw_ref.data());
  plan->adjoint(raw_ref.data(), back_ref.data());

  // Pairs on the convenience API; every one must reproduce the reference
  // outputs bit for bit. A traced run alternates each with the same pair
  // composed from the public component calls, so both see the same machine.
  const GridFfts ffts(g);
  cvecf raw(raw_ref.size());
  cvecf back(back_ref.size());
  std::vector<double> times;
  std::vector<ComponentTimes> comps;
  std::vector<double> sums;
  const auto start = Clock::now();
  do {
    const auto t0 = Clock::now();
    plan->forward(image.data(), raw.data());
    plan->adjoint(raw.data(), back.data());
    times.push_back(since(t0));
    if (same_bits(raw, raw_ref) && same_bits(back, back_ref)) {
      rep.op_ok();
    } else {
      rep.op_failed();
    }
    if (args.trace) {
      comps.push_back(component_pair(*plan, ffts, image.data(), raw.data(), raw_ref.data(),
                                     back.data()));
      sums.push_back(comps.back().sum());
      rep.check(same_bits(raw, raw_ref) && same_bits(back, back_ref),
                "pair3d: component pair matches Nufft::forward/adjoint bit for bit");
    }
  } while (since(start) < (args.trace ? 0.8 : 1.0) * args.seconds);
  rep.check(rep.failed() == 0, "pair3d: every pair reproduces the first pair's outputs");
  // The measured program's memory: before the traced extras and the checks.
  rep.metric("peak_rss_mb", peak_rss_mb(), "MB");

  if (!args.trace) {
    record_op_times(rep, times);
  } else {
    const double untraced = median(times);
    const ComponentTimes med = median_of(comps);
    plan->adjoint(raw_ref.data(), back.data());  // refresh last_adjoint_stats
    record_components(rep, *plan, med, med.sum(), untraced);
    rep.metric("trace.overhead", median(sums) / untraced, "ratio");
    rep.metric("kernels.window_ns_per_sample", window_ns_per_sample(*plan, geo.samples), "ns");

    // The batched operator at nb=1 on the same plan (the B=1 gap).
    exec::BatchNufft b1(*plan, 1);
    std::vector<double> b1_times;
    for (int r = 0; r < (args.tiny ? 2 : 5); ++r) {
      const auto t0 = Clock::now();
      b1.forward(image.data(), raw.data(), 1);
      b1.adjoint(raw.data(), back.data(), 1);
      b1_times.push_back(since(t0));
    }
    std::vector<cdouble> ref(back_ref.begin(), back_ref.end());
    const double b1_err = rel_l2(back.data(), ref.data(), g.image_elems());
    rep.check(b1_err <= 1e-5, "pair3d: BatchNufft nb=1 pair agrees with the single-RHS pair");
    rep.metric("batch.b1_pair_s", median(b1_times), "s");
    record_prep(rep, g, geo.samples, geo.cfg, plan->pool(), args.tiny ? 1 : 3);
  }

  // Exact-NUDFT gates, both directions, on a seeded subset of samples.
  const auto subset = pick_subset(K, args.tiny ? 32 : 256, rng);
  if (args.tamper) raw_ref[static_cast<std::size_t>(subset[0])] += cfloat(1.0f, 0.0f);
  const double fwd_err = forward_error(g, geo.samples, subset, image.data(), raw_ref.data(),
                                       plan->pool());
  const cvecf vals = random_complex(static_cast<index_t>(subset.size()), rng);
  const cvecf sparse = scatter_subset(K, subset, vals);
  cvecf adj(static_cast<std::size_t>(g.image_elems()));
  plan->adjoint(sparse.data(), adj.data());
  const double adj_err = adjoint_error(g, geo.samples, subset, vals, adj.data(), plan->pool());
  check_rel_err(rep, "pair3d", fwd_err, adj_err);
}

}  // namespace perfbench
