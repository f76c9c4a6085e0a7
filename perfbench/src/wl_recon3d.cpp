// recon3d: mri::MultichannelRecon CG on pair3d's geometry with 4 coils and a
// fixed iteration count, so every normal-operator apply is one coil-batched
// exec::BatchNufft (nb=4) forward + adjoint walk.
#include <algorithm>
#include <cmath>
#include <functional>
#include <string>

#include "exec/batch_nufft.hpp"
#include "layers.hpp"
#include "mri/cg.hpp"
#include "mri/coils.hpp"
#include "mri/phantom.hpp"
#include "mri/recon.hpp"

namespace perfbench {

using namespace nufft;

namespace {

constexpr int kCoils = 4;
constexpr int kIters = 4;

// NRMSE of the kIters-iteration reconstruction against the phantom, recorded
// for seeds 0-20 (Release build, x86-64 with AVX2); a run with one of these
// seeds must reproduce it. The noise moves it by ~1e-5 between seeds, so the
// tolerance leaves room for float rounding-order changes and no more.
constexpr double kRecordedNrmse[] = {
    0.7228044099,  // seed 0
    0.7228086015,  // seed 1
    0.7228033517,  // seed 2
    0.722810728,  // seed 3
    0.7228181618,  // seed 4
    0.7227956291,  // seed 5
    0.7228082331,  // seed 6
    0.7228047139,  // seed 7
    0.7228123089,  // seed 8
    0.7228067183,  // seed 9
    0.7228108397,  // seed 10
    0.7227984723,  // seed 11
    0.7227985078,  // seed 12
    0.7228152511,  // seed 13
    0.7227959153,  // seed 14
    0.7228101229,  // seed 15
    0.722798485,  // seed 16
    0.7227996541,  // seed 17
    0.7228030436,  // seed 18
    0.7228004571,  // seed 19
    0.7228027773,  // seed 20
};
constexpr double kNrmseTolerance = 1e-6;  // relative

/// Noise at 1% of the data's RMS, so the seed shapes the problem.
void add_noise(std::vector<cvecf>& data, Rng& rng) {
  for (auto& coil : data) {
    double energy = 0.0;
    for (const auto& v : coil) energy += std::norm(std::complex<double>(v.real(), v.imag()));
    const double sigma = 0.01 * std::sqrt(energy / static_cast<double>(coil.size()) / 2.0);
    for (auto& v : coil) {
      const auto re = static_cast<float>(sigma * rng.normal());
      v += cfloat(re, static_cast<float>(sigma * rng.normal()));
    }
  }
}

}  // namespace

void run_recon3d(const Args& args, Report& rep) {
  const Geometry3d geo = kooshball(args.tiny);
  const GridDesc& g = geo.grid;
  const index_t n = g.image_elems();
  rep.context("N", static_cast<double>(g.n[0]));
  rep.context("samples", static_cast<double>(geo.samples.count()));
  rep.context("coils", kCoils);
  rep.context("cg_iters", kIters);

  const auto plan = build_plan(g, geo.samples, geo.cfg, args.tiny, rep);
  const cvecf truth = mri::make_phantom(g);
  mri::MultichannelRecon recon(*plan, mri::make_coil_maps(g, kCoils));
  auto data = recon.simulate(truth.data());
  Rng rng(args.seed);
  add_noise(data, rng);

  mri::CgOptions opt;
  opt.max_iters = kIters;
  opt.tolerance = 0.0;  // never stop early: a fixed amount of work per solve

  double nrmse_first = -1.0;
  // At least two solves, so the repeat check always has a pair to compare.
  // `after` runs after each solve, outside its timing.
  auto solve_loop = [&](double budget_s, std::vector<double>& times,
                        const std::function<void()>& after) {
    const auto start = Clock::now();
    do {
      const auto t0 = Clock::now();
      mri::ReconResult res = recon.reconstruct(data, opt);
      times.push_back(since(t0));
      if (args.tamper && nrmse_first < 0.0) res.image[0] += cfloat(1.0f, 0.0f);
      const double e = mri::nrmse(res.image.data(), truth.data(), n);
      if (nrmse_first < 0.0) nrmse_first = e;
      // Every solve is the same computation: iteration count and error repeat.
      if (res.cg.iterations == kIters && e == nrmse_first) {
        rep.op_ok();
      } else {
        rep.op_failed();
      }
      after();
    } while (times.size() < 2 || since(start) < budget_s);
  };

  std::vector<double> times;
  solve_loop(args.trace ? 0.35 * args.seconds : args.seconds, times, [] {});
  rep.check(rep.failed() == 0, "recon3d: every solve runs kIters iterations to the same NRMSE");
  rep.metric("peak_rss_mb", peak_rss_mb(), "MB");  // before the traced extras

  rep.metric("rel_err", nrmse_first, "ratio");
  rep.context("recon_nrmse", nrmse_first);
  rep.check(nrmse_first < 1.0, "recon3d: reconstruction is closer to the phantom than zero");
  const auto nrec = static_cast<std::uint64_t>(std::size(kRecordedNrmse));
  if (!args.tiny && args.seed < nrec) {
    const double want = kRecordedNrmse[args.seed];
    rep.context("recon_nrmse_recorded", want);
    rep.check(std::abs(nrmse_first - want) <= kNrmseTolerance * want,
              "recon3d: NRMSE equals the value recorded for seed " + std::to_string(args.seed));
  } else {
    rep.context("recon_nrmse_recorded", "none for this seed");
  }

  if (!args.trace) {
    record_op_times(rep, times);
  } else {
    // A solve is one batched adjoint for the right-hand side plus kIters
    // normal-operator applies (batched forward + adjoint between coil
    // weightings). After each traced solve, so both see the same machine
    // state, the batched applies are timed on their own, and so is the rest:
    // the right-hand side's coil sum and kIters CG iterations whose normal
    // operator keeps the coil weighting and leaves out the applies.
    exec::BatchNufft batch(*plan, kCoils);
    const cvecf images = random_complex(kCoils * n, rng);
    cvecf raws(static_cast<std::size_t>(kCoils * plan->sample_count()));
    cvecf back(images.size());
    const std::vector<cvecf> maps = mri::make_coil_maps(g, kCoils);
    cvecf weighted(images.size());
    cvecf rhs(static_cast<std::size_t>(n));
    cvecf x(rhs.size());
    auto weighting_only = [&](const cfloat* in, cfloat* out) {
      std::fill(out, out + n, cfloat(0.0f, 0.0f));
      for (int c = 0; c < kCoils; ++c) {
        cfloat* w = weighted.data() + static_cast<std::size_t>(c) * static_cast<std::size_t>(n);
        mri::apply_coil(maps[static_cast<std::size_t>(c)].data(), in, w, n);
        mri::accumulate_coil_adjoint(maps[static_cast<std::size_t>(c)].data(), w, out, n);
      }
    };
    std::vector<double> fwd;
    std::vector<double> adj;
    std::vector<double> other;
    std::vector<double> traced;
    solve_loop(0.35 * args.seconds, traced, [&] {
      auto t0 = Clock::now();
      batch.forward(images.data(), raws.data(), kCoils);
      fwd.push_back(since(t0));
      t0 = Clock::now();
      batch.adjoint(raws.data(), back.data(), kCoils);
      adj.push_back(since(t0));
      t0 = Clock::now();
      std::fill(rhs.begin(), rhs.end(), cfloat(0.0f, 0.0f));
      for (int c = 0; c < kCoils; ++c) {
        mri::accumulate_coil_adjoint(maps[static_cast<std::size_t>(c)].data(),
                                     back.data() + static_cast<std::size_t>(c) * rhs.size(),
                                     rhs.data(), n);
      }
      const mri::CgResult cg = mri::conjugate_gradient(weighting_only, rhs.data(), x.data(), n, opt);
      other.push_back(since(t0));
      rep.check(cg.iterations == kIters, "recon3d: cg.other_s covers kIters iterations");
    });
    rep.check(rep.failed() == 0, "recon3d: traced solves reproduce the untraced ones");
    rep.metric("trace.overhead", median(traced) / median(times), "ratio");
    rep.metric("batch.fwd_s", median(fwd), "s");
    rep.metric("batch.adj_s", median(adj), "s");
    rep.metric("cg.iters", kIters, "count");
    rep.metric("cg.other_s", median(other), "s");
    record_prep(rep, g, geo.samples, geo.cfg, plan->pool(), args.tiny ? 1 : 3);
  }
}

}  // namespace perfbench
