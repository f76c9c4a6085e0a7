#include "layers.hpp"

#include <cmath>

#include "core/convolution.hpp"
#include "core/preprocess.hpp"
#include "kernels/kernel.hpp"
#include "kernels/lut.hpp"

namespace perfbench {

using namespace nufft;

namespace {

std::vector<std::size_t> grid_dims(const GridDesc& g) {
  std::vector<std::size_t> dims;
  for (int d = 0; d < g.dim; ++d) dims.push_back(static_cast<std::size_t>(g.m[static_cast<std::size_t>(d)]));
  return dims;
}

template <class Fn>
double timed(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return since(t0);
}

}  // namespace

GridFfts::GridFfts(const GridDesc& g)
    : fwd(grid_dims(g), fft::Direction::kForward), inv(grid_dims(g), fft::Direction::kInverse) {}

ComponentTimes component_pair(Nufft& plan, const GridFfts& ffts, const cfloat* image, cfloat* raw,
                              const cfloat* raw_in, cfloat* image_out) {
  ComponentTimes t;
  ThreadPool& pool = plan.pool();
  if (raw != nullptr) {
    t.to_grid = timed([&] { plan.image_to_grid(image); });
    t.fft_fwd = timed([&] { ffts.fwd.transform(plan.grid_data(), pool); });
    t.interp = timed([&] { plan.interp(raw); });
  }
  if (image_out != nullptr) {
    t.spread = timed([&] { plan.spread(raw_in); });
    t.fft_inv = timed([&] { ffts.inv.transform(plan.grid_data(), pool); });
    t.to_image = timed([&] { plan.grid_to_image(image_out); });
  }
  return t;
}

ComponentTimes median_of(const std::vector<ComponentTimes>& runs) {
  auto field = [&](double ComponentTimes::*f) {
    std::vector<double> v;
    for (const auto& r : runs) v.push_back(r.*f);
    return median(v);
  };
  ComponentTimes m;
  m.to_grid = field(&ComponentTimes::to_grid);
  m.fft_fwd = field(&ComponentTimes::fft_fwd);
  m.interp = field(&ComponentTimes::interp);
  m.spread = field(&ComponentTimes::spread);
  m.fft_inv = field(&ComponentTimes::fft_inv);
  m.to_image = field(&ComponentTimes::to_image);
  return m;
}

void record_components(Report& rep, const Nufft& plan, const ComponentTimes& med,
                       double accounted_s, double untraced_op_s) {
  rep.metric("core.to_grid_s", med.to_grid, "s");
  rep.metric("core.interp_s", med.interp, "s");
  rep.metric("core.spread_s", med.spread, "s");
  rep.metric("core.to_image_s", med.to_image, "s");
  const OperatorStats& adj = plan.last_adjoint_stats();
  rep.metric("core.load_imbalance", adj.load_imbalance(), "ratio");
  rep.metric("core.privatized_tasks", adj.privatized_tasks, "count");
  const double gap = 1.0 - accounted_s / untraced_op_s;
  rep.metric("core.ledger_gap", gap, "ratio");
  rep.check(std::abs(gap) <= kMaxLedgerGap,
            "components account for the untraced operation within kMaxLedgerGap");
  rep.metric("fft.fwd_s", med.fft_fwd, "s");
  rep.metric("fft.inv_s", med.fft_inv, "s");
  // The conventional 5·n·log2(n) flop count of a complex FFT of n points.
  const auto n = static_cast<double>(plan.grid_desc().grid_elems());
  const double flops = 5.0 * n * std::log2(n);
  rep.metric("fft.gflops", 2.0 * flops / (med.fft_fwd + med.fft_inv) * 1e-9, "GFLOP/s");
}

double window_ns_per_sample(const Nufft& plan, const datasets::SampleSet& samples) {
  const PlanConfig& cfg = plan.config();
  const GridDesc& g = plan.grid_desc();
  const auto kernel = kernels::make_kernel(cfg.kernel, cfg.kernel_radius, g.alpha);
  const kernels::KernelLut lut(*kernel, cfg.lut_samples_per_unit);
  const index_t count = samples.count();
  const int dim = g.dim;
  WindowBuf wb;
  std::vector<double> per_sample;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    for (index_t i = 0; i < count; ++i) {
      float c[3] = {0.0f, 0.0f, 0.0f};
      for (int d = 0; d < dim; ++d) c[d] = samples.coords[static_cast<std::size_t>(d)][static_cast<std::size_t>(i)];
      compute_window(g, lut, c, dim, true, wb);
    }
    per_sample.push_back(since(t0) * 1e9 / static_cast<double>(count > 0 ? count : 1));
  }
  return median(per_sample);
}

void record_prep(Report& rep, const GridDesc& g, const datasets::SampleSet& samples,
                 const PlanConfig& cfg, ThreadPool& pool, int reps) {
  std::vector<double> cold;
  PreprocessStats st;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    const Preprocessed pp = preprocess(g, samples, cfg, pool);
    cold.push_back(since(t0));
    st = pp.stats;
  }
  rep.metric("prep.cold_s", median(cold), "s");
  rep.metric("prep.partition_s", st.partition_s, "s");
  rep.metric("prep.bin_s", st.bin_s, "s");
  rep.metric("prep.reorder_s", st.reorder_s, "s");
  rep.metric("prep.gather_s", st.gather_s, "s");
  rep.metric("prep.graph_s", st.graph_s, "s");
}

}  // namespace perfbench
