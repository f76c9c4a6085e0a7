// Batched-execution throughput: full forward+adjoint transform pairs per
// second for batch widths B ∈ {1, 2, 4, 8, 16}, batched (exec::BatchNufft,
// one scheduler walk / window computation / pruned batched FFT for all B)
// against B sequential single applies on the same plan and thread count.
// Expected shape: the batch path pulls ahead monotonically with B — ≥2× at
// B = 8 on the radial Table I dataset — as the per-transform fixed costs
// amortize. Each B row also records the batched apply's phase split (scale,
// FFT, convolution of forward and adjoint) from the fastest repetition.
#include <cstdio>

#include "common.hpp"
#include "exec/batch_nufft.hpp"

using namespace nufft;
using namespace nufft::bench;

int main() {
  print_header("Batch throughput — fwd+adj transform pairs/s vs batch width");
  const auto row = default_row_scaled();
  const GridDesc g = make_grid(3, row.n, 2.0);
  const auto set = make_set(datasets::TrajectoryType::kRadial, row);

  PlanConfig cfg = optimized_config(bench_threads());
  cfg.isa = SimdIsa::kAuto;  // widest ISA for both the batch and the baseline
  Nufft plan(g, set, cfg);

  constexpr index_t kMaxB = 16;
  const index_t ne = g.image_elems();
  const index_t ns = set.count();
  const cvecf images = random_values(kMaxB * ne, 11);
  const cvecf raws = random_values(kMaxB * ns, 13);
  cvecf raw_out(static_cast<std::size_t>(kMaxB * ns));
  cvecf img_out(static_cast<std::size_t>(kMaxB * ne));

  std::printf("%4s  %14s  %14s  %8s  %26s  %26s\n", "B", "seq pairs/s", "batch pairs/s",
              "speedup", "fwd scale/fft/conv (s)", "adj scale/fft/conv (s)");
  BenchReport report("batch_throughput");
  for (const index_t B : {1, 2, 4, 8, 16}) {
    const double t_seq = time_call([&] {
      for (index_t b = 0; b < B; ++b) {
        plan.forward(images.data() + b * ne, raw_out.data() + b * ns);
        plan.adjoint(raws.data() + b * ns, img_out.data() + b * ne);
      }
    });

    exec::BatchNufft batch(plan, B);
    OperatorStats fwd, adj;
    double best = 1e300;
    const double t_batch = time_call([&] {
      batch.forward(images.data(), raw_out.data(), B);
      batch.adjoint(raws.data(), img_out.data(), B);
      const OperatorStats& f = batch.last_forward_stats();
      const OperatorStats& a = batch.last_adjoint_stats();
      if (f.total_s + a.total_s < best) {
        best = f.total_s + a.total_s;
        fwd = f;
        adj = a;
      }
    });

    const double seq_rate = static_cast<double>(B) / t_seq;
    const double batch_rate = static_cast<double>(B) / t_batch;
    std::printf("%4lld  %14.2f  %14.2f  %7.2fx  %8.4f/%8.4f/%8.4f  %8.4f/%8.4f/%8.4f\n",
                static_cast<long long>(B), seq_rate, batch_rate, batch_rate / seq_rate,
                fwd.scale_s, fwd.fft_s, fwd.conv_s, adj.scale_s, adj.fft_s, adj.conv_s);
    report.add("B=" + std::to_string(B), {{"batch", static_cast<double>(B)},
                                          {"seq_pairs_per_s", seq_rate},
                                          {"batch_pairs_per_s", batch_rate},
                                          {"speedup", batch_rate / seq_rate},
                                          {"fwd_scale_s", fwd.scale_s},
                                          {"fwd_fft_s", fwd.fft_s},
                                          {"fwd_conv_s", fwd.conv_s},
                                          {"adj_scale_s", adj.scale_s},
                                          {"adj_fft_s", adj.fft_s},
                                          {"adj_conv_s", adj.conv_s}});
  }
  report.write();
  return 0;
}
