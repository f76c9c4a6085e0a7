// stream2d: one 2D radial plan (N=256, 131k samples, 4 threads) follows a
// moving trajectory, the dynamic-MRI gridding loop. Each frame is one
// Nufft::update_samples and one Nufft::adjoint. Most frames jitter a small
// share of the samples (the delta path); every kRotateEvery-th frame rotates
// the whole trajectory (the rebuild path).
#include <cmath>
#include <cstring>

#include "checks.hpp"
#include "layers.hpp"

namespace perfbench {

using namespace nufft;

namespace {

constexpr int kRotateEvery = 8;
constexpr double kJitterFraction = 0.02;

/// The seeded trajectory motion: frame f's coordinates from frame f-1's.
class Motion {
 public:
  Motion(const datasets::SampleSet& base, std::uint64_t seed)
      : base_(base), cur_(base), rng_(seed) {}

  const datasets::SampleSet& current() const { return cur_; }

  /// Advances to the next frame; true when it was a whole-trajectory rotation.
  bool next() {
    ++frame_;
    const auto m = static_cast<double>(base_.m);
    const index_t count = base_.count();
    if (frame_ % kRotateEvery == 0) {
      angle_ += rng_.uniform(0.01, 0.05);
      const double c = std::cos(angle_);
      const double s = std::sin(angle_);
      for (index_t i = 0; i < count; ++i) {
        const auto x = static_cast<double>(base_.coords[0][static_cast<std::size_t>(i)]) - 0.5 * m;
        const auto y = static_cast<double>(base_.coords[1][static_cast<std::size_t>(i)]) - 0.5 * m;
        cur_.coords[0][static_cast<std::size_t>(i)] = wrap(0.5 * m + c * x - s * y, m);
        cur_.coords[1][static_cast<std::size_t>(i)] = wrap(0.5 * m + s * x + c * y, m);
      }
      return true;
    }
    const auto moved = static_cast<index_t>(kJitterFraction * static_cast<double>(count));
    for (index_t j = 0; j < moved; ++j) {
      const auto i = static_cast<std::size_t>(rng_.below(static_cast<std::uint64_t>(count)));
      for (int d = 0; d < 2; ++d) {
        auto& v = cur_.coords[static_cast<std::size_t>(d)][i];
        v = wrap(static_cast<double>(v) + rng_.uniform(-0.5, 0.5), m);
      }
    }
    return false;
  }

 private:
  static float wrap(double v, double m) {
    v = std::fmod(v, m);
    if (v < 0.0) v += m;
    auto f = static_cast<float>(v);
    return f < static_cast<float>(m) ? f : 0.0f;
  }

  const datasets::SampleSet& base_;
  datasets::SampleSet cur_;
  Rng rng_;
  int frame_ = 0;
  double angle_ = 0.0;
};

struct FrameLog {
  std::vector<double> total;     // update + adjoint
  std::vector<double> update;    // update_samples alone
  std::vector<ComponentTimes> adjoint;  // traced frames only
  std::vector<double> rebinned;  // warm frames only
  std::vector<double> dirty;     // warm frames only
  int fallbacks = 0;             // jitter frames that rebuilt anyway
};

}  // namespace

void run_stream2d(const Args& args, Report& rep) {
  const index_t N = args.tiny ? 32 : 256;
  const GridDesc g = make_grid(2, N, 2.0);
  datasets::TrajectoryParams tp;
  tp.n = N;
  tp.k = 2 * N;
  tp.s = N;
  const auto base = datasets::make_trajectory(datasets::TrajectoryType::kRadial, 2, tp);
  const index_t K = base.count();
  PlanConfig cfg;
  cfg.threads = 4;
  rep.context("N", static_cast<double>(N));
  rep.context("samples", static_cast<double>(K));
  rep.context("rotate_every", kRotateEvery);
  rep.context("jitter_fraction", kJitterFraction);

  const auto plan = build_plan(g, base, cfg, args.tiny, rep);
  Rng rng(args.seed);
  const cvecf raw = random_complex(K, rng);
  cvecf image(static_cast<std::size_t>(g.image_elems()));
  Motion motion(base, args.seed ^ 0x5EEDull);
  const GridFfts ffts(g);

  // One frame: move the trajectory, update the plan, grid the frame's data.
  auto frame = [&](FrameLog& log, bool traced) {
    const bool rotated = motion.next();
    const auto t0 = Clock::now();
    const UpdatePath path = plan->update_samples(motion.current());
    const double t_update = since(t0);
    if (traced) {
      log.adjoint.push_back(component_pair(*plan, ffts, nullptr, nullptr, raw.data(), image.data()));
    } else {
      plan->adjoint(raw.data(), image.data());
    }
    log.total.push_back(since(t0));
    log.update.push_back(t_update);
    const PreprocessStats& st = plan->plan().stats;
    if (path == UpdatePath::kWarm) {
      log.rebinned.push_back(static_cast<double>(st.rebinned_samples));
      log.dirty.push_back(st.dirty_tasks);
    } else if (path == UpdatePath::kRebuild && !rotated) {
      ++log.fallbacks;
    }
    // A rotation moves every sample, past the delta threshold; a jitter frame
    // always changes something.
    const bool ok = rotated ? path == UpdatePath::kRebuild : path != UpdatePath::kNoop;
    if (ok) {
      rep.op_ok();
    } else {
      rep.op_failed();
    }
  };
  // Frames run in blocks of kRotateEvery, so every block holds one rotation.
  // A traced run alternates untraced and traced blocks, so both see the same
  // machine.
  FrameLog untraced;
  FrameLog traced;
  const auto start = Clock::now();
  for (int block = 0; since(start) < (args.trace ? 0.8 : 1.0) * args.seconds; ++block) {
    const bool traced_block = args.trace && block % 2 == 1;
    for (int f = 0; f < kRotateEvery; ++f) frame(traced_block ? traced : untraced, traced_block);
  }
  rep.check(rep.failed() == 0, "stream2d: every frame takes the update path its motion implies");
  rep.context("fallbacks", untraced.fallbacks + traced.fallbacks);
  // The streaming program's memory: before the traced extras and the cold
  // plan and NUDFT buffers of the checks.
  rep.metric("peak_rss_mb", peak_rss_mb(), "MB");

  if (!args.trace) {
    record_op_times(rep, untraced.total);
  } else {
    const double frame_s = median(untraced.total);
    rep.metric("trace.overhead", median(traced.total) / frame_s, "ratio");
    rep.metric("prep.update_s", median(traced.update), "s");
    rep.metric("prep.rebinned_samples", median(traced.rebinned), "count");
    rep.metric("prep.dirty_tasks", median(traced.dirty), "count");
    rep.metric("prep.fallbacks", traced.fallbacks, "count");

    // Forward components on the current plan complete the core/fft split.
    const cvecf img_in = random_complex(g.image_elems(), rng);
    cvecf raw_out(static_cast<std::size_t>(K));
    std::vector<ComponentTimes> fwd;
    for (int r = 0; r < 5; ++r) {
      fwd.push_back(component_pair(*plan, ffts, img_in.data(), raw_out.data(), nullptr, nullptr));
    }
    ComponentTimes med = median_of(traced.adjoint);
    const ComponentTimes fmed = median_of(fwd);
    med.to_grid = fmed.to_grid;
    med.fft_fwd = fmed.fft_fwd;
    med.interp = fmed.interp;
    plan->adjoint(raw.data(), image.data());  // refresh last_adjoint_stats
    const double accounted = median(traced.update) + med.spread + med.fft_inv + med.to_image;
    record_components(rep, *plan, med, accounted, frame_s);
    rep.metric("kernels.window_ns_per_sample", window_ns_per_sample(*plan, motion.current()),
               "ns");
    record_prep(rep, g, motion.current(), cfg, plan->pool(), 3);
  }

  // The streamed plan must equal a cold plan of the final trajectory, and
  // both directions must match exact NUDFT.
  const datasets::SampleSet& now = motion.current();
  Nufft cold(g, now, cfg);
  cvecf img_stream(image.size());
  cvecf img_cold(image.size());
  plan->adjoint(raw.data(), img_stream.data());
  cold.adjoint(raw.data(), img_cold.data());
  rep.check(std::memcmp(img_stream.data(), img_cold.data(), image.size() * sizeof(cfloat)) == 0,
            "stream2d: streamed plan's adjoint equals a cold plan's bit for bit");

  const auto subset = pick_subset(K, args.tiny ? 32 : 256, rng);
  const cvecf img_in = random_complex(g.image_elems(), rng);
  cvecf fwd(static_cast<std::size_t>(K));
  plan->forward(img_in.data(), fwd.data());
  if (args.tamper) fwd[static_cast<std::size_t>(subset[0])] += cfloat(1.0f, 0.0f);
  const double fwd_err = forward_error(g, now, subset, img_in.data(), fwd.data(), plan->pool());
  const cvecf vals = random_complex(static_cast<index_t>(subset.size()), rng);
  const cvecf sparse = scatter_subset(K, subset, vals);
  plan->adjoint(sparse.data(), img_stream.data());
  const double adj_err = adjoint_error(g, now, subset, vals, img_stream.data(), plan->pool());
  check_rel_err(rep, "stream2d", fwd_err, adj_err);
}

}  // namespace perfbench
