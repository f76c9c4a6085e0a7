// serve2d: open-loop traffic against an in-process serve::NufftServer on
// AF_UNIX (2 engine workers, one 2D N=32 plan per tenant). One generator
// thread pipelines Submit frames over 4 connections from two tenants, mixing
// forward and adjoint requests with Poisson arrivals, through a ladder of
// paced rates below capacity and one overload rate well above it. Each
// request is timed from its scheduled send time.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "baselines/nudft.hpp"
#include "checks.hpp"
#include "layers.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace perfbench {

using namespace nufft;
using namespace nufft::serve;

namespace {

constexpr index_t kN = 32;
// Below capacity: ~3.3k req/s overload goodput on a 4-vCPU AVX-512 VM, and
// ~2k req/s there while the host steals a third of the CPU.
constexpr double kPacedRps[] = {500.0, 1000.0, 1500.0};
constexpr double kPacedShare[] = {0.4, 0.12, 0.12};      // of the run's seconds
constexpr double kOverloadRps = 15000.0;                 // several times capacity
constexpr double kOverloadShare = 0.16;
constexpr int kRateWindows = 5;     // time windows behind serve.goodput_rps.over
constexpr double kSloMs = 5.0;      // p99 latency limit behind serve.max_rps_slo
// Generator lateness (p99 over the paced rates) that invalidates a run: far
// above the sub-ms lag of a healthy run, so only a starved generator trips
// it. A late generator at the overload rate only offers less excess load.
constexpr double kMaxLagMs = 20.0;
constexpr int kConns = 4;           // conns 0,1 → tenant "a"; 2,3 → tenant "b"
constexpr int kInputs = 4;          // distinct payloads per direction

double ms_since(Clock::time_point t0, Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(t - t0).count();
}

/// One AF_UNIX connection: blocking request/response during set-up, then
/// non-blocking pipelined I/O for the generator.
class Conn {
 public:
  explicit Conn(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect(" + path + ") failed: " + std::strerror(errno));
    }
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd() const { return fd_; }
  bool want_write() const { return woff_ < wbuf_.size(); }

  void queue(MsgType type, std::uint64_t rid, const Bytes& body) {
    encode_frame(wbuf_, type, rid, body);
  }

  /// Queues a copy of an encoded frame under request id `rid`. The checksum
  /// covers only the body, so re-stamping the header id keeps it valid and
  /// spares the generator a re-encode per request.
  void queue_as(const Bytes& frame, std::uint64_t rid) {
    const std::size_t at = wbuf_.size();
    wbuf_.insert(wbuf_.end(), frame.begin(), frame.end());
    std::memcpy(wbuf_.data() + at + offsetof(FrameHeader, request_id), &rid, sizeof rid);
  }

  /// Writes what the socket accepts without blocking.
  void flush() {
    while (woff_ < wbuf_.size()) {
      const ssize_t n = ::send(fd_, wbuf_.data() + woff_, wbuf_.size() - woff_,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("send failed: ") + std::strerror(errno));
      }
      woff_ += static_cast<std::size_t>(n);
    }
    wbuf_.clear();
    woff_ = 0;
  }

  /// Reads what is available and appends every complete frame to `out`.
  void drain(std::vector<Frame>& out) {
    std::uint8_t buf[1 << 16];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
      if (n > 0) {
        rbuf_.insert(rbuf_.end(), buf, buf + n);
        continue;
      }
      if (n == 0) throw std::runtime_error("server closed the connection");
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      throw std::runtime_error(std::string("recv failed: ") + std::strerror(errno));
    }
    std::size_t off = 0;
    for (;;) {
      Frame f;
      const std::size_t used = try_decode_frame(rbuf_.data() + off, rbuf_.size() - off, f);
      if (used == 0) break;
      off += used;
      out.push_back(std::move(f));
    }
    rbuf_.erase(rbuf_.begin(), rbuf_.begin() + static_cast<std::ptrdiff_t>(off));
  }

  /// Blocking round trip for set-up messages (5 s limit).
  Frame rpc(MsgType type, std::uint64_t rid, const Bytes& body) {
    queue(type, rid, body);
    std::vector<Frame> got;
    const auto start = Clock::now();
    while (got.empty()) {
      if (since(start) > 5.0) throw std::runtime_error("set-up round trip timed out");
      pollfd p{fd_, static_cast<short>(POLLIN | (want_write() ? POLLOUT : 0)), 0};
      ::poll(&p, 1, 100);
      flush();
      drain(got);
    }
    if (got.front().type == MsgType::kError) {
      throw std::runtime_error("server error: " + decode_error(got.front().body).message);
    }
    return std::move(got.front());
  }

 private:
  int fd_ = -1;
  Bytes wbuf_;
  std::size_t woff_ = 0;
  Bytes rbuf_;
};

enum class Outcome : std::uint8_t { kPending, kOk, kShed, kFailed };

struct Request {
  double due_ms = 0.0;   // scheduled send time, from the phase start
  double lag_ms = 0.0;   // how late the generator queued it
  double lat_ms = 0.0;   // scheduled send → reply decoded
  std::uint32_t queue_wait_us = 0;
  std::uint32_t exec_us = 0;
  std::uint8_t conn = 0;
  std::uint8_t payload = 0;  // index into Traffic::frames / expected
  Outcome outcome = Outcome::kPending;
};

struct Phase {
  double rps = 0.0;
  double seconds = 0.0;
  std::vector<Request> reqs;
  double goodput_rps = 0.0;  // ok replies per second (median over time windows)
  std::size_t count(Outcome o) const {
    return static_cast<std::size_t>(
        std::count_if(reqs.begin(), reqs.end(), [o](const Request& r) { return r.outcome == o; }));
  }
  std::vector<double> latencies(Outcome o) const {
    std::vector<double> v;
    for (const auto& r : reqs) {
      if (r.outcome == o) v.push_back(r.lat_ms);
    }
    return v;
  }
};

/// Everything the generator sends and expects back.
struct Traffic {
  std::vector<std::unique_ptr<Conn>> conns;
  // frames[tenant][payload]: encoded Submit frames, payload = op * kInputs + input
  std::vector<Bytes> frames[2];
  std::vector<std::vector<cdouble>> expected;  // exact NUDFT per payload
  // Squared error and squared reference norm of each payload's first reply.
  std::vector<double> err2;
  std::vector<double> ref2;
  std::uint64_t next_rid = 1000;
  bool tamper = false;
};

/// Runs one phase: Poisson arrivals at `rps` for `seconds`, then waits (up to
/// 5 s) for every reply. Replies are checked against exact NUDFT.
void run_phase(Traffic& tr, Phase& ph, Rng& rng, Report& rep) {
  // Schedule.
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) * 1000.0 / ph.rps;
    if (t >= ph.seconds * 1000.0) break;
    Request r;
    r.due_ms = t;
    r.conn = static_cast<std::uint8_t>(rng.below(kConns));
    r.payload = static_cast<std::uint8_t>(rng.below(2 * kInputs));
    ph.reqs.push_back(r);
  }
  const std::uint64_t rid0 = tr.next_rid;
  tr.next_rid += ph.reqs.size();

  std::vector<pollfd> pfds(kConns);
  std::vector<Frame> frames;
  std::size_t next = 0;
  std::size_t open = 0;
  const auto start = Clock::now();
  while (next < ph.reqs.size() || open > 0) {
    auto now = Clock::now();
    double now_ms = ms_since(start, now);
    if (now_ms > ph.seconds * 1000.0 + 5000.0) break;  // unanswered → failed below
    while (next < ph.reqs.size() && ph.reqs[next].due_ms <= now_ms) {
      Request& r = ph.reqs[next];
      const int tenant = r.conn / 2;
      tr.conns[r.conn]->queue_as(tr.frames[tenant][r.payload], rid0 + next);
      r.lag_ms = now_ms - r.due_ms;
      ++next;
      ++open;
    }
    for (int c = 0; c < kConns; ++c) {
      tr.conns[static_cast<std::size_t>(c)]->flush();
      pfds[static_cast<std::size_t>(c)] = {
          tr.conns[static_cast<std::size_t>(c)]->fd(),
          static_cast<short>(POLLIN |
                             (tr.conns[static_cast<std::size_t>(c)]->want_write() ? POLLOUT : 0)),
          0};
    }
    // Poll without sleeping, so neither a send nor a reply waits on this
    // thread's own wake-up.
    const timespec ts{0, 0};
    ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    frames.clear();
    for (int c = 0; c < kConns; ++c) {
      if ((pfds[static_cast<std::size_t>(c)].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        tr.conns[static_cast<std::size_t>(c)]->drain(frames);
      }
    }
    now = Clock::now();
    now_ms = ms_since(start, now);
    for (Frame& f : frames) {
      if (f.request_id < rid0 || f.request_id >= rid0 + ph.reqs.size()) {
        rep.check(false, "serve2d: reply to a request id never sent in this phase");
        continue;
      }
      Request& r = ph.reqs[f.request_id - rid0];
      if (r.outcome != Outcome::kPending) {
        rep.check(false, "serve2d: second reply to one request");
        continue;
      }
      --open;
      r.lat_ms = now_ms - r.due_ms;
      if (f.type == MsgType::kResult) {
        ResultMsg m = decode_result(f.body);
        r.queue_wait_us = static_cast<std::uint32_t>(m.queue_wait_us);
        r.exec_us = static_cast<std::uint32_t>(m.exec_us);
        const auto& want = tr.expected[r.payload];
        if (tr.tamper) m.output[0] += cfloat(1.0f, 0.0f);
        double err = 1.0;
        if (m.output.size() == want.size()) {
          double num = 0.0;
          double den = 0.0;
          for (std::size_t i = 0; i < want.size(); ++i) {
            num += std::norm(cdouble(m.output[i].real(), m.output[i].imag()) - want[i]);
            den += std::norm(want[i]);
          }
          err = std::sqrt(num / den);
          if (tr.ref2[r.payload] == 0.0) {
            tr.err2[r.payload] = num;
            tr.ref2[r.payload] = den;
          }
        }
        r.outcome = err <= kMaxRelErr ? Outcome::kOk : Outcome::kFailed;
        rep.check(err <= kMaxRelErr, "serve2d: served output within kMaxRelErr of exact NUDFT");
      } else if (f.type == MsgType::kError) {
        const ErrorMsg e = decode_error(f.body);
        r.outcome = e.code == static_cast<std::int32_t>(ErrorCode::kOverloaded) ? Outcome::kShed
                                                                                : Outcome::kFailed;
      } else {
        r.outcome = Outcome::kFailed;
      }
    }
  }
  for (auto& r : ph.reqs) {
    if (r.outcome == Outcome::kPending) r.outcome = Outcome::kFailed;
  }
  // Replies per second within the phase, over kRateWindows time windows.
  const double window_ms = ph.seconds * 1000.0 / kRateWindows;
  std::vector<double> per_window(kRateWindows, 0.0);
  for (const auto& r : ph.reqs) {
    const double done_ms = r.due_ms + r.lat_ms;
    if (r.outcome == Outcome::kOk && done_ms < ph.seconds * 1000.0) {
      per_window[static_cast<std::size_t>(done_ms / window_ms)] += 1000.0 / window_ms;
    }
  }
  ph.goodput_rps = median(per_window);
}

/// The paced rung meets the latency limit without a growing backlog: every
/// request answered, none refused, and p99 within kSloMs.
bool meets_slo(const Phase& ph) {
  if (ph.count(Outcome::kOk) != ph.reqs.size()) return false;
  return quantile(ph.latencies(Outcome::kOk), 0.99) <= kSloMs;
}

datasets::SampleSet rotated(const datasets::SampleSet& s, double angle) {
  datasets::SampleSet out = s;
  const auto m = static_cast<double>(s.m);
  for (index_t i = 0; i < s.count(); ++i) {
    const double x = s.coords[0][static_cast<std::size_t>(i)] - 0.5 * m;
    const double y = s.coords[1][static_cast<std::size_t>(i)] - 0.5 * m;
    const double xr = 0.5 * m + std::cos(angle) * x - std::sin(angle) * y;
    const double yr = 0.5 * m + std::sin(angle) * x + std::cos(angle) * y;
    out.coords[0][static_cast<std::size_t>(i)] = static_cast<float>(std::clamp(xr, 0.0, m - 1e-3));
    out.coords[1][static_cast<std::size_t>(i)] = static_cast<float>(std::clamp(yr, 0.0, m - 1e-3));
  }
  return out;
}

ServerStats delta(const ServerStats& a, const ServerStats& b) {
  ServerStats d;
  d.accepted = b.accepted - a.accepted;
  d.completed = b.completed - a.completed;
  d.failed = b.failed - a.failed;
  d.shed_overload = b.shed_overload - a.shed_overload;
  d.shed_deadline = b.shed_deadline - a.shed_deadline;
  return d;
}

}  // namespace

void run_serve2d(const Args& args, Report& rep) {
  const GridDesc g = make_grid(2, kN, 2.0);
  datasets::TrajectoryParams tp;
  tp.n = kN;
  tp.k = 2 * kN;
  tp.s = kN;
  const auto samples = datasets::make_trajectory(datasets::TrajectoryType::kRadial, 2, tp);
  const index_t K = samples.count();
  PlanConfig cfg;
  cfg.threads = 1;
  rep.context("N", static_cast<double>(kN));
  rep.context("samples", static_cast<double>(K));
  rep.context("slo_ms", kSloMs);
  rep.context("max_gen_lag_ms", kMaxLagMs);

  ServeConfig sc;
  std::filesystem::create_directories(".bench_build");
  sc.socket_path = ".bench_build/perfbench-" + std::to_string(::getpid()) + ".sock";
  sc.engine.workers = 2;
  sc.engine.threads_per_worker = 1;
  // Room for a ~0.5 s engine stall at the paced rates before admission
  // sheds; the overload rate still fills it within a tenth of a second.
  sc.default_tenant.max_queued = 512;
  NufftServer server(sc);
  server.start();
  Rng rng(args.seed);

  // setup_s: register_plan round trips, each a distinct (cold) plan.
  {
    Conn setup(sc.socket_path);
    setup.rpc(MsgType::kHello, 1, encode(HelloMsg{"setup", 0}));
    std::vector<double> times;
    // Each plan is a distinct small one (the tenant keeps the newest
    // TenantPolicy::max_plans); enough of them for a steady median.
    const int reps = args.tiny ? 2 : 41;
    for (int r = 0; r < reps; ++r) {
      RegisterPlanMsg m{g, cfg, rotated(samples, rng.uniform(0.1, 1.5))};
      const Bytes body = encode(m);
      const auto t0 = Clock::now();
      const Frame ack = setup.rpc(MsgType::kRegisterPlan, 2 + static_cast<std::uint64_t>(r), body);
      times.push_back(since(t0));
      rep.check(ack.type == MsgType::kRegisterAck, "serve2d: register_plan acknowledged");
    }
    rep.metric("setup_s", median(times), "s");
    rep.context("setup_reps", reps);
  }

  // Load connections and the payloads they send.
  Traffic tr;
  tr.tamper = args.tamper;
  std::uint64_t plan_id[2] = {0, 0};
  for (int c = 0; c < kConns; ++c) {
    tr.conns.push_back(std::make_unique<Conn>(sc.socket_path));
    const std::string tenant = c < 2 ? "a" : "b";
    tr.conns.back()->rpc(MsgType::kHello, 1, encode(HelloMsg{tenant, 0}));
    if (c % 2 == 0) {
      const Frame ack =
          tr.conns.back()->rpc(MsgType::kRegisterPlan, 2, encode(RegisterPlanMsg{g, cfg, samples}));
      plan_id[c / 2] = decode_register_ack(ack.body).plan_id;
    }
  }
  ThreadPool pool(2);
  tr.err2.assign(2 * kInputs, 0.0);
  tr.ref2.assign(2 * kInputs, 0.0);
  for (int op = 0; op < 2; ++op) {
    for (int in = 0; in < kInputs; ++in) {
      const cvecf input = random_complex(op == 0 ? g.image_elems() : K, rng);
      std::vector<cdouble> want(static_cast<std::size_t>(op == 0 ? K : g.image_elems()));
      if (op == 0) {
        baselines::nudft_forward(g, samples, input.data(), want.data(), pool);
      } else {
        baselines::nudft_adjoint(g, samples, input.data(), want.data(), pool);
      }
      tr.expected.push_back(std::move(want));
      for (int t = 0; t < 2; ++t) {
        SubmitMsg m;
        m.plan_id = plan_id[t];
        m.op = op == 0 ? WireOp::kForward : WireOp::kAdjoint;
        m.input.assign(input.begin(), input.end());
        Bytes frame;
        encode_frame(frame, MsgType::kSubmit, 0, encode(m));
        tr.frames[t].push_back(std::move(frame));
      }
    }
  }

  // Warm the engine's workspaces, then the measured ladder.
  Phase warm{kPacedRps[0], args.tiny ? 0.05 : 0.3, {}, 0.0};
  run_phase(tr, warm, rng, rep);
  // A traced run spends a share of its time on an untraced low-rate
  // reference rung for trace.overhead, and shortens the ladder to match.
  const double scale = (args.trace ? 0.75 : 1.0) * args.seconds;
  Phase base{kPacedRps[0], 0.15 * args.seconds, {}, 0.0};
  if (args.trace) run_phase(tr, base, rng, rep);
  const ServerStats before = server.stats();
  std::vector<Phase> paced;
  for (std::size_t i = 0; i < std::size(kPacedRps); ++i) {
    paced.push_back(Phase{kPacedRps[i], kPacedShare[i] * scale, {}, 0.0});
    run_phase(tr, paced.back(), rng, rep);
  }
  // Under overload, memory follows the backlog's timing; the reported peak
  // covers set-up and the paced rates.
  const double paced_rss_mb = peak_rss_mb();
  Phase over{kOverloadRps, kOverloadShare * scale, {}, 0.0};
  run_phase(tr, over, rng, rep);
  const ServerStats d = delta(before, server.stats());

  const Phase& low = paced.front();
  const Phase& high = paced.back();
  // Books: every request ended exactly one way, and the server agrees.
  std::size_t sent = over.reqs.size();
  std::size_t ok = over.count(Outcome::kOk);
  std::size_t shed = over.count(Outcome::kShed);
  std::size_t failed = over.count(Outcome::kFailed);
  std::vector<double> lag;
  for (const auto& ph : paced) {
    sent += ph.reqs.size();
    ok += ph.count(Outcome::kOk);
    shed += ph.count(Outcome::kShed);
    failed += ph.count(Outcome::kFailed);
    rep.op_ok(ph.count(Outcome::kOk));
    rep.op_failed(ph.reqs.size() - ph.count(Outcome::kOk));  // fail_frac: paced rates only
    for (const auto& r : ph.reqs) lag.push_back(r.lag_ms);
  }
  for (const auto& ph : paced) {
    rep.context("lat_p50_ms." + std::to_string(static_cast<int>(ph.rps)),
                median(ph.latencies(Outcome::kOk)));
  }
  rep.context("sent", static_cast<double>(sent));
  rep.context("ok", static_cast<double>(ok));
  rep.context("shed", static_cast<double>(shed));
  rep.context("failed", static_cast<double>(failed));
  rep.check(sent == ok + shed + failed, "serve2d: sent = ok + shed + failed");
  rep.check(d.completed == ok && d.accepted == ok + d.failed &&
                d.shed_overload + d.shed_deadline == shed && d.failed == failed,
            "serve2d: client books match the ServerStats deltas");
  const double lag_p99 = quantile(lag, 0.99);
  rep.context("gen_lag_p99_ms", lag_p99);
  rep.check(lag_p99 <= kMaxLagMs, "serve2d: generator p99 lag within kMaxLagMs");
  std::vector<double> over_lag;
  for (const auto& r : over.reqs) over_lag.push_back(r.lag_ms);
  rep.context("gen_lag_p99_ms.over", quantile(over_lag, 0.99));

  const std::vector<double> low_lat = low.latencies(Outcome::kOk);
  double err2 = 0.0;
  double ref2 = 0.0;
  for (int p = 0; p < 2 * kInputs; ++p) {
    err2 += tr.err2[static_cast<std::size_t>(p)];
    ref2 += tr.ref2[static_cast<std::size_t>(p)];
  }
  rep.check(ref2 > 0.0, "serve2d: every payload was served at least once");
  rep.metric("rel_err", ref2 > 0.0 ? std::sqrt(err2 / ref2) : 1.0, "ratio");
  if (!args.trace) {
    rep.metric("op_s", median(low_lat) * 1e-3, "s");
    std::vector<double> low_s;
    for (const double ms : low_lat) low_s.push_back(ms * 1e-3);
    record_tail(rep, low_s);
  } else {
    rep.metric("trace.overhead", median(low_lat) / median(base.latencies(Outcome::kOk)), "ratio");
    std::vector<double> qwait;
    std::vector<double> exec;
    std::vector<double> overhead;
    for (const auto& ph : paced) {
      for (const auto& r : ph.reqs) {
        if (r.outcome != Outcome::kOk) continue;
        qwait.push_back(r.queue_wait_us);
        exec.push_back(r.exec_us);
        overhead.push_back(r.lat_ms * 1e3 - r.queue_wait_us - r.exec_us);
      }
    }
    rep.metric("engine.queue_wait_us.p50", median(qwait), "us");
    rep.metric("engine.queue_wait_us.p99", quantile(qwait, 0.99), "us");
    rep.metric("engine.exec_us.p50", median(exec), "us");
    rep.metric("engine.exec_us.p99", quantile(exec, 0.99), "us");
    rep.metric("serve.overhead_us", median(overhead), "us");
    rep.metric("serve.shed_reply_us", median(over.latencies(Outcome::kShed)) * 1e3, "us");
    rep.metric("serve.shed_frac.over",
               static_cast<double>(over.count(Outcome::kShed)) /
                   static_cast<double>(std::max<std::size_t>(1, over.reqs.size())),
               "ratio");
    rep.metric("serve.accepted", static_cast<double>(d.accepted), "count");
    rep.metric("serve.completed", static_cast<double>(d.completed), "count");
    rep.metric("serve.gen_lag_ms", lag_p99, "ms");
    rep.metric("serve.lat_p50_ms.low", median(low_lat), "ms");
    rep.metric("serve.lat_p99_ms.low", quantile(low_lat, 0.99), "ms");
    const std::vector<double> high_lat = high.latencies(Outcome::kOk);
    rep.metric("serve.lat_p50_ms.high", median(high_lat), "ms");
    rep.metric("serve.lat_p99_ms.high", quantile(high_lat, 0.99), "ms");
    rep.metric("serve.goodput_rps.over", over.goodput_rps, "1/s");
    double max_ok = 0.0;
    for (const auto& ph : paced) {
      if (meets_slo(ph)) max_ok = std::max(max_ok, ph.rps);
    }
    rep.metric("serve.max_rps_slo", max_ok, "1/s");
    record_prep(rep, g, samples, cfg, pool, 5);
  }
  tr.conns.clear();
  server.stop();
  rep.metric("peak_rss_mb", paced_rss_mb, "MB");
}

}  // namespace perfbench
