// The serve workload: an in-process serve::Server on a Unix socket with a
// graph file resident, driven by an open-loop generator over at most
// `threads` connections at a fixed ladder of offered rates.
//
// Open loop: request i of a step is due at step_start + i / rate whatever
// happened to the earlier ones, and connection i % C sends it. A
// connection carries one request at a time, so a slow answer delays the
// requests queued behind it on that connection; latency is therefore
// measured from the request's due time, not from when it was sent, and
// the generator reports how late it ran (send time minus due time).

#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "graph/algorithms.hpp"
#include "graph/ecc_engine.hpp"
#include "graph/io.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using qc::serve::Op;
using qc::serve::Request;
using qc::serve::Response;
using qc::serve::Status;

/// Answers a direct EccEngine (and a direct double sweep) gives for the
/// same requests.
struct Reference {
  std::uint32_t n = 0;
  std::uint32_t diameter = 0;
  std::uint32_t radius = 0;
  graph::NodeId center = 0;
  std::vector<std::uint32_t> ecc;
  std::vector<graph::NodeId> approx_roots;
  std::vector<std::uint32_t> approx_lb;  ///< per approx root
};

Reference make_reference(const std::string& path, std::uint64_t seed,
                         bool corrupt) {
  Reference ref;
  graph::EccEngine engine(graph::load_graph_file(path));
  const auto& g = engine.graph();
  ref.n = g.n();
  ref.diameter = engine.diameter();
  ref.radius = engine.radius();
  ref.center = engine.center();
  ref.ecc = engine.all();
  qc::Rng rng(derive_seed(seed, 0x5e0));
  for (int i = 0; i < 16; ++i) {
    const auto root = static_cast<graph::NodeId>(rng.next_below(g.n()));
    const auto first = graph::bfs(g, root);
    graph::NodeId far = root;
    std::uint32_t far_d = 0;
    for (graph::NodeId v = 0; v < g.n(); ++v) {
      if (first.dist[v] != graph::kUnreachable && first.dist[v] > far_d) {
        far_d = first.dist[v];
        far = v;
      }
    }
    ref.approx_roots.push_back(root);
    ref.approx_lb.push_back(std::max(first.ecc, graph::bfs(g, far).ecc));
  }
  if (corrupt) {
    ++ref.diameter;
    ++ref.radius;
    for (auto& e : ref.ecc) ++e;
    for (auto& lb : ref.approx_lb) ++lb;
  }
  return ref;
}

/// One drawn request plus the answer the reference expects.
struct Planned {
  Request req;
  std::uint64_t value = 0;
  std::uint64_t aux = 0;
  bool check_aux = false;
};

/// The request mix: 10% ping, 5% approx (two BFS each), the rest cached
/// diameter / radius / ecc(v) lookups in equal parts. No recorded request
/// mix exists for qcongestd; these shares are assumptions that give the
/// intended shape (mostly cached lookups, a minority of approx requests)
/// numbers, and should be replaced by a recorded mix once there is one.
Planned draw(qc::Rng& rng, const Reference& ref, const std::string& key) {
  Planned p;
  p.req.path = key;
  const std::uint64_t r = rng.next_below(100);
  if (r < 10) {
    p.req = {Op::kPing, "", rng.next_below(1u << 30)};
    p.value = p.req.arg;
  } else if (r < 15) {
    const auto i = rng.next_below(ref.approx_roots.size());
    p.req.op = Op::kApprox;
    p.req.arg = ref.approx_roots[i];
    p.value = ref.approx_lb[i];
    p.aux = 2ull * ref.approx_lb[i];
    p.check_aux = true;
  } else {
    switch (rng.next_below(3)) {
      case 0:
        p.req.op = Op::kDiameter;
        p.value = ref.diameter;
        break;
      case 1:
        p.req.op = Op::kRadius;
        p.value = ref.radius;
        p.aux = ref.center;
        p.check_aux = true;
        break;
      default:
        p.req.op = Op::kEcc;
        p.req.arg = rng.next_below(ref.n);
        p.value = ref.ecc[p.req.arg];
    }
  }
  return p;
}

bool answer_ok(const Planned& p, const Response& r) {
  return r.status == Status::kOk && r.value == p.value &&
         (!p.check_aux || r.aux == p.aux);
}

struct StepResult {
  double rate = 0;
  double achieved_rps = 0;  ///< answers per second, first due time to last answer
  std::uint64_t sent = 0, ok = 0, failed = 0;
  double p50_us = 0, p99_us = 0, lag_p50_us = 0, lag_p99_us = 0;
  double backlog_growth_us = 0;  ///< final-quarter minus first-quarter median lag
  bool pass = false;
};

/// Runs one open-loop step: request i of `plan` is due at i / `rate`
/// seconds after the start and goes out on connection i % `conns`.
StepResult run_step(const std::string& endpoint, const std::vector<Planned>& plan,
                    double rate, unsigned conns, Result& res) {
  StepResult sr;
  sr.rate = rate;
  const std::size_t total = plan.size();
  std::vector<double> lat(total, 0.0), lag(total, 0.0);
  std::vector<std::uint8_t> good(total, 0);
  std::vector<std::string> errors(conns);
  std::vector<qc::serve::Client> clients;
  for (unsigned c = 0; c < conns; ++c) {
    clients.push_back(qc::serve::Client::connect(endpoint));
  }
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const auto due = [&](std::size_t i) {
    return start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                       1e9 * static_cast<double>(i) / rate));
  };
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      // Tight timer slack so sleeping until a due time wakes close to it.
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      for (std::size_t i = c; i < total; i += conns) {
        const auto d = due(i);
        std::this_thread::sleep_until(d);
        const auto sent = Clock::now();
        try {
          const Response r = clients[c].call(plan[i].req);
          good[i] = answer_ok(plan[i], r) ? 1 : 0;
        } catch (const std::exception& e) {
          if (errors[c].empty()) errors[c] = e.what();
        }
        const auto done = Clock::now();
        lag[i] = std::chrono::duration<double, std::micro>(sent - d).count();
        lat[i] = std::chrono::duration<double, std::micro>(done - d).count();
      }
    });
  }
  for (auto& t : threads) t.join();
  sr.achieved_rps = static_cast<double>(total) / seconds_since(start);
  for (const auto& e : errors) {
    if (!e.empty()) res.note_str("serve_client_error", e);
  }
  sr.sent = total;
  for (std::size_t i = 0; i < total; ++i) {
    res.attempt();
    if (good[i]) {
      ++sr.ok;
    } else {
      ++sr.failed;
      res.fail("serve: wrong answer or error status for " +
               std::string(qc::serve::op_name(plan[i].req.op)) + " request " +
               std::to_string(i) + " at " + std::to_string(rate) + " req/s");
    }
  }
  sr.p50_us = quantile(lat, 0.5);
  sr.p99_us = quantile(lat, 0.99);
  sr.lag_p50_us = quantile(lag, 0.5);
  sr.lag_p99_us = quantile(lag, 0.99);
  const std::size_t q = std::max<std::size_t>(1, total / 4);
  sr.backlog_growth_us =
      median(std::vector<double>(lag.end() - static_cast<std::ptrdiff_t>(q), lag.end())) -
      median(std::vector<double>(lag.begin(), lag.begin() + static_cast<std::ptrdiff_t>(q)));
  sr.pass = sr.failed == 0 && sr.p99_us <= 2000.0 && sr.backlog_growth_us <= 500.0;
  return sr;
}

/// Closed-loop saturation: every connection sends its next request as soon
/// as the previous answer arrives, for `seconds`. No connection ever
/// idles, so per-request latency measures the server's work and queueing
/// rather than thread wake-ups.
struct Saturation {
  std::vector<double> lat_us;
  double wall_s = 0;
  double cpu_s = 0;         ///< server CPU: the process minus the generator
  double client_cpu_s = 0;  ///< the generator threads' own CPU
};

/// CPU seconds the calling thread has used.
double thread_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
Saturation run_saturated(const std::string& endpoint, const Reference& ref,
                         const std::string& key, std::uint64_t seed,
                         unsigned conns, double seconds, Result& res) {
  Saturation sat;
  std::vector<std::vector<double>> lat(conns);
  std::vector<std::uint64_t> bad(conns, 0), done(conns, 0);
  std::vector<double> client_cpu(conns, 0.0);
  std::vector<qc::serve::Client> clients;
  for (unsigned c = 0; c < conns; ++c) {
    clients.push_back(qc::serve::Client::connect(endpoint));
  }
  const CpuTimes c0 = cpu_now();
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      const double cpu0 = thread_cpu_seconds();
      qc::Rng rng(derive_seed(seed, 0x5a700 + c));
      while (seconds_since(start) < seconds) {
        const Planned p = draw(rng, ref, key);
        const auto t0 = Clock::now();
        bool ok = false;
        try {
          ok = answer_ok(p, clients[c].call(p.req));
        } catch (const std::exception&) {
        }
        lat[c].push_back(seconds_since(t0) * 1e6);
        ++done[c];
        if (!ok) ++bad[c];
        if (!ok && bad[c] > 100) break;  // a broken connection stays broken
      }
      client_cpu[c] = thread_cpu_seconds() - cpu0;
    });
  }
  for (auto& t : threads) t.join();
  sat.wall_s = seconds_since(start);
  for (const double c : client_cpu) sat.client_cpu_s += c;
  sat.cpu_s = (cpu_now() - c0).total() - sat.client_cpu_s;
  for (unsigned c = 0; c < conns; ++c) {
    sat.lat_us.insert(sat.lat_us.end(), lat[c].begin(), lat[c].end());
    res.attempt(done[c]);
    for (std::uint64_t i = 0; i < bad[c]; ++i) {
      res.fail("serve: wrong answer or error status under saturation");
    }
  }
  return sat;
}

/// Closed-loop median latency of `reps` identical requests on one
/// connection, in microseconds.
double closed_median_us(qc::serve::Client& c, const Planned& p, int reps,
                        Result& res) {
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    const Response r = c.call(p.req);
    us.push_back(seconds_since(t0) * 1e6);
    res.attempt();
    if (!answer_ok(p, r)) {
      res.fail("serve: wrong answer in closed-loop " +
               std::string(qc::serve::op_name(p.req.op)) + " probe");
    }
  }
  return median(us);
}

}  // namespace

ServeOutcome serve_session(const Options& opt, const std::string& path,
                           const ServeLadder& ladder, bool closed_probes,
                           Result& res, Tracer* tracer) {
  ServeOutcome out;
  const Reference ref = make_reference(path, opt.seed, opt.corrupt_reference);
  const std::string sock =
      opt.work_dir + "/perfbench-" + std::to_string(::getpid()) + ".sock";
  const std::string endpoint = "unix:" + sock;

  // Set-up: server start and the load that makes the graph resident. The
  // first diameter query, which pays the ecc sweep, is timed apart
  // (first_query_ms). Three servers start before the measured phases and,
  // in untraced runs, two after them, so set-up samples span the run; the
  // third server serves the requests.
  std::vector<double> setups, loads, firsts;
  const auto start_server = [&] {
    const auto t0 = Clock::now();
    qc::serve::ServerOptions so;
    so.unix_path = sock;
    so.num_threads = 2;
    so.max_pending = 64;
    so.timeout_ms = 2000;
    auto server = std::make_unique<qc::serve::Server>(so);
    server->start();
    auto c = qc::serve::Client::connect(endpoint);
    const auto l0 = Clock::now();
    const Response loaded = c.call({Op::kLoad, path, 0});
    const double load_s = seconds_since(l0);
    setups.push_back(seconds_since(t0));
    const auto f0 = Clock::now();
    const Response d = c.call({Op::kDiameter, path, 0});
    const double first_s = seconds_since(f0);
    loads.push_back(load_s);
    firsts.push_back(first_s);
    res.attempt();
    check(res, loaded.status == Status::kOk && loaded.value == ref.n,
          "serve: load of " + path + " failed");
    check(res, d.status == Status::kOk && d.value == ref.diameter,
          "serve: first diameter " + std::to_string(d.value) +
              " differs from the direct EccEngine's " +
              std::to_string(ref.diameter));
    return server;
  };
  start_server()->stop();
  start_server()->stop();
  std::unique_ptr<qc::serve::Server> server = start_server();
  if (tracer != nullptr) {
    tracer->add("graph.load", loads.back());
    tracer->add("graph.ecc_sweep", firsts.back());
  }

  const unsigned conns = std::max(1u, std::min(4u, opt.threads));
  if (closed_probes) {
    auto c = qc::serve::Client::connect(endpoint);
    const int reps_fast = opt.tiny ? 50 : 400;
    Planned ping;
    ping.req = {Op::kPing, "", 7};
    ping.value = 7;
    Planned lookup;
    lookup.req = {Op::kEcc, path, 0};
    lookup.value = ref.ecc[0];
    Planned approx;
    approx.req = {Op::kApprox, path, ref.approx_roots[0]};
    approx.value = ref.approx_lb[0];
    approx.aux = 2ull * ref.approx_lb[0];
    approx.check_aux = true;
    const auto t0 = Clock::now();
    out.ping_us = closed_median_us(c, ping, reps_fast, res);
    out.lookup_us = closed_median_us(c, lookup, reps_fast, res);
    out.approx_us = closed_median_us(c, approx, opt.tiny ? 10 : 60, res);
    out.closed_probes_s = seconds_since(t0);
    if (tracer != nullptr) tracer->add("serve.closed_probes", out.closed_probes_s);
  }

  const qc::serve::ServerStats& stats = server->stats();
  const std::uint64_t rejected0 = stats.rejected.load();
  const std::uint64_t timeouts0 = stats.timeouts.load();
  if (ladder.saturation_seconds > 0) {
    const Saturation sat = run_saturated(endpoint, ref, path, opt.seed, conns,
                                         ladder.saturation_seconds, res);
    out.saturated_us = median(sat.lat_us);
    out.saturated_rps = static_cast<double>(sat.lat_us.size()) / sat.wall_s;
    const auto requests =
        static_cast<double>(std::max<std::size_t>(sat.lat_us.size(), 1));
    out.cpu_per_request_s = sat.cpu_s / requests;
    out.client_cpu_per_request_s = sat.client_cpu_s / requests;
    if (tracer != nullptr) tracer->add("serve.saturation", sat.wall_s);
  }
  const auto ladder_t0 = Clock::now();
  std::ostringstream steps;
  steps << "[";
  for (std::size_t s = 0; s < ladder.rates.size(); ++s) {
    const double rate = ladder.rates[s];
    qc::Rng rng(derive_seed(opt.seed, 0x5e100 + s));
    const auto count = static_cast<std::size_t>(rate * ladder.step_seconds);
    std::vector<Planned> plan;
    plan.reserve(count);
    for (std::size_t i = 0; i < count; ++i) plan.push_back(draw(rng, ref, path));
    const StepResult sr = run_step(endpoint, plan, rate, conns, res);
    out.requests += sr.sent;
    if (sr.pass) out.max_rate_rps = sr.achieved_rps;
    if (s == ladder.reference) {
      out.reference_step_requests = plan.size();
      out.reference_step_approx = static_cast<std::uint64_t>(
          std::count_if(plan.begin(), plan.end(),
                        [](const Planned& p) { return p.req.op == Op::kApprox; }));
      out.p50_us = sr.p50_us;
      out.p99_us = sr.p99_us;
      out.gen_lag_us = sr.lag_p50_us;
    }
    steps << (s ? "," : "") << "{\"rate_rps\":" << json_num(rate)
          << ",\"achieved_rps\":" << json_num(sr.achieved_rps)
          << ",\"sent\":" << sr.sent << ",\"succeeded\":" << sr.ok
          << ",\"failed\":" << sr.failed << ",\"p50_us\":" << json_num(sr.p50_us)
          << ",\"p99_us\":" << json_num(sr.p99_us)
          << ",\"gen_lag_p50_us\":" << json_num(sr.lag_p50_us)
          << ",\"gen_lag_p99_us\":" << json_num(sr.lag_p99_us)
          << ",\"backlog_growth_us\":" << json_num(sr.backlog_growth_us)
          << ",\"pass\":" << (sr.pass ? "true" : "false") << "}";
    const bool overloaded = sr.backlog_growth_us > 500.0;
    std::cout << "serve step " << rate << " req/s: sent " << sr.sent << " ok "
              << sr.ok << " failed " << sr.failed << " p50 " << sr.p50_us
              << " us p99 " << sr.p99_us << " us lag " << sr.lag_p50_us
              << " us" << (sr.pass ? "" : " (over limit)") << "\n";
    // A step whose backlog grows has passed capacity; higher rates would
    // only queue longer.
    if (overloaded && s > ladder.reference) break;
  }
  steps << "]";
  res.note("serve_steps", steps.str());
  if (tracer != nullptr) tracer->add("serve.ladder", seconds_since(ladder_t0));
  out.engine_bfs_runs = server->registry().get(path)->engine().bfs_runs();
  out.rejected = stats.rejected.load() - rejected0;
  out.timeouts = stats.timeouts.load() - timeouts0;
  server->stop();
  if (!opt.tiny && !opt.trace) {
    start_server()->stop();
    start_server()->stop();
  }
  std::remove(sock.c_str());
  out.setup_s = median(setups);
  out.load_ms = median(loads) * 1e3;
  out.first_query_ms = median(firsts) * 1e3;
  return out;
}

void serve_layer_metrics(Result& res, const ServeOutcome& o) {
  res.metric("serve.first_query_ms", o.first_query_ms, "ms");
  res.metric("serve.ping_us", o.ping_us, "us");
  res.metric("serve.lookup_us", o.lookup_us, "us");
  res.metric("serve.approx_us", o.approx_us, "us");
  res.metric("serve.p50_us", o.p50_us, "us");
  res.metric("serve.p99_us", o.p99_us, "us");
  res.metric("serve.max_rate_rps", o.max_rate_rps, "1/s");
  res.metric("serve.gen_lag_us", o.gen_lag_us, "us");
  res.metric("serve.rejected", static_cast<double>(o.rejected), "count");
  res.metric("serve.timeouts", static_cast<double>(o.timeouts), "count");
}

ServeLadder serve_ladder(const Options& opt, bool probe) {
  ServeLadder l;
  if (opt.tiny) {
    l.rates = {500, 2000};
    l.step_seconds = 0.25;
    l.reference = 0;
    l.saturation_seconds = 0.25;
  } else if (probe) {
    l.rates = {2000, 8000};
    l.step_seconds = 0.75;
    l.reference = 0;
    l.saturation_seconds = 0.5;
  } else {
    l.rates = {1000, 2000, 4000, 8000, 16000};
    // A fifth of the run saturates the server; the ladder takes what
    // remains after set-up (~1 s).
    l.saturation_seconds = opt.seconds / 5;
    l.step_seconds = std::max(0.5, (opt.seconds - 1.5 - l.saturation_seconds) / 5.0);
    l.reference = 1;
  }
  return l;
}

void run_serve(const Options& opt, Result& res) {
  std::string path;
  std::unique_ptr<std::string> temp;
  if (opt.tiny) {
    const std::string spec =
        "pa:400:3:" + std::to_string(derive_seed(opt.seed, 0xc0) % 1000000007ULL);
    path = write_graph_file(opt, graph::make_from_spec(spec), "perfbench-serve");
    temp = std::make_unique<std::string>(path);
  } else {
    path = opt.root + "/data/synth-p2p-10k.qcg";
  }
  res.note_str("graph", path.substr(path.rfind('/') + 1));
  if (!opt.trace) {
    const ServeOutcome o =
        serve_session(opt, path, serve_ladder(opt, false), false, res, nullptr);
    res.metric("query_s", o.saturated_us * 1e-6, "s");
    res.metric("cpu_s", o.cpu_per_request_s, "s");
    res.note_num("client_cpu_s", o.client_cpu_per_request_s);
    res.metric("setup_s", o.setup_s, "s");
    res.metric("peak_rss_mb", self_peak_rss_mb(), "MiB");
    res.note_num("first_query_ms", o.first_query_ms);
    res.note_num("p50_us", o.p50_us);
    res.note_num("p99_us", o.p99_us);
    res.note_num("max_rate_rps", o.max_rate_rps);
    res.note_num("gen_lag_us", o.gen_lag_us);
    res.note_num("load_ms", o.load_ms);
    res.note_num("saturated_rps", o.saturated_rps);
    res.cost("engine_bfs_runs", o.engine_bfs_runs);
    res.cost("reference_step_requests", o.reference_step_requests);
    res.cost("reference_step_approx", o.reference_step_approx);
    res.note_num("requests", static_cast<double>(o.requests));
  } else {
    // The same session twice on a ladder with half-length steps: untraced,
    // then with spans and the closed-loop probes.
    ServeLadder ladder = serve_ladder(opt, false);
    ladder.step_seconds /= 2;
    const auto b0 = Clock::now();
    serve_session(opt, path, ladder, false, res, nullptr);
    const double base_wall = seconds_since(b0);
    Tracer tr;
    const auto t0 = Clock::now();
    const ServeOutcome o = serve_session(opt, path, ladder, true, res, &tr);
    const double wall = seconds_since(t0);
    serve_layer_metrics(res, o);
    res.metric("graph.load_ms", o.load_ms, "ms");
    res.metric("graph.ecc_sweep_ms", o.first_query_ms, "ms");
    tr.report(res, wall);
    res.metric("trace.unattributed_s", wall - tr.total_seconds(), "s");
    res.metric("trace.overhead_x", (wall - o.closed_probes_s) / base_wall, "x");
    GraphInput in{path, graph::load_graph_file(path)};
    probe_layers(opt, in, res);
  }
  if (temp) std::remove(temp->c_str());
}

}  // namespace perfbench
