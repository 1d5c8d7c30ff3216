// Per-layer probes: every per-layer metric a workload's own traced run has
// not set is measured here on the workload's graph, by timing calls into
// the public functions of that layer. A probe therefore reports what the
// layer costs on this workload's input even where the layer is not on the
// workload's critical path (the README's layer table says which workload
// each metric should move).
//
// Probe sizes are fixed so a traced run stays within its time budget:
// sampled branches instead of all n, hprw with at most ~48 expected
// sources, a two-rate serve ladder and a one-second shard session.

#include <cmath>
#include <iostream>
#include <sstream>
#include <thread>

#include "algos/evaluation.hpp"
#include "algos/hprw.hpp"
#include "algos/source_detection.hpp"
#include "bench.hpp"
#include "core/optimizer.hpp"
#include "graph/algorithms.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using qc::graph::NodeId;

std::vector<std::size_t> sample_nodes(std::uint32_t n, std::size_t k,
                                      std::uint64_t seed) {
  qc::Rng rng(seed);
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < k; ++i) out.push_back(rng.next_below(n));
  return out;
}

/// ns per MetricsRegistry::observe (the per-delivered-message record of
/// congest::MetricsObserver) with `threads` threads recording at once.
double record_ns(unsigned threads, int per_thread) {
  qc::metrics::MetricsRegistry reg;
  reg.register_histogram("congest.message_bits", {1, 2, 4, 8, 16, 32, 64, 128});
  const auto t0 = Clock::now();
  std::vector<std::thread> ts;
  for (unsigned t = 0; t < threads; ++t) {
    ts.emplace_back([&reg, per_thread] {
      for (int i = 0; i < per_thread; ++i) {
        reg.observe("congest.message_bits", static_cast<double>(i & 63));
      }
    });
  }
  for (auto& t : ts) t.join();
  return seconds_since(t0) * 1e9 / per_thread;
}

}  // namespace

void probe_layers(const Options& opt, const GraphInput& in, Result& res) {
  const graph::Graph& g = in.g;
  const auto t_probe = Clock::now();
  qc::congest::NetworkConfig net;
  net.seed = derive_seed(opt.seed, 0x72);
  const std::size_t k_branch = opt.tiny ? 4 : 12;

  // graph: the ecc sweep and one BFS.
  graph::EccEngine engine(g, opt.threads);
  if (!res.has_metric("graph.ecc_sweep_ms")) {
    std::vector<double> s;
    for (int i = 0; i < 3; ++i) {
      const auto t0 = Clock::now();
      graph::EccEngine e(g, opt.threads);
      (void)e.diameter();
      s.push_back(seconds_since(t0));
    }
    res.metric("graph.ecc_sweep_ms", median(s) * 1e3, "ms");
  }
  {
    std::vector<double> s;
    for (const std::size_t r : sample_nodes(g.n(), 31, derive_seed(opt.seed, 0xb1))) {
      const auto t0 = Clock::now();
      const auto b = graph::bfs(g, static_cast<NodeId>(r));
      s.push_back(seconds_since(t0));
      check(res, b.ecc == engine.eccentricity(static_cast<NodeId>(r)),
            "probe: bfs eccentricity differs from the EccEngine's");
    }
    res.metric("graph.bfs_us", median(s) * 1e6, "us");
  }

  // algos: initialisation, and the leader tree every later probe uses.
  const auto i0 = Clock::now();
  const InitPhase init = initialise(g, net);
  if (!res.has_metric("algos.init_ms")) {
    res.metric("algos.init_ms", seconds_since(i0) * 1e3, "ms");
  }
  const std::uint32_t steps = 2 * init.d;
  const std::uint32_t t_eval = eval_forward_rounds(steps, init.tree.height);
  const auto seg = engine.segment_max(graph::dfs_numbering(init.tree.to_bfs_tree()));

  // algos + congest: single branches, and the same branch rebuilt by hand
  // so Network construction and the round loop are timed apart.
  {
    std::vector<double> branch, build, run;
    for (const std::size_t u : sample_nodes(g.n(), k_branch, derive_seed(opt.seed, 0xb2))) {
      const auto u0 = static_cast<NodeId>(u);
      const auto t0 = Clock::now();
      const auto eval = qc::algos::evaluate_window_ecc(g, init.tree, u0, steps, net);
      branch.push_back(seconds_since(t0));
      check(res, eval.max_ecc == seg.max_ecc_in_segment(u0, steps),
            "probe: branch disagrees with the centralized reference");

      qc::algos::EvaluationProgram::Params p;
      p.u0 = u0;
      p.steps = steps;
      p.pipeline_len = 2 * steps + 2 * init.tree.height + 2;
      p.tree_height = init.tree.height;
      p.n = g.n();
      const auto b0 = Clock::now();
      qc::congest::Network network(g, net);
      network.init_programs([&](NodeId v) {
        return std::make_unique<qc::algos::EvaluationProgram>(
            p, init.tree.parent[v], init.tree.depth[v], true);
      });
      build.push_back(seconds_since(b0));
      const auto r0 = Clock::now();
      const auto st = network.run_rounds(t_eval);
      run.push_back(seconds_since(r0) * 1e9 /
                    static_cast<double>(std::max<std::uint64_t>(st.messages, 1)));
      check(res, st.messages == eval.stats.messages && st.rounds == t_eval,
            "probe: hand-built Figure 2 network differs from evaluate_window_ecc");
    }
    if (!res.has_metric("algos.branch_ms")) {
      res.metric("algos.branch_ms", median(branch) * 1e3, "ms");
      res.metric("algos.branch_p90_ms", quantile(branch, 0.9) * 1e3, "ms");
    }
    res.metric("congest.build_ms", median(build) * 1e3, "ms");
    res.metric("congest.run_ns_per_msg", median(run), "ns");
  }

  // algos: the Figure 3 preparation, with s raised so at most ~48 sources
  // are expected (the approx workload's traced run times the paper's s).
  if (!res.has_metric("algos.hprw_ms")) {
    const double n = static_cast<double>(g.n());
    const auto s_cap = static_cast<std::uint32_t>(std::ceil(n * std::log(n) / 48.0));
    const std::uint32_t s =
        std::min(g.n(), std::max(paper_s(g.n(), std::max(1u, init.d)), s_cap));
    const auto t0 = Clock::now();
    const auto prep = qc::algos::hprw_preparation(g, s, net);
    res.metric("algos.hprw_ms", seconds_since(t0) * 1e3, "ms");
    std::vector<bool> is_source(g.n(), false);
    for (const NodeId v : prep.sample) is_source[v] = true;
    const auto d0 = Clock::now();
    const auto det = qc::algos::detect_sources(g, is_source, net);
    res.metric("algos.detect_sources_ms", seconds_since(d0) * 1e3, "ms");
    check(res, det.status == qc::algos::PhaseStatus::kQuiesced,
          "probe: detect_sources did not quiesce");
    res.note_num("probe_hprw_sources", static_cast<double>(prep.sample.size()));
  }

  // core: Grover sampling alone, over the precomputed objective.
  if (!res.has_metric("core.optimize_ms")) {
    qc::core::OptimizationProblem prob;
    prob.domain_size = g.n();
    prob.evaluate = [&seg, steps](std::size_t x) {
      return static_cast<std::int64_t>(
          seg.max_ecc_in_segment(static_cast<NodeId>(x), steps));
    };
    prob.t_init = init.rounds;
    prob.t_setup = init.t_setup;
    prob.t_eval_forward = t_eval;
    prob.epsilon = std::min(1.0, static_cast<double>(init.d) /
                                     (2.0 * static_cast<double>(g.n())));
    prob.num_threads = 1;
    qc::Rng rng(derive_seed(opt.seed, 0x71));
    const auto t0 = Clock::now();
    qc::core::distributed_quantum_optimize(prob, rng);
    res.metric("core.optimize_ms", seconds_since(t0) * 1e3, "ms");
  }

  // core + util.metrics: the branch fan-out with metrics off, then on.
  const bool need_fanout = !res.has_metric("core.fanout_eff");
  const bool need_metrics = !res.has_metric("metrics.overhead_x");
  if (need_fanout || need_metrics) {
    const auto branches = sample_nodes(
        g.n(), static_cast<std::size_t>(opt.threads) * (opt.tiny ? 2 : 6),
        derive_seed(opt.seed, 0xb3));
    FanOut off;
    fan_out(off, g, init.tree, steps, t_eval, seg, net, nullptr, branches,
            opt.threads);
    check(res, off.mismatches == 0, "probe: fan-out branch mismatch");
    if (need_fanout) {
      res.metric("core.fanout_eff",
                 off.busy_s / (static_cast<double>(opt.threads) * off.wall_s),
                 "ratio");
    }
    if (need_metrics) {
      qc::metrics::MetricsRegistry reg;
      qc::metrics::set_global(&reg);
      const CpuTimes c0 = cpu_now();
      FanOut on;
      fan_out(on, g, init.tree, steps, t_eval, seg, net, nullptr, branches,
              opt.threads);
      const CpuTimes dc = cpu_now() - c0;
      qc::metrics::set_global(nullptr);
      check(res, on.mismatches == 0, "probe: fan-out branch mismatch");
      res.metric("metrics.overhead_x", on.wall_s / off.wall_s, "x");
      res.metric("metrics.sys_s", dc.sys, "s");
      std::ostringstream sink;
      const auto t0 = Clock::now();
      reg.write_jsonl(sink);
      res.metric("metrics.export_ms", seconds_since(t0) * 1e3, "ms");
    }
  }
  const int per_thread = opt.tiny ? 20000 : 200000;
  res.metric("metrics.record_ns_1t", record_ns(1, per_thread), "ns");
  res.metric("metrics.record_ns_4t", record_ns(4, per_thread), "ns");

  // congest.shard: a short sharded flooding session.
  if (!res.has_metric("shard.spawn_ms")) {
    const ShardOutcome o =
        shard_session(opt, g, opt.tiny ? 4 : 10, opt.tiny ? 0.1 : 1.0, res, nullptr);
    shard_layer_metrics(res, o);
  }

  // serve: a two-rate ladder plus the closed-loop probes, with this graph
  // resident (written to a .qcg file first when it was generated).
  if (!res.has_metric("serve.ping_us")) {
    const bool generated = in.source.find(".qcg") == std::string::npos;
    const std::string path =
        generated ? write_graph_file(opt, g, "perfbench-probe") : in.source;
    const ServeOutcome o =
        serve_session(opt, path, serve_ladder(opt, true), true, res, nullptr);
    serve_layer_metrics(res, o);
    if (generated) std::remove(path.c_str());
  }
  res.note_num("probe_seconds", seconds_since(t_probe));
}

}  // namespace perfbench
