// The paper-query workloads: Theorem 1 (exact diameter, with and without
// a metrics capture armed) and Theorem 4 (the 3/2-approximation).
//
// Untraced runs call the public front-ends exactly as a user does and time
// whole queries. Traced runs rebuild the same query from the public
// functions of each layer (algos initialisation, the graph ecc sweep, a
// benchmark-owned core::BranchEvaluator over algos::evaluate_window_ecc,
// core::distributed_quantum_optimize), time every call as a span, and
// check that the rebuilt query reports the same answer and round count as
// the front-end — so the per-layer split describes the real query.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>

#include "algos/bfs_tree.hpp"
#include "algos/evaluation.hpp"
#include "algos/hprw.hpp"
#include "algos/leader_election.hpp"
#include "algos/source_detection.hpp"
#include "bench.hpp"
#include "core/branch_evaluator.hpp"
#include "core/optimizer.hpp"
#include "core/quantum_approx.hpp"
#include "core/quantum_diameter.hpp"
#include "graph/algorithms.hpp"
#include "graph/ecc_engine.hpp"
#include "graph/io.hpp"
#include "util/bits.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Layer calls shared with the probes (declared in bench.hpp)

std::uint32_t eval_forward_rounds(std::uint32_t steps, std::uint32_t height) {
  return qc::algos::EvaluationProgram::token_phase_rounds(steps) +
         (2 * steps + 2 * height + 2) + height + 1;
}

InitPhase initialise(const graph::Graph& g, const qc::congest::NetworkConfig& net) {
  InitPhase in;
  const auto election = qc::algos::elect_leader(g, net);
  in.stats += election.stats;
  in.leader = election.leader;
  auto ecc = qc::algos::compute_eccentricity(g, in.leader, net);
  in.stats += ecc.stats;
  in.tree = std::move(ecc.tree);
  in.d = ecc.ecc;
  const std::uint32_t id_bits = qc::bit_width_for(g.n()) + 1;
  in.stats += qc::algos::broadcast_from_root(g, in.tree, in.d, id_bits, net).stats;
  in.rounds = in.stats.rounds;
  in.t_setup =
      qc::algos::broadcast_from_root(g, in.tree, 0, id_bits, net).stats.rounds;
  return in;
}

std::uint32_t paper_s(std::uint32_t n, std::uint32_t d_leader) {
  const double s = std::ceil(std::pow(static_cast<double>(n), 2.0 / 3.0) /
                             std::cbrt(static_cast<double>(std::max(1u, d_leader))));
  return std::clamp<std::uint32_t>(static_cast<std::uint32_t>(s), 1, n);
}

void fan_out(FanOut& fo, const graph::Graph& g, const qc::algos::TreeState& tree,
             std::uint32_t steps, std::uint32_t t_eval,
             const qc::graph::EccEngine::SegmentMax& seg,
             const qc::congest::NetworkConfig& net,
             const std::vector<bool>* mask,
             const std::vector<std::size_t>& branches, unsigned threads) {
  // The evaluator outlives this call (core.optimize reads its cache), so
  // the lambda holds only references to objects its callers keep alive.
  fo.evaluator = std::make_unique<qc::core::BranchEvaluator<std::int64_t>>(
      [&fo, &g, &tree, &seg, &net, mask, steps, t_eval](std::size_t u0) {
        const auto node = static_cast<graph::NodeId>(u0);
        const auto t0 = Clock::now();
        const auto eval =
            qc::algos::evaluate_window_ecc(g, tree, node, steps, net, mask);
        const double s = seconds_since(t0);
        const std::uint32_t reference = seg.max_ecc_in_segment(node, steps);
        std::lock_guard<std::mutex> lock(fo.mu);
        fo.branch_s.push_back(s);
        fo.busy_s += s;
        fo.messages += eval.stats.messages;
        fo.bits += eval.stats.bits;
        if (eval.max_ecc != reference || eval.stats.rounds != t_eval) {
          ++fo.mismatches;
        }
        return static_cast<std::int64_t>(reference);
      },
      threads);
  const auto t0 = Clock::now();
  fo.evaluator->prefetch(branches);
  fo.wall_s = seconds_since(t0);
}

namespace {

using qc::graph::NodeId;

/// The approximation runs its quantum phase on one branch thread: at
/// n=1000 the support R holds ~60 branches and 4 threads measured no faster,
/// while one thread keeps the workload off the other CPUs entirely (see
/// README, approx-pa1000).
constexpr unsigned kApproxThreads = 1;

/// Configuration of the queries on input k. Each input gets its own
/// quantum sampling seed and node randomness: the hprw sample depends only
/// on the node seed and the node ids, so one node seed shared by all inputs
/// would give them all the same sample size and cost.
qc::core::QuantumConfig query_config(const Options& opt, unsigned branch_threads,
                                     std::size_t k) {
  qc::core::QuantumConfig cfg;
  cfg.oracle = qc::core::OracleMode::kSimulate;
  cfg.branch_threads = branch_threads;
  cfg.seed = derive_seed(opt.seed, 0x7100 + k);
  cfg.net.seed = derive_seed(opt.seed, 0x7200 + k);
  return cfg;
}

/// Appends `reps` timed regenerations of the graph `spec`: the set-up a
/// user pays before a query can start.
void time_setup(const std::string& spec, int reps, std::vector<double>& out) {
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    const auto g = graph::make_from_spec(spec);
    out.push_back(seconds_since(t0));
    if (g.n() == 0) std::abort();
  }
}

/// Times queries until `seconds` have passed and every input has been
/// queried at least once, cycling over `inputs` inputs: query i runs on
/// input i % inputs. A slow host therefore queries fewer rounds of the
/// same graphs, never a different set of graphs. Before each query
/// `setup(k, samples)` appends set-up samples for its input k, so set-up is
/// sampled across the run as the queries are (the host's speed drifts
/// within a run).
struct QueryTimes {
  std::vector<double> wall;
  std::vector<double> cpu;
  std::vector<double> sys;
  std::vector<double> setup;
  std::vector<std::size_t> input;
};
QueryTimes repeat_queries(
    double seconds, std::size_t inputs,
    const std::function<void(std::size_t)>& query,
    const std::function<void(std::size_t, std::vector<double>&)>& setup) {
  QueryTimes t;
  const auto start = Clock::now();
  do {
    const std::size_t k = t.wall.size() % inputs;
    setup(k, t.setup);
    const CpuTimes c0 = cpu_now();
    const auto t0 = Clock::now();
    query(k);
    t.wall.push_back(seconds_since(t0));
    const CpuTimes dc = cpu_now() - c0;
    t.cpu.push_back(dc.total());
    t.sys.push_back(dc.sys);
    t.input.push_back(k);
  } while (seconds_since(start) < seconds || t.wall.size() < inputs);
  return t;
}

/// Mean over inputs of the median of `v` over that input's queries, so
/// every input weighs the same whichever ran last.
double per_input_mean(const std::vector<double>& v,
                      const std::vector<std::size_t>& input) {
  std::map<std::size_t, std::vector<double>> by_input;
  for (std::size_t i = 0; i < v.size(); ++i) by_input[input[i]].push_back(v[i]);
  double sum = 0;
  for (const auto& [k, vals] : by_input) sum += median(vals);
  return sum / static_cast<double>(by_input.size());
}

void end_to_end(Result& res, const QueryTimes& t) {
  res.metric("query_s", per_input_mean(t.wall, t.input), "s");
  res.metric("cpu_s", per_input_mean(t.cpu, t.input), "s");
  res.metric("setup_s", median(t.setup), "s");
  res.metric("peak_rss_mb", self_peak_rss_mb(), "MiB");
  res.note_num("queries", static_cast<double>(t.wall.size()));
  res.note_num("first_query_ms", t.wall.front() * 1e3);
  std::ostringstream walls;
  walls << "[";
  for (std::size_t i = 0; i < t.wall.size(); ++i) {
    walls << (i ? "," : "") << json_num(t.wall[i]);
  }
  walls << "]";
  res.note("query_walls_s", walls.str());
}

// ---------------------------------------------------------------------------
// Theorem 1

struct ExactSizes {
  std::uint32_t n;
  std::uint32_t d;
  std::size_t inputs;  ///< graphs a run cycles over
};

ExactSizes exact_sizes(const Options& opt, bool with_metrics) {
  if (opt.tiny) return {with_metrics ? 96u : 128u, 8u, 2};
  // 1.2-2.9 s per query at n=1024 leaves two or more queries per input in
  // 15 s; the metrics-on query at n=256 takes 0.5-1.1 s, and run.py splits
  // that workload's run over five processes of 3 s, each on its own three
  // graphs.
  return {with_metrics ? 256u : 1024u, 16u, 3u};
}

void add_exact_costs(std::map<std::string, std::uint64_t>& sum,
                     const qc::core::QuantumDiameterReport& r) {
  sum["diameter"] += r.diameter;
  sum["leader"] += r.leader;
  sum["ecc_leader"] += r.ecc_leader;
  sum["total_rounds"] += r.total_rounds;
  sum["init_rounds"] += r.init_rounds;
  sum["t_setup"] += r.t_setup;
  sum["t_eval_forward"] += r.t_eval_forward;
  sum["grover_iterations"] += r.costs.grover_iterations;
  sum["setup_invocations"] += r.costs.setup_invocations;
  sum["candidate_evaluations"] += r.costs.candidate_evaluations;
  sum["distinct_branches"] += r.distinct_branch_evaluations;
  sum["reference_bfs_runs"] += r.reference_bfs_runs;
  sum["inputs_queried"] += 1;
}

bool same_costs(const qc::core::QuantumDiameterReport& a,
                const qc::core::QuantumDiameterReport& b) {
  return a.diameter == b.diameter && a.total_rounds == b.total_rounds &&
         a.costs.grover_iterations == b.costs.grover_iterations &&
         a.costs.setup_invocations == b.costs.setup_invocations &&
         a.costs.candidate_evaluations == b.costs.candidate_evaluations &&
         a.distinct_branch_evaluations == b.distinct_branch_evaluations &&
         a.reference_bfs_runs == b.reference_bfs_runs;
}

/// One metrics capture armed around a query, exactly as --metrics-out
/// does it: a ScopedExport whose destructor writes the JSONL file.
class MetricsCapture {
 public:
  explicit MetricsCapture(const Options& opt)
      : path_(opt.work_dir + "/perfbench-metrics-" +
              std::to_string(::getpid()) + ".jsonl") {}
  ~MetricsCapture() { std::remove(path_.c_str()); }
  MetricsCapture(const MetricsCapture&) = delete;
  MetricsCapture& operator=(const MetricsCapture&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Traced Theorem 1 query rebuilt from layer calls; returns its wall time.
double traced_exact(const Options& opt, const std::string& spec,
                    const qc::core::QuantumDiameterReport& real,
                    std::uint32_t d_ref, Result& res, Tracer& tr) {
  const auto cfg = query_config(opt, opt.threads, 0);
  const auto t0 = Clock::now();
  const graph::Graph g =
      tr.measure("graph.load", [&] { return graph::make_from_spec(spec); });
  InitPhase in;
  const double init_s = tr.time("algos.init", [&] { in = initialise(g, cfg.net); });
  std::optional<graph::EccEngine> engine;
  graph::EccEngine::SegmentMax seg;
  const double sweep_s = tr.time("graph.ecc_sweep", [&] {
    engine.emplace(g, opt.threads);
    seg = engine->segment_max(graph::dfs_numbering(in.tree.to_bfs_tree()));
  });
  const std::uint32_t steps = 2 * in.d;
  const std::uint32_t t_eval = eval_forward_rounds(steps, in.tree.height);
  std::vector<std::size_t> all(g.n());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  FanOut fo;
  tr.time("algos.branch_fanout", [&] {
    fan_out(fo, g, in.tree, steps, t_eval, seg, cfg.net, nullptr, all,
            opt.threads);
  });
  qc::core::OptimizationReport opt_rep;
  const double optimize_s = tr.time("core.optimize", [&] {
    qc::core::OptimizationProblem prob;
    prob.domain_size = g.n();
    prob.evaluate = [&fo](std::size_t x) { return (*fo.evaluator)(x); };
    prob.t_init = in.rounds;
    prob.t_setup = in.t_setup;
    prob.t_eval_forward = t_eval;
    prob.epsilon = std::min(1.0, static_cast<double>(in.d) /
                                     (2.0 * static_cast<double>(g.n())));
    prob.delta = cfg.delta;
    prob.num_threads = 1;  // every branch is already cached
    qc::Rng rng(cfg.seed);
    opt_rep = qc::core::distributed_quantum_optimize(prob, rng);
  });
  const double wall = seconds_since(t0);

  check(res, fo.mismatches == 0,
        "traced exact: a branch disagreed with the centralized reference");
  check(res, static_cast<std::uint32_t>(opt_rep.value) == d_ref,
        "traced exact: rebuilt query answered D=" +
            std::to_string(opt_rep.value));
  check(res, opt_rep.total_rounds == real.total_rounds &&
                 opt_rep.distinct_evaluations == real.distinct_branch_evaluations,
        "traced exact: rebuilt query's round count differs from the "
        "front-end's");
  res.attempt();
  res.cost("init_messages", in.stats.messages);
  res.cost("init_bits", in.stats.bits);
  res.cost("branch_messages", fo.messages);
  res.cost("branch_bits", fo.bits);

  res.metric("algos.init_ms", init_s * 1e3, "ms");
  res.metric("graph.ecc_sweep_ms", sweep_s * 1e3, "ms");
  res.metric("core.optimize_ms", optimize_s * 1e3, "ms");
  res.metric("algos.branch_ms", median(fo.branch_s) * 1e3, "ms");
  res.metric("algos.branch_p90_ms", quantile(fo.branch_s, 0.9) * 1e3, "ms");
  res.metric("core.fanout_eff",
             fo.busy_s / (static_cast<double>(opt.threads) * fo.wall_s), "ratio");
  return wall;
}

}  // namespace

void run_exact(const Options& opt, Result& res, bool with_metrics) {
  // The cost of one query still differs between graphs of the family (the
  // random attachments set the message count), so a run cycles over
  // several pinned inputs; the first is also the traced and probed one.
  const ExactSizes sz = exact_sizes(opt, with_metrics);
  struct Input {
    GraphInput in;
    std::uint32_t d_ref = 0;
    std::optional<qc::core::QuantumDiameterReport> first;
  };
  std::vector<Input> inputs;
  for (std::size_t k = 0; k < sz.inputs; ++k) {
    Input x{pinned_diameter_graph(sz.n, sz.d, derive_seed(opt.seed, 0xe0 + k)),
            0, std::nullopt};
    x.d_ref = graph::EccEngine(x.in.g).diameter() + (opt.corrupt_reference ? 1 : 0);
    std::cout << "input " << x.in.source << " n=" << x.in.g.n()
              << " m=" << x.in.g.m() << "\n";
    inputs.push_back(std::move(x));
  }
  const GraphInput& in = inputs.front().in;
  res.note_str("graph", in.source);
  res.note_num("inputs", static_cast<double>(inputs.size()));
  MetricsCapture capture(opt);
  auto run_query = [&](std::size_t k, bool metrics_on) {
    Input& x = inputs[k];
    qc::core::QuantumDiameterReport r;
    {
      qc::metrics::ScopedExport exp(metrics_on ? capture.path() : "");
      r = qc::core::quantum_diameter_exact(x.in.g, query_config(opt, opt.threads, k));
    }
    res.attempt();
    check(res, !r.subroutine_failed,
          "exact: subroutine failed: " + r.failure_reason);
    check(res, r.diameter == x.d_ref,
          "exact: answered D=" + std::to_string(r.diameter) + ", reference D=" +
              std::to_string(x.d_ref) + " on " + x.in.source);
    if (!x.first) {
      x.first = r;
    } else {
      check(res, same_costs(*x.first, r),
            "exact: model costs changed between identical queries");
    }
  };
  const auto query = [&](std::size_t k) { run_query(k, with_metrics); };
  // Model costs summed over the inputs queried at least once.
  auto costs = [&] {
    std::map<std::string, std::uint64_t> sum;
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      const Input& x = inputs[k];
      if (!x.first) continue;
      add_exact_costs(sum, *x.first);
      const InitPhase init = initialise(x.in.g, query_config(opt, opt.threads, k).net);
      sum["init_messages"] += init.stats.messages;
      sum["init_bits"] += init.stats.bits;
    }
    for (const auto& [k, v] : sum) res.cost(k, v);
  };

  if (!opt.trace) {
    const QueryTimes t = repeat_queries(
        opt.seconds, inputs.size(), query,
        [&](std::size_t k, std::vector<double>& v) {
          time_setup(inputs[k].in.source, 5, v);
        });
    end_to_end(res, t);
    if (with_metrics) res.note_num("sys_s", per_input_mean(t.sys, t.input));
    costs();
    return;
  }

  // Traced run: one untraced query as the baseline, then the rebuilt query
  // under spans, then probes for the layers the query does not cross.
  const QueryTimes base = repeat_queries(
      0.0, 1, query, [&](std::size_t, std::vector<double>& v) {
        time_setup(in.source, 21, v);
      });
  res.metric("graph.load_ms", median(base.setup) * 1e3, "ms");
  costs();
  Tracer tr;
  qc::metrics::MetricsRegistry reg;
  if (with_metrics) qc::metrics::set_global(&reg);
  const double traced =
      traced_exact(opt, in.source, *inputs.front().first, inputs.front().d_ref,
                   res, tr);
  if (with_metrics) {
    qc::metrics::set_global(nullptr);
    std::ostringstream sink;
    const auto t0 = Clock::now();
    reg.write_jsonl(sink);
    res.metric("metrics.export_ms", seconds_since(t0) * 1e3, "ms");
    // Overhead on the same input: the metrics-on query over a metrics-off
    // one.
    const QueryTimes off = repeat_queries(
        0.0, 1, [&](std::size_t k) { run_query(k, false); },
        [](std::size_t, std::vector<double>&) {});
    res.metric("metrics.overhead_x", base.wall.front() / off.wall.front(), "x");
    res.metric("metrics.sys_s", base.sys.front(), "s");
  }
  tr.report(res, traced);
  res.metric("trace.unattributed_s", traced - tr.total_seconds(), "s");
  res.metric("trace.overhead_x", traced / base.wall.front(), "x");

  probe_layers(opt, in, res);
}

// ---------------------------------------------------------------------------
// Theorem 4

namespace {

/// Traced Theorem 4 query rebuilt from layer calls; returns its wall time.
double traced_approx(const Options& opt, const std::string& spec,
                     const qc::core::QuantumApproxReport& real, Result& res,
                     Tracer& tr) {
  const auto cfg = query_config(opt, kApproxThreads, 0);
  const auto t0 = Clock::now();
  const graph::Graph g =
      tr.measure("graph.load", [&] { return graph::make_from_spec(spec); });
  qc::congest::RunStats prep_acc;
  std::uint32_t d_leader = 0;
  const double init_s = tr.time("algos.init", [&] {
    const auto election = qc::algos::elect_leader(g, cfg.net);
    prep_acc += election.stats;
    const auto lead = qc::algos::compute_eccentricity(g, election.leader, cfg.net);
    prep_acc += lead.stats;
    d_leader = std::max(1u, lead.ecc);
  });
  const std::uint32_t s = paper_s(g.n(), d_leader);
  qc::algos::PreparationOutcome prep;
  const double hprw_s = tr.time("algos.hprw", [&] {
    prep = qc::algos::hprw_preparation(g, s, cfg.net);
  });
  prep_acc += prep.stats;
  res.metric("algos.init_ms", init_s * 1e3, "ms");
  res.metric("algos.hprw_ms", hprw_s * 1e3, "ms");
  res.cost("sample_size", prep.sample.size());
  res.cost("r_size", prep.r_size);
  res.cost("prep_messages", prep.stats.messages);
  res.cost("prep_bits", prep.stats.bits);
  if (!check(res, !prep.aborted, "traced approx: preparation aborted")) {
    return seconds_since(t0);
  }

  std::uint32_t quantum_value = prep.ecc_w;
  std::uint64_t quantum_rounds = 0;
  if (prep.r_size > 1) {
    graph::BfsTree subtree;
    std::vector<std::size_t> support;
    std::uint32_t d_sub = 0, t_setup = 0;
    tr.time("algos.window_setup", [&] {
      subtree = graph::induced_subtree(prep.tree_w.to_bfs_tree(), prep.r_mask);
      d_sub = subtree.height;
      for (NodeId v = 0; v < g.n(); ++v) {
        if (prep.r_mask[v]) support.push_back(v);
      }
      const std::uint32_t id_bits = qc::bit_width_for(g.n()) + 1;
      t_setup = qc::algos::broadcast_from_root(g, prep.tree_w, 0, id_bits, cfg.net)
                    .stats.rounds;
      prep_acc += qc::algos::broadcast_from_root(g, prep.tree_w, d_sub, id_bits,
                                                 cfg.net)
                      .stats;
    });
    std::optional<graph::EccEngine> engine;
    graph::EccEngine::SegmentMax seg;
    const double sweep_s = tr.time("graph.ecc_sweep", [&] {
      engine.emplace(g, opt.threads);
      seg = engine->segment_max(graph::dfs_numbering(subtree));
    });
    res.metric("graph.ecc_sweep_ms", sweep_s * 1e3, "ms");
    const std::uint32_t steps = 2 * std::max(1u, d_sub);
    const std::uint32_t t_eval = eval_forward_rounds(steps, prep.tree_w.height);
    FanOut fo;
    tr.time("algos.branch_fanout", [&] {
      fan_out(fo, g, prep.tree_w, steps, t_eval, seg, cfg.net, &prep.r_mask,
              support, kApproxThreads);
    });
    check(res, fo.mismatches == 0,
          "traced approx: a branch disagreed with the centralized reference");
    // core.fanout_eff comes from the probe's 4-thread fan-out: this query
    // fans out on one thread.
    res.metric("algos.branch_ms", median(fo.branch_s) * 1e3, "ms");
    res.metric("algos.branch_p90_ms", quantile(fo.branch_s, 0.9) * 1e3, "ms");
    res.cost("branch_messages", fo.messages);
    res.cost("branch_bits", fo.bits);
    qc::core::OptimizationReport opt_rep;
    const double optimize_s = tr.time("core.optimize", [&] {
      qc::core::OptimizationProblem prob;
      prob.domain_size = g.n();
      prob.support = support;
      prob.evaluate = [&fo](std::size_t x) { return (*fo.evaluator)(x); };
      prob.t_setup = t_setup;
      prob.t_eval_forward = t_eval;
      prob.epsilon = std::min(
          1.0, static_cast<double>(std::max(1u, d_sub)) /
                   (2.0 * static_cast<double>(prep.r_size)));
      prob.delta = cfg.delta;
      prob.num_threads = 1;
      qc::Rng rng(cfg.seed ^ 0xa99ae5u);
      opt_rep = qc::core::distributed_quantum_optimize(prob, rng);
    });
    res.metric("core.optimize_ms", optimize_s * 1e3, "ms");
    quantum_value = static_cast<std::uint32_t>(opt_rep.value);
    quantum_rounds = opt_rep.total_rounds;
  }
  const double wall = seconds_since(t0);

  const std::uint32_t estimate =
      std::max({prep.ecc_w, prep.max_ecc_sample, quantum_value});
  res.attempt();
  check(res, estimate == real.estimate,
        "traced approx: rebuilt query estimated " + std::to_string(estimate) +
            ", the front-end " + std::to_string(real.estimate));
  check(res, prep_acc.rounds + quantum_rounds == real.total_rounds,
        "traced approx: rebuilt query's round count differs from the "
        "front-end's");

  // detect_sources alone, on the preparation's own sample.
  std::vector<bool> is_source(g.n(), false);
  for (const NodeId v : prep.sample) is_source[v] = true;
  const auto ds0 = Clock::now();
  const auto det = qc::algos::detect_sources(g, is_source, cfg.net);
  res.metric("algos.detect_sources_ms", seconds_since(ds0) * 1e3, "ms");
  check(res, det.status == qc::algos::PhaseStatus::kQuiesced,
        "detect_sources did not quiesce");
  return wall;
}

}  // namespace

void run_approx(const Options& opt, Result& res) {
  // Theorem 4's cost follows the size of the hprw sample, so a run cycles
  // over several inputs, each with its own graph and node seed
  // (query_config); the first is also the traced and probed one.
  struct Input {
    GraphInput in;
    std::uint32_t lo = 0, hi = 0;  ///< accepted estimates
    std::uint32_t diameter = 0;
    std::optional<qc::core::QuantumApproxReport> first;
  };
  std::vector<Input> inputs;
  for (int k = 0; k < (opt.tiny ? 2 : 6); ++k) {
    const std::string spec =
        std::string(opt.tiny ? "pa:300:3:" : "pa:1000:3:") +
        std::to_string(derive_seed(opt.seed, 0xa0 + k) % 1000000007ULL);
    Input x{GraphInput{spec, graph::make_from_spec(spec)}, 0, 0, 0, std::nullopt};
    x.diameter = graph::EccEngine(x.in.g).diameter();
    // Theorem 4: D-bar <= D <= 3 D-bar / 2, i.e. ceil(2D/3) <= D-bar <= D.
    x.lo = (2 * x.diameter + 2) / 3;
    x.hi = x.diameter;
    if (opt.corrupt_reference) x.lo = x.hi = x.diameter + 1;
    std::cout << "input " << spec << " n=" << x.in.g.n() << " m=" << x.in.g.m()
              << " D=" << x.diameter << "\n";
    inputs.push_back(std::move(x));
  }
  res.note_str("graph", inputs.front().in.source);
  res.note_num("inputs", static_cast<double>(inputs.size()));
  const auto setup = [&](std::size_t k, std::vector<double>& v) {
    time_setup(inputs[k].in.source, 5, v);
  };

  auto query = [&](std::size_t k) {
    Input& x = inputs[k];
    const auto r =
        qc::core::quantum_diameter_approx(x.in.g, query_config(opt, kApproxThreads, k));
    res.attempt();
    check(res, !r.aborted, "approx: preparation aborted");
    check(res, !r.subroutine_failed,
          "approx: subroutine failed: " + r.failure_reason);
    check(res, r.estimate >= x.lo && r.estimate <= x.hi,
          "approx: estimate " + std::to_string(r.estimate) + " outside [" +
              std::to_string(x.lo) + ", " + std::to_string(x.hi) + "] on " +
              x.in.source);
    if (!x.first) {
      x.first = r;
    } else {
      check(res, x.first->estimate == r.estimate &&
                     x.first->total_rounds == r.total_rounds &&
                     x.first->costs.grover_iterations == r.costs.grover_iterations,
            "approx: model costs changed between identical queries");
    }
  };
  // Model costs summed over the inputs queried at least once.
  auto costs = [&] {
    std::map<std::string, std::uint64_t> sum;
    for (const Input& x : inputs) {
      if (!x.first) continue;
      const auto& r = *x.first;
      sum["diameter_reference"] += x.diameter;
      sum["estimate"] += r.estimate;
      sum["s_used"] += r.s_used;
      sum["w"] += r.w;
      sum["prep_rounds"] += r.prep_rounds;
      sum["quantum_rounds"] += r.quantum_rounds;
      sum["total_rounds"] += r.total_rounds;
      sum["grover_iterations"] += r.costs.grover_iterations;
      sum["setup_invocations"] += r.costs.setup_invocations;
      sum["candidate_evaluations"] += r.costs.candidate_evaluations;
      sum["distinct_branches"] += r.distinct_branch_evaluations;
      sum["reference_bfs_runs"] += r.reference_bfs_runs;
      sum["inputs_queried"] += 1;
    }
    for (const auto& [k, v] : sum) res.cost(k, v);
  };
  const GraphInput& in = inputs.front().in;
  const std::string& spec = in.source;

  if (!opt.trace) {
    const QueryTimes t = repeat_queries(opt.seconds, inputs.size(), query, setup);
    end_to_end(res, t);
    costs();
    return;
  }
  const QueryTimes base =
      repeat_queries(0.0, 1, query, [&](std::size_t, std::vector<double>& v) {
        time_setup(inputs.front().in.source, 21, v);
      });
  res.metric("graph.load_ms", median(base.setup) * 1e3, "ms");
  costs();
  Tracer tr;
  const double traced = traced_approx(opt, spec, *inputs.front().first, res, tr);
  tr.report(res, traced);
  res.metric("trace.unattributed_s", traced - tr.total_seconds(), "s");
  res.metric("trace.overhead_x", traced / base.wall.front(), "x");

  probe_layers(opt, in, res);
}

}  // namespace perfbench
