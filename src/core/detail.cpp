#include "core/detail.hpp"

#include <algorithm>
#include <thread>

#include "algos/bfs_tree.hpp"
#include "algos/leader_election.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace qc::core::detail {

using graph::NodeId;

namespace {

std::uint32_t effective_branch_threads(const QuantumConfig& cfg) {
  if (cfg.net.observer != nullptr) return 1;
  if (cfg.branch_threads != 0) return cfg.branch_threads;
  return std::max(1u, std::thread::hardware_concurrency());
}

// Grover/Setup/check counters labeled with the front-end name, plus the
// branch-evaluation and reference-BFS totals (no-op when metrics are
// disabled).
void record_quantum_costs(const char* algo, const QuantumPhaseReport& rep) {
  if (!metrics::enabled()) return;
  metrics::count("core.grover_iterations", rep.costs.grover_iterations, algo);
  metrics::count("core.setup_invocations", rep.costs.setup_invocations, algo);
  metrics::count("core.candidate_evaluations",
                 rep.costs.candidate_evaluations, algo);
  metrics::count("core.distinct_branch_evaluations",
                 rep.distinct_branch_evaluations, algo);
  metrics::count("core.reference_bfs_runs", rep.reference_bfs_runs, algo);
}

}  // namespace

InitPhase run_initialization(const graph::Graph& g,
                             const congest::NetworkConfig& net) {
  metrics::ScopedTimer span("core.init");
  InitPhase init;
  congest::RunStats acc;

  const auto election = algos::elect_leader(g, net);
  acc += election.stats;
  init.leader = election.leader;

  auto ecc = algos::compute_eccentricity(g, init.leader, net);
  acc += ecc.stats;
  init.tree = std::move(ecc.tree);
  init.d = ecc.ecc;

  const std::uint32_t id_bits = qc::bit_width_for(g.n()) + 1;
  acc += algos::broadcast_from_root(g, init.tree, init.d, id_bits, net).stats;
  init.rounds = acc.rounds;

  // Proposition 2: Setup broadcasts the internal register down BFS(leader)
  // with CNOT copies — per branch this is exactly a value broadcast, so
  // measure its round cost with one instrumentation run (not charged).
  init.t_setup =
      algos::broadcast_from_root(g, init.tree, 0, id_bits, net).stats.rounds;
  span.add(acc.rounds, acc.messages, acc.bits);
  return init;
}

WindowOracle::WindowOracle(const graph::Graph& g,
                           const algos::TreeState& tree, std::uint32_t steps,
                           OracleMode mode, congest::NetworkConfig net,
                           std::vector<bool> mask, std::uint32_t num_threads)
    : g_(&g),
      tree_(&tree),
      steps_(steps),
      mode_(mode),
      net_(std::move(net)),
      mask_(std::move(mask)),
      engine_(g, num_threads) {
  metrics::ScopedTimer span("core.oracle_build");
  graph::BfsTree walk_tree =
      mask_.empty() ? tree.to_bfs_tree()
                    : graph::induced_subtree(tree.to_bfs_tree(), mask_);
  num_ = graph::dfs_numbering(walk_tree);
  // One eccentricity sweep (n BFS) plus an O(len log len) table build here;
  // every branch's reference value is then an O(1) range-max query.
  seg_max_ = engine_.segment_max(num_);
  // Figure 2's round budget is oblivious to u0: Step 1 runs 3*steps rounds
  // (token + probe/reply cycles), Step 2 its fixed pipeline window,
  // Steps 3-4 one convergecast. Every branch costs the same.
  t_eval_forward_ = algos::EvaluationProgram::token_phase_rounds(steps_) +
                    (2 * steps_ + 2 * tree.height + 2) + tree.height + 1;
}

std::int64_t WindowOracle::operator()(std::size_t u0) {
  const auto node = static_cast<NodeId>(u0);
  metrics::count("core.branch_evaluations");
  const std::uint32_t reference = seg_max_.max_ecc_in_segment(node, steps_);
  if (mode_ == OracleMode::kSimulate || !validated_once_) {
    metrics::ScopedTimer span("core.branch_simulate");
    std::unique_ptr<congest::Network> net;
    {
      std::lock_guard<std::mutex> lock(idle_mu_);
      if (!idle_.empty()) {
        net = std::move(idle_.back());
        idle_.pop_back();
      }
    }
    if (net == nullptr) net = std::make_unique<congest::Network>(*g_, net_);
    auto eval = algos::evaluate_window_ecc(*net, *tree_, node, steps_,
                                           mask_.empty() ? nullptr : &mask_);
    {
      std::lock_guard<std::mutex> lock(idle_mu_);
      idle_.push_back(std::move(net));
    }
    span.add(eval.stats.rounds, eval.stats.messages, eval.stats.bits);
    check_internal(eval.stats.rounds == t_eval_forward_,
                   "WindowOracle: evaluation round budget mismatch");
    check_internal(eval.max_ecc == reference,
                   "WindowOracle: distributed Evaluation disagrees with "
                   "centralized reference");
    validated_once_ = true;
  }
  return static_cast<std::int64_t>(reference);
}

PhaseAnswer run_quantum_phase(const graph::Graph& g, const QuantumConfig& cfg,
                              const PhaseSpec& spec, QuantumPhaseReport& rep) {
  const std::uint32_t threads = effective_branch_threads(cfg);
  WindowOracle oracle(g, *spec.tree, spec.steps, cfg.oracle, cfg.net,
                      spec.mask, threads);
  rep.t_eval_forward = oracle.t_eval_forward();

  PhaseAnswer answer;
  // Fills either problem type from the spec, runs it under the
  // core.quantum_phase span and copies the shared report fields.
  const auto solve = [&](auto prob, auto run) {
    prob.domain_size = g.n();
    for (std::size_t v = 0; v < spec.mask.size(); ++v) {
      if (spec.mask[v]) prob.support.push_back(v);
    }
    prob.t_init = spec.t_init;
    prob.t_setup = spec.t_setup;
    prob.t_eval_forward = oracle.t_eval_forward();
    prob.epsilon = spec.epsilon;
    prob.delta = cfg.delta;
    prob.num_threads = threads;

    Rng rng(spec.seed);
    metrics::PhaseTimer span(metrics::global(), "core.quantum_phase");
    const auto out = run(prob, rng);
    // A failed subroutine charges no rounds (total_rounds is 0, not t_init).
    span.add(out.subroutine_failed ? 0 : out.total_rounds - spec.t_init, 0,
             0);
    span.finish();

    rep.costs = out.costs;
    rep.distinct_branch_evaluations = out.distinct_evaluations;
    rep.reference_bfs_runs = oracle.reference_bfs_runs();
    rep.per_node_memory_qubits = out.per_node_memory_qubits;
    rep.leader_memory_qubits = out.leader_memory_qubits;
    rep.subroutine_failed = out.subroutine_failed;
    rep.failure_reason = out.failure_reason;
    answer.total_rounds = out.total_rounds;
    return out;
  };

  if (spec.goal == PhaseGoal::kExceeds) {
    SearchProblem prob;
    const auto k = static_cast<std::int64_t>(spec.threshold);
    prob.marked = [&oracle, k](std::size_t x) { return oracle(x) > k; };
    const auto out = solve(std::move(prob), distributed_quantum_search);
    answer.found = out.found;
    answer.arg = out.witness;
  } else {
    const std::int64_t sign = spec.goal == PhaseGoal::kMinimize ? -1 : 1;
    OptimizationProblem prob;
    prob.evaluate = [&oracle, sign](std::size_t x) { return sign * oracle(x); };
    const auto out = solve(std::move(prob), distributed_quantum_optimize);
    rep.budget_exhausted = out.budget_exhausted;
    answer.value = sign * out.value;
    answer.arg = out.argmax;
  }
  record_quantum_costs(spec.algo, rep);
  return answer;
}

}  // namespace qc::core::detail
