#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "core/optimizer.hpp"
#include "core/quantum_approx.hpp"
#include "core/quantum_decision.hpp"
#include "core/quantum_diameter.hpp"
#include "core/quantum_radius.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace qc::core {
namespace {

using graph::Graph;
using graph::NodeId;

Graph random_graph(std::uint32_t n, std::uint32_t d, std::uint64_t seed) {
  Rng rng(seed);
  return graph::make_random_with_diameter(n, d, rng);
}

// ---------------------------------------------------------------------------
// The generic optimizer (Theorem 7).
// ---------------------------------------------------------------------------

TEST(Optimizer, FindsMaximumAndAccountsRounds) {
  OptimizationProblem p;
  p.domain_size = 64;
  p.evaluate = [](std::size_t x) {
    return static_cast<std::int64_t>((x * 7) % 41);
  };
  p.t_init = 100;
  p.t_setup = 10;
  p.t_eval_forward = 25;
  p.epsilon = 1.0 / 64;
  p.delta = 0.05;
  Rng rng(3);
  auto rep = distributed_quantum_optimize(p, rng);
  std::int64_t best = 0;
  for (std::size_t x = 0; x < 64; ++x) {
    best = std::max(best, p.evaluate(x));
  }
  EXPECT_EQ(rep.value, best);
  // The accounting identity must hold exactly.
  const std::uint64_t expect_rounds =
      p.t_init + rep.costs.setup_invocations * 10ULL +
      rep.costs.grover_iterations * (2ULL * 2 * 25 + 2ULL * 10) +
      rep.costs.candidate_evaluations * 25ULL;
  EXPECT_EQ(rep.total_rounds, expect_rounds);
  EXPECT_GT(rep.costs.grover_iterations, 0u);
  EXPECT_LE(rep.distinct_evaluations, 64u);
}

TEST(Optimizer, MemoizationBoundsDistinctEvaluations) {
  int raw_calls = 0;
  OptimizationProblem p;
  p.domain_size = 32;
  p.evaluate = [&raw_calls](std::size_t x) {
    ++raw_calls;
    return static_cast<std::int64_t>(x);
  };
  p.t_init = 0;
  p.t_setup = 1;
  p.t_eval_forward = 1;
  p.epsilon = 1.0 / 32;
  Rng rng(4);
  auto rep = distributed_quantum_optimize(p, rng);
  EXPECT_EQ(rep.value, 31);
  EXPECT_EQ(static_cast<std::uint64_t>(raw_calls), rep.distinct_evaluations);
  EXPECT_LE(raw_calls, 32);
}

TEST(Optimizer, SupportRestrictsDomain) {
  OptimizationProblem p;
  p.domain_size = 100;
  p.support = {10, 20, 30};
  p.evaluate = [](std::size_t x) { return static_cast<std::int64_t>(x); };
  p.t_setup = 1;
  p.t_eval_forward = 1;
  p.epsilon = 1.0 / 3;
  Rng rng(5);
  auto rep = distributed_quantum_optimize(p, rng);
  EXPECT_EQ(rep.argmax, 30u);
}

TEST(Optimizer, MemoryScalesWithLogDomainAndLogEps) {
  OptimizationProblem p;
  p.domain_size = 1 << 12;
  p.evaluate = [](std::size_t) { return std::int64_t{0}; };
  p.t_setup = 1;
  p.t_eval_forward = 1;
  p.epsilon = 1.0 / (1 << 12);
  Rng rng(6);
  auto rep = distributed_quantum_optimize(p, rng);
  // per-node: O(log |X|); leader: O(log|X| * log(1/eps)).
  EXPECT_LE(rep.per_node_memory_qubits, 5u * 12 + 20);
  EXPECT_LE(rep.leader_memory_qubits, rep.per_node_memory_qubits + 13u * 12);
  EXPECT_GT(rep.leader_memory_qubits, rep.per_node_memory_qubits);
}

// ---------------------------------------------------------------------------
// Theorem 1 and Section 3.1.
// ---------------------------------------------------------------------------

class QuantumExactSweep
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>> {
};

TEST_P(QuantumExactSweep, ComputesExactDiameter) {
  const auto [n, d] = GetParam();
  auto g = random_graph(n, d, 17 * n + d);
  QuantumConfig cfg;
  cfg.delta = 0.02;
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    cfg.seed = seed;
    auto rep = quantum_diameter_exact(g, cfg);
    EXPECT_EQ(rep.diameter, d) << "n=" << n << " d=" << d << " seed=" << seed;
    EXPECT_EQ(rep.leader, n - 1);
    EXPECT_GE(rep.ecc_leader, (d + 1) / 2);
    EXPECT_LE(rep.ecc_leader, d);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, QuantumExactSweep,
    ::testing::Values(std::pair{12u, 3u}, std::pair{20u, 5u},
                      std::pair{32u, 8u}, std::pair{40u, 4u},
                      std::pair{48u, 12u}, std::pair{64u, 6u}));

TEST(QuantumExact, StandardFamilies) {
  QuantumConfig cfg;
  EXPECT_EQ(quantum_diameter_exact(graph::make_path(16), cfg).diameter, 15u);
  EXPECT_EQ(quantum_diameter_exact(graph::make_cycle(12), cfg).diameter, 6u);
  EXPECT_EQ(quantum_diameter_exact(graph::make_star(10), cfg).diameter, 2u);
  EXPECT_EQ(quantum_diameter_exact(graph::make_grid(4, 5), cfg).diameter, 7u);
  EXPECT_EQ(quantum_diameter_exact(graph::make_complete(8), cfg).diameter,
            1u);
}

TEST(QuantumExact, TrivialGraphs) {
  QuantumConfig cfg;
  EXPECT_EQ(quantum_diameter_exact(graph::make_path(1), cfg).diameter, 0u);
  EXPECT_EQ(quantum_diameter_exact(graph::make_path(2), cfg).diameter, 1u);
}

TEST(QuantumExact, DirectOracleMatchesSimulated) {
  auto g = random_graph(36, 9, 99);
  QuantumConfig sim_cfg, dir_cfg;
  sim_cfg.oracle = OracleMode::kSimulate;
  dir_cfg.oracle = OracleMode::kDirect;
  sim_cfg.seed = dir_cfg.seed = 5;
  auto a = quantum_diameter_exact(g, sim_cfg);
  auto b = quantum_diameter_exact(g, dir_cfg);
  EXPECT_EQ(a.diameter, b.diameter);
  EXPECT_EQ(a.total_rounds, b.total_rounds);  // same seed, same trajectory
  EXPECT_EQ(a.costs.grover_iterations, b.costs.grover_iterations);
}

TEST(QuantumExact, ReferencePathUsesAtMostNBfsRuns) {
  // The shared EccEngine answers every branch's f(u) from one eccentricity
  // table: at most one BFS per vertex for the whole run, versus Theta(n*d)
  // for the per-branch naive evaluation it replaced.
  auto g = random_graph(48, 8, 21);
  QuantumConfig cfg;
  cfg.oracle = OracleMode::kDirect;
  auto rep = quantum_diameter_exact(g, cfg);
  EXPECT_EQ(rep.diameter, 8u);
  EXPECT_GT(rep.reference_bfs_runs, 0u);
  EXPECT_LE(rep.reference_bfs_runs, g.n());

  cfg.oracle = OracleMode::kSimulate;  // cross-check path: same bound
  auto sim = quantum_diameter_exact(g, cfg);
  EXPECT_LE(sim.reference_bfs_runs, g.n());
}

TEST(QuantumSimple, AlsoExactButSlower) {
  auto g = random_graph(30, 10, 7);
  QuantumConfig cfg;
  cfg.seed = 11;
  auto simple = quantum_diameter_simple(g, cfg);
  auto final = quantum_diameter_exact(g, cfg);
  EXPECT_EQ(simple.diameter, 10u);
  EXPECT_EQ(final.diameter, 10u);
}

TEST(QuantumExact, RoundAccountingIdentity) {
  auto g = random_graph(28, 6, 13);
  QuantumConfig cfg;
  cfg.seed = 3;
  auto rep = quantum_diameter_exact(g, cfg);
  const std::uint64_t expect =
      rep.init_rounds +
      rep.costs.setup_invocations * static_cast<std::uint64_t>(rep.t_setup) +
      rep.costs.grover_iterations *
          (4ULL * rep.t_eval_forward + 2ULL * rep.t_setup) +
      rep.costs.candidate_evaluations *
          static_cast<std::uint64_t>(rep.t_eval_forward);
  EXPECT_EQ(rep.total_rounds, expect);
  EXPECT_GT(rep.init_rounds, 0u);
  EXPECT_GT(rep.t_setup, 0u);
  EXPECT_GT(rep.t_eval_forward, 0u);
}

TEST(QuantumExact, EvalCostIsLinearInEccLeader) {
  // T_eval = O(d): the heart of Theorem 1's O(sqrt(nD)) bound.
  auto g = random_graph(60, 12, 21);
  QuantumConfig cfg;
  auto rep = quantum_diameter_exact(g, cfg);
  // 3*(2d) token + (6d+2) pipeline + (d+1) convergecast = 13d+3.
  EXPECT_LE(rep.t_eval_forward, 14 * rep.ecc_leader + 10);
}

TEST(QuantumExact, MemoryIsPolylog) {
  // Theorem 1: O(log^2 n) qubits per node.
  for (std::uint32_t n : {16u, 64u, 128u}) {
    auto g = random_graph(n, 4, n);
    auto rep = quantum_diameter_exact(g, QuantumConfig{});
    const double log_n = std::log2(static_cast<double>(n));
    EXPECT_LE(static_cast<double>(rep.per_node_memory_qubits),
              40 * log_n + 40);
    EXPECT_LE(static_cast<double>(rep.leader_memory_qubits),
              40 * log_n * log_n + 80);
  }
}

TEST(QuantumExact, FewerGroverIterationsThanSimple) {
  // The Section 3.2 windowing raises P_opt from 1/n to d/2n; for d >> 1
  // the final algorithm needs about sqrt(d/2) times fewer iterations.
  auto g = graph::make_path(96);
  QuantumConfig cfg;
  double simple_iters = 0, final_iters = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    cfg.seed = seed;
    cfg.oracle = OracleMode::kDirect;
    simple_iters += static_cast<double>(
        quantum_diameter_simple(g, cfg).costs.grover_iterations);
    final_iters += static_cast<double>(
        quantum_diameter_exact(g, cfg).costs.grover_iterations);
  }
  EXPECT_LT(final_iters * 2, simple_iters);
}

// ---------------------------------------------------------------------------
// Theorem 4 (quantum 3/2 approximation).
// ---------------------------------------------------------------------------

class QuantumApproxSweep
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>> {
};

TEST_P(QuantumApproxSweep, EstimateWithinGuarantee) {
  const auto [n, d] = GetParam();
  auto g = random_graph(n, d, 23 * n + d);
  QuantumConfig cfg;
  cfg.seed = 9;
  auto rep = quantum_diameter_approx(g, cfg);
  ASSERT_FALSE(rep.aborted);
  const std::uint32_t diam = graph::diameter(g);
  EXPECT_LE(rep.estimate, diam) << "n=" << n << " d=" << d;
  EXPECT_GE(3 * rep.estimate, 2 * diam) << "n=" << n << " d=" << d;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, QuantumApproxSweep,
    ::testing::Values(std::pair{24u, 6u}, std::pair{40u, 8u},
                      std::pair{56u, 5u}, std::pair{64u, 12u},
                      std::pair{80u, 10u}));

TEST(QuantumApprox, ExplicitS) {
  auto g = random_graph(48, 8, 31);
  QuantumConfig cfg;
  auto rep = quantum_diameter_approx(g, cfg, 6);
  ASSERT_FALSE(rep.aborted);
  EXPECT_EQ(rep.s_used, 6u);
  const std::uint32_t diam = graph::diameter(g);
  EXPECT_LE(rep.estimate, diam);
  EXPECT_GE(3 * rep.estimate, 2 * diam);
}

TEST(QuantumApprox, SingletonR) {
  auto g = random_graph(30, 6, 37);
  QuantumConfig cfg;
  auto rep = quantum_diameter_approx(g, cfg, 1);
  ASSERT_FALSE(rep.aborted);
  const std::uint32_t diam = graph::diameter(g);
  EXPECT_LE(rep.estimate, diam);
  EXPECT_GE(3 * rep.estimate, 2 * diam);
}

TEST(QuantumApprox, PhaseBreakdownAddsUp) {
  auto g = random_graph(50, 10, 41);
  QuantumConfig cfg;
  auto rep = quantum_diameter_approx(g, cfg);
  ASSERT_FALSE(rep.aborted);
  EXPECT_EQ(rep.total_rounds, rep.prep_rounds + rep.quantum_rounds);
  EXPECT_GT(rep.prep_rounds, 0u);
}

TEST(QuantumApprox, TrivialGraphs) {
  EXPECT_EQ(quantum_diameter_approx(graph::make_path(1)).estimate, 0u);
  EXPECT_EQ(quantum_diameter_approx(graph::make_path(2)).estimate, 1u);
}


// ---------------------------------------------------------------------------
// Golden report fields: every field of every front-end report at fixed
// seeds, so a refactor of the shared quantum phase cannot drift a single
// value, counter label or span name.
// ---------------------------------------------------------------------------

template <typename Report>
std::string phase_fields(const Report& r) {
  std::ostringstream os;
  os << " setup=" << r.costs.setup_invocations
     << " grover=" << r.costs.grover_iterations
     << " checks=" << r.costs.candidate_evaluations
     << " distinct=" << r.distinct_branch_evaluations
     << " ref_bfs=" << r.reference_bfs_runs
     << " node_q=" << r.per_node_memory_qubits
     << " leader_q=" << r.leader_memory_qubits
     << " failed=" << r.subroutine_failed << " reason=" << r.failure_reason;
  return os.str();
}

std::string fields(const QuantumDiameterReport& r) {
  std::ostringstream os;
  os << "diameter=" << r.diameter << " leader=" << r.leader
     << " ecc_leader=" << r.ecc_leader << " total=" << r.total_rounds
     << " init=" << r.init_rounds << " t_setup=" << r.t_setup
     << " t_eval=" << r.t_eval_forward
     << " exhausted=" << r.budget_exhausted << phase_fields(r);
  return os.str();
}

std::string fields(const RadiusReport& r) {
  std::ostringstream os;
  os << "radius=" << r.radius << " center=" << r.center
     << " leader=" << r.leader << " total=" << r.total_rounds
     << " init=" << r.init_rounds << " t_setup=" << r.t_setup
     << " t_eval=" << r.t_eval_forward
     << " exhausted=" << r.budget_exhausted << phase_fields(r);
  return os.str();
}

std::string fields(const DecisionReport& r) {
  std::ostringstream os;
  os << "exceeds=" << r.diameter_exceeds << " witness=" << r.witness
     << " threshold=" << r.threshold << " total=" << r.total_rounds
     << " init=" << r.init_rounds << " t_setup=" << r.t_setup
     << " t_eval=" << r.t_eval_forward << phase_fields(r);
  return os.str();
}

std::string fields(const QuantumApproxReport& r) {
  std::ostringstream os;
  os << "estimate=" << r.estimate << " aborted=" << r.aborted
     << " s=" << r.s_used << " w=" << r.w << " total=" << r.total_rounds
     << " prep=" << r.prep_rounds << " quantum=" << r.quantum_rounds
     << phase_fields(r);
  return os.str();
}

QuantumConfig golden_config() {
  QuantumConfig cfg;
  cfg.seed = 5;
  cfg.branch_threads = 2;
  return cfg;
}

TEST(FrontEndReports, GoldenFields) {
  const auto g = random_graph(40, 6, 4);  // D = 6, ecc(leader) = 4
  const auto cfg = golden_config();

  EXPECT_EQ(fields(quantum_diameter_simple(g, cfg)),
            "diameter=6 leader=39 ecc_leader=4 total=37565 init=20 "
            "t_setup=5 t_eval=15 exhausted=0 setup=319 grover=445 "
            "checks=320 distinct=40 ref_bfs=40 node_q=38 leader_q=80 "
            "failed=0 reason=");
  EXPECT_EQ(fields(quantum_diameter_exact(g, cfg)),
            "diameter=6 leader=39 ecc_leader=4 total=87055 init=20 "
            "t_setup=5 t_eval=55 exhausted=0 setup=269 grover=308 "
            "checks=270 distinct=40 ref_bfs=40 node_q=38 leader_q=74 "
            "failed=0 reason=");
  EXPECT_EQ(fields(quantum_radius(g, cfg)),
            "radius=3 center=3 leader=39 total=38470 init=20 t_setup=5 "
            "t_eval=15 exhausted=0 setup=346 grover=450 checks=348 "
            "distinct=40 ref_bfs=40 node_q=38 leader_q=80 failed=0 reason=");

  // Thresholds 5 (below D) and 6 (at D) run the quantum search; 3 exits
  // early on d > k and 8 on 2d <= k.
  EXPECT_EQ(fields(quantum_diameter_decide(g, 5, cfg)),
            "exceeds=1 witness=4 threshold=5 total=2110 init=20 t_setup=5 "
            "t_eval=55 setup=8 grover=7 checks=8 distinct=40 ref_bfs=40 "
            "node_q=38 leader_q=44 failed=0 reason=");
  EXPECT_EQ(fields(quantum_diameter_decide(g, 6, cfg)),
            "exceeds=0 witness=4294967295 threshold=6 total=38870 init=20 "
            "t_setup=5 t_eval=55 setup=107 grover=141 checks=107 "
            "distinct=40 ref_bfs=40 node_q=38 leader_q=44 failed=0 reason=");
  EXPECT_EQ(fields(quantum_diameter_decide(g, 3, cfg)),
            "exceeds=1 witness=39 threshold=3 total=20 init=20 t_setup=5 "
            "t_eval=0 setup=0 grover=0 checks=0 distinct=0 ref_bfs=0 "
            "node_q=0 leader_q=0 failed=0 reason=");
  EXPECT_EQ(fields(quantum_diameter_decide(g, 8, cfg)),
            "exceeds=0 witness=4294967295 threshold=8 total=20 init=20 "
            "t_setup=5 t_eval=0 setup=0 grover=0 checks=0 distinct=0 "
            "ref_bfs=0 node_q=0 leader_q=0 failed=0 reason=");

  EXPECT_EQ(fields(quantum_diameter_approx(random_graph(48, 8, 31), cfg, 6)),
            "estimate=8 aborted=0 s=6 w=46 total=33980 prep=284 "
            "quantum=33696 setup=203 grover=151 checks=203 distinct=6 "
            "ref_bfs=48 node_q=38 leader_q=62 failed=0 reason=");
  EXPECT_EQ(fields(quantum_diameter_approx(random_graph(30, 6, 37), cfg, 1)),
            "estimate=6 aborted=0 s=1 w=29 total=230 prep=230 quantum=0 "
            "setup=0 grover=0 checks=0 distinct=0 ref_bfs=0 node_q=0 "
            "leader_q=0 failed=0 reason=");
}

TEST(FrontEndReports, GoldenSubroutineFailure) {
  // On a 16-node path the classical preliminaries fit in 10 bits per edge
  // but the Figure 2 waves need 12: kEnforce throws inside the branch
  // simulation, and the report carries the failure instead. (The radius
  // oracle's one-node windows still fit.) The first failing branch in
  // branch order names the reason, whatever the thread count.
  const auto g = graph::make_path(16);
  auto cfg = golden_config();
  cfg.net.bandwidth_bits = 10;
  cfg.net.policy = congest::BandwidthPolicy::kEnforce;
  for (const std::uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    cfg.branch_threads = threads;
    EXPECT_EQ(fields(quantum_diameter_exact(g, cfg)),
              "diameter=0 leader=15 ecc_leader=15 total=0 init=63 t_setup=15 "
              "t_eval=198 exhausted=0 setup=0 grover=0 checks=0 distinct=0 "
              "ref_bfs=16 node_q=0 leader_q=0 failed=1 reason=bandwidth "
              "violation: 12 bits on edge 0->1 in round 92 (bw=10)");
    EXPECT_EQ(fields(quantum_radius(g, cfg)),
              "radius=8 center=7 leader=15 total=63663 init=63 t_setup=15 "
              "t_eval=48 exhausted=0 setup=232 grover=220 checks=235 "
              "distinct=16 ref_bfs=16 node_q=28 leader_q=48 failed=0 reason=");
    EXPECT_EQ(fields(quantum_diameter_decide(g, 20, cfg)),
              "exceeds=0 witness=4294967295 threshold=20 total=0 init=63 "
              "t_setup=15 t_eval=198 setup=0 grover=0 checks=0 distinct=0 "
              "ref_bfs=16 node_q=0 leader_q=0 failed=1 reason=bandwidth "
              "violation: 12 bits on edge 0->1 in round 92 (bw=10)");
  }
}

// The core.* part of a capture: counters as name[label]=value, spans in id
// order as name<parent>:rounds/messages/bits.
std::string core_capture(const metrics::MetricsRegistry& reg) {
  std::ostringstream jsonl;
  reg.write_jsonl(jsonl);
  std::istringstream lines(jsonl.str());
  std::ostringstream os;
  const std::string counter = "{\"type\":\"counter\",\"name\":\"";
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(counter + "core.", 0) != 0) continue;
    const std::string rest = line.substr(counter.size());
    const auto label = rest.find("\"label\":\"") + 9;
    const auto value = rest.find("\"value\":") + 8;
    os << rest.substr(0, rest.find('"')) << "["
       << rest.substr(label, rest.find('"', label) - label) << "]="
       << rest.substr(value, rest.size() - value - 1) << "\n";
  }
  const auto spans = reg.spans();
  for (const auto& s : spans) {
    if (s.name.rfind("core.", 0) != 0) continue;
    const std::string parent =
        s.parent == 0 ? "" : spans.at(s.parent - 1).name;
    os << s.name << "<" << parent << ">:" << s.rounds << "/" << s.messages
       << "/" << s.bits << "\n";
  }
  return os.str();
}

TEST(FrontEndReports, GoldenMetricsCapture) {
  const auto g = random_graph(40, 6, 4);
  auto cfg = golden_config();
  cfg.branch_threads = 1;  // one thread keeps the span tree deterministic
  cfg.oracle = OracleMode::kDirect;

  metrics::MetricsRegistry reg;
  metrics::set_global(&reg);
  quantum_diameter_simple(g, cfg);
  quantum_diameter_exact(g, cfg);
  quantum_radius(g, cfg);
  quantum_diameter_decide(g, 5, cfg);
  quantum_diameter_approx(g, cfg, 4);
  metrics::set_global(nullptr);
  EXPECT_EQ(core_capture(reg), R"(core.branch_evaluations[]=164
core.candidate_evaluations[quantum_diameter_approx]=138
core.candidate_evaluations[quantum_diameter_decide]=8
core.candidate_evaluations[quantum_diameter_exact]=270
core.candidate_evaluations[quantum_diameter_simple]=320
core.candidate_evaluations[quantum_radius]=348
core.distinct_branch_evaluations[quantum_diameter_approx]=4
core.distinct_branch_evaluations[quantum_diameter_decide]=40
core.distinct_branch_evaluations[quantum_diameter_exact]=40
core.distinct_branch_evaluations[quantum_diameter_simple]=40
core.distinct_branch_evaluations[quantum_radius]=40
core.grover_iterations[quantum_diameter_approx]=97
core.grover_iterations[quantum_diameter_decide]=7
core.grover_iterations[quantum_diameter_exact]=308
core.grover_iterations[quantum_diameter_simple]=445
core.grover_iterations[quantum_radius]=450
core.reference_bfs_runs[quantum_diameter_approx]=40
core.reference_bfs_runs[quantum_diameter_decide]=40
core.reference_bfs_runs[quantum_diameter_exact]=40
core.reference_bfs_runs[quantum_diameter_simple]=40
core.reference_bfs_runs[quantum_radius]=40
core.setup_invocations[quantum_diameter_approx]=138
core.setup_invocations[quantum_diameter_decide]=8
core.setup_invocations[quantum_diameter_exact]=269
core.setup_invocations[quantum_diameter_simple]=319
core.setup_invocations[quantum_radius]=346
core.quantum_diameter_simple<>:37565/0/0
core.init<core.quantum_diameter_simple>:20/481/3453
core.oracle_build<core.quantum_diameter_simple>:0/0/0
core.quantum_phase<core.quantum_diameter_simple>:37545/0/0
core.branch_simulate<core.quantum_phase>:15/137/646
core.quantum_diameter_exact<>:87055/0/0
core.init<core.quantum_diameter_exact>:20/481/3453
core.oracle_build<core.quantum_diameter_exact>:0/0/0
core.quantum_phase<core.quantum_diameter_exact>:87035/0/0
core.branch_simulate<core.quantum_phase>:55/691/5927
core.quantum_radius<>:38470/0/0
core.init<core.quantum_radius>:20/481/3453
core.oracle_build<core.quantum_radius>:0/0/0
core.quantum_phase<core.quantum_radius>:38450/0/0
core.branch_simulate<core.quantum_phase>:15/137/646
core.quantum_diameter_decide<>:2110/0/0
core.init<core.quantum_diameter_decide>:20/481/3453
core.oracle_build<core.quantum_diameter_decide>:0/0/0
core.quantum_phase<core.quantum_diameter_decide>:2090/0/0
core.branch_simulate<core.quantum_phase>:55/691/5927
core.quantum_diameter_approx<>:24179/0/0
core.oracle_build<core.quantum_diameter_approx>:0/0/0
core.quantum_phase<core.quantum_diameter_approx>:23890/0/0
core.branch_simulate<core.quantum_phase>:41/460/3573
)");
}

}  // namespace
}  // namespace qc::core
