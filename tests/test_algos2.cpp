// Deeper distributed-algorithm behaviors: aggregation primitives across
// shapes, source-detection edge cases, HPRW preparation internals, and
// per-program memory discipline measured live.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "algos/apsp_census.hpp"
#include "algos/bfs_tree.hpp"
#include "algos/diameter_classical.hpp"
#include "algos/evaluation.hpp"
#include "algos/hprw.hpp"
#include "algos/leader_election.hpp"
#include "algos/source_detection.hpp"
#include "congest/trace.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "util/bits.hpp"
#include "util/stats.hpp"
#include "util/rng.hpp"

namespace qc::algos {
namespace {

using graph::Graph;
using graph::NodeId;

Graph random_graph(std::uint32_t n, std::uint32_t d, std::uint64_t seed) {
  Rng rng(seed);
  return graph::make_random_with_diameter(n, d, rng);
}

// ---------------------------------------------------------------------------
// Aggregation primitives across tree shapes.
// ---------------------------------------------------------------------------

class AggregationShapes : public ::testing::TestWithParam<int> {
 protected:
  Graph make() const {
    switch (GetParam()) {
      case 0: return graph::make_path(25);          // deep chain
      case 1: return graph::make_star(25);          // flat star
      case 2: return graph::make_balanced_tree(31, 2);
      case 3: return graph::make_complete(12);      // height-1 tree
      default: return random_graph(30, 6, 500 + GetParam());
    }
  }
};

TEST_P(AggregationShapes, MinMaxSumAllCorrect) {
  auto g = make();
  auto tree = build_bfs_tree(g, 0).tree;
  std::vector<std::uint64_t> vals(g.n()), ids(g.n()), zero(g.n(), 0);
  std::uint64_t expect_min = ~0ULL, expect_max = 0, expect_sum = 0;
  for (NodeId v = 0; v < g.n(); ++v) {
    vals[v] = (v * 997 + 13) % 32;
    ids[v] = v;
    expect_min = std::min(expect_min, vals[v]);
    expect_max = std::max(expect_max, vals[v]);
    expect_sum += vals[v];
  }
  // Stay within the O(log n) bandwidth: 10-bit sums + 6-bit ids <= 16.
  const std::uint32_t bits = 10;
  EXPECT_EQ(aggregate_to_root(g, tree, AggregateOp::kMax, vals, ids, bits, 6)
                .primary,
            expect_max);
  EXPECT_EQ(aggregate_to_root(g, tree, AggregateOp::kMin, vals, ids, bits, 6)
                .primary,
            expect_min);
  EXPECT_EQ(aggregate_to_root(g, tree, AggregateOp::kSum, vals, zero, bits,
                              1)
                .primary,
            expect_sum);
}

TEST_P(AggregationShapes, ArgminPicksSmallestIdOnTies) {
  auto g = make();
  auto tree = build_bfs_tree(g, 0).tree;
  std::vector<std::uint64_t> vals(g.n(), 7), ids(g.n());
  for (NodeId v = 0; v < g.n(); ++v) ids[v] = v;
  auto out = aggregate_to_root(g, tree, AggregateOp::kMin, vals, ids, 8, 8);
  EXPECT_EQ(out.primary, 7u);
  EXPECT_EQ(out.secondary, 0u);
}

INSTANTIATE_TEST_SUITE_P(Shapes, AggregationShapes,
                         ::testing::Range(0, 7));

TEST(Broadcast, ValueSurvivesDeepTrees) {
  auto g = graph::make_path(80);
  auto tree = build_bfs_tree(g, 0).tree;
  auto out = broadcast_from_root(g, tree, 0xABCDE, 20);
  EXPECT_EQ(out.status, PhaseStatus::kQuiesced);
  EXPECT_GE(out.stats.rounds, 79u);
  EXPECT_LE(out.stats.rounds, 82u);
}

TEST(Broadcast, NonTreeNeighborsIgnoreCopies) {
  // On a complete graph the flood sends n-1 messages per node but each
  // node accepts only its parent's copy; the broadcast must still be
  // exactly one level deep.
  auto g = graph::make_complete(10);
  auto tree = build_bfs_tree(g, 3).tree;
  auto out = broadcast_from_root(g, tree, 5, 8);
  EXPECT_LE(out.stats.rounds, 3u);
}

// ---------------------------------------------------------------------------
// Source detection edge cases.
// ---------------------------------------------------------------------------

TEST(SourceDetection, AllNodesAsSources) {
  auto g = random_graph(25, 5, 601);
  std::vector<bool> everyone(g.n(), true);
  auto out = detect_sources(g, everyone);
  auto dist = graph::apsp(g);
  for (NodeId v = 0; v < g.n(); ++v) {
    for (NodeId s = 0; s < g.n(); ++s) {
      EXPECT_EQ(out.distances[v].at(s), dist[s][v]);
    }
  }
}

TEST(SourceDetection, FirstHopsAreValidShortestPathBranches) {
  auto g = random_graph(30, 6, 602);
  std::vector<bool> everyone(g.n(), true);
  auto out = detect_sources(g, everyone);
  auto dist = graph::apsp(g);
  for (NodeId v = 0; v < g.n(); ++v) {
    for (NodeId s = 0; s < g.n(); ++s) {
      const NodeId h = out.first_hops[v].at(s);
      if (v == s) {
        EXPECT_EQ(h, s);
        continue;
      }
      // h must be a depth-1 vertex of *some* shortest s->v path: adjacent
      // to s, and d(h, v) = d(s, v) - 1.
      EXPECT_TRUE(g.has_edge(s, h)) << "s=" << s << " v=" << v;
      EXPECT_EQ(dist[h][v] + 1, dist[s][v]) << "s=" << s << " v=" << v;
    }
  }
}

TEST(SourceDetection, StarTopologyWorstCaseFanIn) {
  auto g = graph::make_star(40);
  std::vector<bool> sources(g.n(), false);
  for (NodeId v = 1; v <= 20; ++v) sources[v] = true;  // 20 leaf sources
  auto out = detect_sources(g, sources);
  // The center must learn all 20 sources through 39 independent edges,
  // but each *leaf* learns them serialized through its single edge:
  // O(|S| + D) rounds.
  EXPECT_LE(out.stats.rounds, 20u + 2 + 24);
  for (NodeId v = 0; v < g.n(); ++v) {
    EXPECT_EQ(out.distances[v].size(), 20u);
  }
}

TEST(SourceDetection, MessagesRespectBandwidth) {
  auto g = random_graph(64, 8, 603);
  std::vector<bool> sources(g.n(), false);
  sources[0] = sources[17] = sources[42] = true;
  auto out = detect_sources(g, sources);  // kEnforce would throw otherwise
  EXPECT_EQ(out.stats.violations, 0u);
  EXPECT_LE(out.stats.max_edge_bits, congest_bandwidth_bits(g.n()));
}

// ---------------------------------------------------------------------------
// HPRW preparation internals.
// ---------------------------------------------------------------------------

TEST(HprwPrep, SampleEccentricitiesAreExact) {
  auto g = random_graph(50, 9, 604);
  auto prep = hprw_preparation(g, 5);
  ASSERT_FALSE(prep.aborted);
  std::uint32_t expect = 0;
  for (NodeId s : prep.sample) {
    expect = std::max(expect, graph::eccentricity(g, s));
  }
  EXPECT_EQ(prep.max_ecc_sample, expect);
}

TEST(HprwPrep, LargerSMeansSmallerSample) {
  auto g = random_graph(80, 8, 605);
  congest::NetworkConfig cfg;
  auto small_s = hprw_preparation(g, 2, cfg);
  auto large_s = hprw_preparation(g, 40, cfg);
  ASSERT_FALSE(small_s.aborted);
  ASSERT_FALSE(large_s.aborted);
  EXPECT_GT(small_s.sample.size(), large_s.sample.size());
}

TEST(HprwPrep, RIsExactlySizeS) {
  auto g = random_graph(60, 7, 606);
  for (std::uint32_t s : {1u, 3u, 10u, 60u, 100u}) {
    auto prep = hprw_preparation(g, s);
    ASSERT_FALSE(prep.aborted);
    EXPECT_EQ(prep.r_size, std::min(s, g.n())) << "s=" << s;
  }
}

// ---------------------------------------------------------------------------
// Memory discipline, measured live.
// ---------------------------------------------------------------------------

TEST(MemoryDiscipline, Figure12ProgramsStayLogarithmic) {
  // The max memory_bits across all nodes of the O(log n)-state programs
  // must not grow with n beyond a log factor.
  std::vector<double> ns, mems;
  for (std::uint32_t n : {32u, 128u, 512u}) {
    auto g = random_graph(n, 8, 607 + n);
    auto tree_out = build_bfs_tree(g, 0);
    auto eval = evaluate_window_ecc(g, tree_out.tree, 1,
                                    2 * tree_out.tree.height);
    ns.push_back(n);
    mems.push_back(static_cast<double>(
        std::max(tree_out.stats.max_node_memory_bits,
                 eval.stats.max_node_memory_bits)));
  }
  const auto fit = fit_power_law(ns, mems);
  EXPECT_LT(fit.slope, 0.3) << "per-node memory grows polynomially!";
}

TEST(MemoryDiscipline, SourceDetectionIsDeliberatelyPolynomial) {
  std::vector<double> ns, mems;
  for (std::uint32_t n : {24u, 48u, 96u}) {
    auto g = random_graph(n, 6, 608 + n);
    std::vector<bool> everyone(g.n(), true);
    auto out = detect_sources(g, everyone);
    ns.push_back(n);
    mems.push_back(static_cast<double>(out.stats.max_node_memory_bits));
  }
  const auto fit = fit_power_law(ns, mems);
  EXPECT_GT(fit.slope, 0.7) << "the census memory should scale ~n";
}

// ---------------------------------------------------------------------------
// Figure 2 executions pinned at fixed seeds: the delivered-message stream,
// every node's final state and every RunStats field. Any change to when or
// how the Evaluation program runs must reproduce these exactly, under both
// in-process engines.
// ---------------------------------------------------------------------------

/// FNV-1a over 64-bit words.
struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
};

/// One Figure 2 run on a caller-owned Network, summarized: the trace digest
/// over (round, from, to, bits) of every delivery, a digest of every node's
/// (tau', dv), the root's result and every RunStats field.
std::string figure2_pin(const Graph& g, NodeId u0, std::uint32_t steps,
                        congest::NetworkConfig cfg,
                        const std::vector<bool>* mask = nullptr) {
  const auto tree = build_bfs_tree(g, 0).tree;
  congest::TraceRecorder recorder;
  congest::Network net(g, recorder.arm(std::move(cfg)));
  const auto out = evaluate_window_ecc(net, tree, u0, steps, mask);
  Fnv trace, nodes;
  for (const auto& e : recorder.events()) {
    trace.add(e.round);
    trace.add(e.from);
    trace.add(e.to);
    trace.add(e.bits);
  }
  for (NodeId v = 0; v < g.n(); ++v) {
    const auto& prog = net.program_as<EvaluationProgram>(v);
    nodes.add(static_cast<std::uint64_t>(prog.tau_prime()));
    nodes.add(prog.dv());
  }
  const auto& root = net.program_as<EvaluationProgram>(tree.root);
  const auto& s = out.stats;
  std::ostringstream os;
  os << std::hex << "trace=" << trace.h << " nodes=" << nodes.h << std::dec
     << " events=" << recorder.events().size() << " window="
     << out.window.size() << " result=" << root.has_result() << ":"
     << root.result() << " rounds=" << s.rounds << " messages=" << s.messages
     << " bits=" << s.bits << " max_edge=" << s.max_edge_bits
     << " violations=" << s.violations << " quiesced=" << s.quiesced
     << " memory=" << s.max_node_memory_bits
     << " dropped=" << s.messages_dropped
     << " corrupted=" << s.messages_corrupted
     << " crashed=" << s.crashed_node_rounds;
  return os.str();
}

/// figure2_pin under the sequential engine, checked equal under the
/// parallel engine on 3 threads.
std::string figure2_pin_both(const Graph& g, NodeId u0, std::uint32_t steps,
                             congest::NetworkConfig cfg = {},
                             const std::vector<bool>* mask = nullptr) {
  cfg.engine = congest::Engine::kSequential;
  const std::string seq = figure2_pin(g, u0, steps, cfg, mask);
  cfg.engine = congest::Engine::kParallel;
  cfg.num_threads = 3;
  EXPECT_EQ(figure2_pin(g, u0, steps, cfg, mask), seq);
  return seq;
}

std::uint32_t tour_steps(const Graph& g) {
  return 2 * build_bfs_tree(g, 0).tree.height;
}

TEST(Figure2Pins, PathDiamGridAndMaskedWindow) {
  const auto path = graph::make_path(12);
  EXPECT_EQ(figure2_pin_both(path, 3, tour_steps(path)),
            "trace=9a7809dc0e9f9649 nodes=fef306a32b2c0b9b events=360 "
            "window=12 result=1:11 rounds=146 messages=360 bits=3798 "
            "max_edge=12 violations=0 quiesced=0 memory=50 dropped=0 "
            "corrupted=0 crashed=0");
  const auto diam = graph::make_from_spec("diam:128:10");
  EXPECT_EQ(figure2_pin_both(diam, 5, tour_steps(diam)),
            "trace=b11776568f9689a9 nodes=b2e557b53344a5ce events=4427 "
            "window=13 result=1:10 rounds=133 messages=4427 bits=46550 "
            "max_edge=11 violations=0 quiesced=0 memory=53 dropped=0 "
            "corrupted=0 crashed=0");
  const auto grid = graph::make_grid(6, 7);
  EXPECT_EQ(figure2_pin_both(grid, 11, tour_steps(grid)),
            "trace=a1c086e5da54c1bb nodes=911b8f5ad780e9ed events=2157 "
            "window=14 result=1:9 rounds=146 messages=2157 bits=25189 "
            "max_edge=12 violations=0 quiesced=0 memory=54 dropped=0 "
            "corrupted=0 crashed=0");
  // Figure 3's variant: the walk is confined to the ball of radius 2
  // around the root (ancestor-closed by construction).
  const auto g = random_graph(30, 6, 11);
  const auto tree = build_bfs_tree(g, 0).tree;
  std::vector<bool> keep(g.n());
  for (NodeId v = 0; v < g.n(); ++v) keep[v] = tree.depth[v] <= 2;
  EXPECT_EQ(figure2_pin_both(g, tree.root, 6, {}, &keep),
            "trace=894070ff5b0711e7 nodes=4915c9b208091efe events=454 "
            "window=5 result=1:6 rounds=51 messages=454 bits=3462 "
            "max_edge=9 violations=0 quiesced=0 memory=40 dropped=0 "
            "corrupted=0 crashed=0");
}

TEST(Figure2Pins, TruncatedBandwidthAndFaultPlan) {
  const auto g = graph::make_from_spec("diam:64:8");
  congest::NetworkConfig narrow;
  narrow.bandwidth_bits = 7;
  narrow.policy = congest::BandwidthPolicy::kTruncate;
  EXPECT_EQ(figure2_pin_both(g, 9, tour_steps(g), narrow),
            "trace=174e5d2ed5e132bd nodes=812b570e38eb75cc events=1919 "
            "window=11 result=1:4 rounds=107 messages=1919 bits=13022 "
            "max_edge=7 violations=1753 quiesced=0 memory=51 dropped=0 "
            "corrupted=0 crashed=0");
  congest::NetworkConfig faulty;
  faulty.fault.drop_probability = 0.01;
  faulty.fault.seed = 7;
  faulty.fault.crashes.push_back({20, 30, 60});
  EXPECT_EQ(figure2_pin_both(g, 9, tour_steps(g), faulty),
            "trace=ac671ed11de8a159 nodes=d1d118eee1d15c0a events=1647 "
            "window=10 result=1:6 rounds=107 messages=1647 bits=17153 "
            "max_edge=11 violations=0 quiesced=0 memory=51 dropped=24 "
            "corrupted=0 crashed=30");
}

// ---------------------------------------------------------------------------
// Cross-checks among the baselines.
// ---------------------------------------------------------------------------

TEST(BaselineConsistency, DiameterFromThreeRoutes) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    auto g = random_graph(36, 8, 609 + seed);
    const auto a = classical_exact_diameter(g).diameter;
    const auto b = classical_apsp_census(g).diameter;
    const auto c = graph::diameter(g);
    EXPECT_EQ(a, c);
    EXPECT_EQ(b, c);
  }
}

TEST(BaselineConsistency, CensusEccVsEvaluationFullTour) {
  auto g = random_graph(30, 6, 612);
  auto census = classical_apsp_census(g);
  auto tree = build_bfs_tree(g, 0).tree;
  auto eval = evaluate_window_ecc(g, tree, 0, 2 * (g.n() - 1));
  const auto max_ecc =
      *std::max_element(census.eccentricity.begin(),
                        census.eccentricity.end());
  EXPECT_EQ(eval.max_ecc, max_ecc);
}

TEST(LeaderElection, RoundsTrackDiameterNotSize) {
  // Same n, very different D: flood-max cost follows D.
  auto deep = graph::make_path(120);
  auto flat = graph::make_star(120);
  const auto deep_rounds = elect_leader(deep).stats.rounds;
  const auto flat_rounds = elect_leader(flat).stats.rounds;
  EXPECT_GT(deep_rounds, 100u);
  EXPECT_LT(flat_rounds, 8u);
}

}  // namespace
}  // namespace qc::algos
