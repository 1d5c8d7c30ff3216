#pragma once

// Internal building blocks shared by the four quantum front-ends: the
// classical initialization phase of Section 3, the Figure 2 branch oracle,
// and the one quantum phase (Section 2.4) every front-end runs on it. Not
// part of the public API surface.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "algos/evaluation.hpp"
#include "algos/tree_state.hpp"
#include "congest/network.hpp"
#include "core/quantum_diameter.hpp"
#include "graph/algorithms.hpp"
#include "graph/ecc_engine.hpp"
#include "graph/graph.hpp"

namespace qc::core::detail {

/// The classical preliminaries of Section 3: elect a leader, build
/// BFS(leader) with distances (Proposition 1), learn d = ecc(leader), and
/// broadcast d so every node can compute the Figure 2 schedule lengths.
/// Also measures the Proposition 2 Setup cost with one instrumentation
/// broadcast (not charged).
struct InitPhase {
  graph::NodeId leader = graph::kInvalidNode;
  std::uint32_t d = 0;
  algos::TreeState tree;
  std::uint32_t rounds = 0;
  std::uint32_t t_setup = 0;
};

InitPhase run_initialization(const graph::Graph& g,
                             const congest::NetworkConfig& net);

/// The branch oracle for f(u) = max_{v in segment window of u} ecc(v),
/// with the two evaluation modes of OracleMode. Cross-checks the
/// distributed Figure 2 execution against the centralized reference (on
/// every branch in kSimulate mode, at least once in kDirect mode).
///
/// The centralized reference is served by a shared graph::EccEngine — one
/// BFS per vertex for the whole oracle lifetime plus an O(1) sparse-table
/// segment query per branch — instead of the naive Theta(d) BFS per
/// branch. Only the reference path changed: the distributed Figure 2
/// simulation, its round accounting, and the kSimulate cross-check are
/// untouched and stay bit-identical.
///
/// operator() is safe to call from several threads at once, so a
/// core::BranchEvaluator can fan branches across workers. Each call takes
/// an idle Network over the shared read-only graph from the oracle's pool
/// (building one only when every pooled Network is busy), resets it with
/// init_programs for its branch and returns it afterwards — so the oracle
/// builds one Network per concurrent branch worker instead of one per
/// branch.
class WindowOracle {
 public:
  /// `num_threads` fans the engine's one-time eccentricity sweep across
  /// that many workers (0 = hardware concurrency); results are identical
  /// at any value.
  WindowOracle(const graph::Graph& g, const algos::TreeState& tree,
               std::uint32_t steps, OracleMode mode,
               congest::NetworkConfig net, std::vector<bool> mask = {},
               std::uint32_t num_threads = 1);

  std::uint32_t t_eval_forward() const { return t_eval_forward_; }

  /// BFS runs of the centralized reference path (<= n by construction).
  std::uint64_t reference_bfs_runs() const { return engine_.bfs_runs(); }

  /// f(u0), per the configured mode.
  std::int64_t operator()(std::size_t u0);

 private:
  const graph::Graph* g_;
  const algos::TreeState* tree_;
  std::uint32_t steps_;
  OracleMode mode_;
  congest::NetworkConfig net_;
  std::vector<bool> mask_;
  graph::DfsNumbering num_;
  graph::EccEngine engine_;
  graph::EccEngine::SegmentMax seg_max_;
  std::uint32_t t_eval_forward_ = 0;
  std::atomic<bool> validated_once_{false};
  std::mutex idle_mu_;
  std::vector<std::unique_ptr<congest::Network>> idle_;  ///< guarded by idle_mu_
};

/// What the quantum phase does with the window oracle
/// f(u) = max_{v in S(u)} ecc(v).
enum class PhaseGoal {
  kMaximize,  ///< Theorem 7 maximum finding over f (diameter, approx)
  kMinimize,  ///< Theorem 7 over -f (radius)
  kExceeds,   ///< Theorem 6 search for a u with f(u) > threshold (decide)
};

/// One front-end's quantum phase: where the oracle's windows walk, the
/// measured subroutine costs, and the goal.
struct PhaseSpec {
  const char* algo = "";  ///< label of the core.* cost counters
  const algos::TreeState* tree = nullptr;  ///< the tree the windows walk
  std::uint32_t steps = 0;  ///< window width; 0 = S(u) = {u}
  /// Restricts the windows and the Setup superposition to the marked
  /// nodes (Figure 3's R); empty = every node.
  std::vector<bool> mask = {};
  std::uint32_t t_init = 0;
  std::uint32_t t_setup = 0;
  double epsilon = 0;  ///< the P_opt / P_M bound
  PhaseGoal goal = PhaseGoal::kMaximize;
  std::uint32_t threshold = 0;  ///< kExceeds only
  std::uint64_t seed = 0;       ///< drives the quantum sampling
};

/// The answer of a quantum phase. All zero when the subroutine failed.
struct PhaseAnswer {
  std::int64_t value = 0;  ///< the optimum of f (kMaximize, kMinimize)
  std::size_t arg = 0;     ///< where it is attained, or the search witness
  bool found = false;      ///< kExceeds: some f(u) exceeds the threshold
  std::uint64_t total_rounds = 0;  ///< t_init plus the quantum phase
};

/// The quantum phase shared by every front-end: builds the WindowOracle
/// over (tree, steps, mask), runs distributed_quantum_optimize or
/// distributed_quantum_search with the measured costs under the
/// core.quantum_phase span, tags the core.* cost counters with
/// `spec.algo`, and fills the report's shared fields. Branches fan out
/// over QuantumConfig::branch_threads workers, one when an observer is
/// armed (concurrent branches would interleave its event stream).
PhaseAnswer run_quantum_phase(const graph::Graph& g, const QuantumConfig& cfg,
                              const PhaseSpec& spec, QuantumPhaseReport& rep);

}  // namespace qc::core::detail
