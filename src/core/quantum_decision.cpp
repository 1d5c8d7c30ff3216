#include "core/quantum_decision.hpp"

#include <algorithm>

#include "core/detail.hpp"
#include "util/metrics.hpp"

namespace qc::core {

DecisionReport quantum_diameter_decide(const graph::Graph& g,
                                       std::uint32_t threshold,
                                       const QuantumConfig& cfg) {
  metrics::ScopedTimer span("core.quantum_diameter_decide");
  DecisionReport rep;
  rep.threshold = threshold;
  if (g.n() <= 1) {
    rep.diameter_exceeds = false;
    return rep;
  }

  detail::InitPhase init = detail::run_initialization(g, cfg.net);
  rep.init_rounds = init.rounds;
  rep.t_setup = init.t_setup;

  // Cheap exits the classical preliminaries already settle: d <= D <= 2d.
  if (init.d > threshold) {
    rep.diameter_exceeds = true;
    rep.witness = init.leader;
    rep.total_rounds = init.rounds;
    return rep;
  }
  if (2 * init.d <= threshold) {
    rep.diameter_exceeds = false;
    rep.total_rounds = init.rounds;
    return rep;
  }

  // If D > threshold, Lemma 1 marks at least the windows covering a
  // peripheral vertex: P_M >= d/2n.
  const auto answer = detail::run_quantum_phase(
      g, cfg,
      {.algo = "quantum_diameter_decide",
       .tree = &init.tree,
       .steps = 2 * init.d,
       .t_init = init.rounds,
       .t_setup = init.t_setup,
       .epsilon = std::min(1.0, init.d / (2.0 * static_cast<double>(g.n()))),
       .goal = detail::PhaseGoal::kExceeds,
       .threshold = threshold,
       .seed = cfg.seed ^ 0xdec1deULL},
      rep);
  rep.diameter_exceeds = answer.found;
  rep.witness = answer.found ? static_cast<graph::NodeId>(answer.arg)
                             : graph::kInvalidNode;
  rep.total_rounds = answer.total_rounds;
  span.add(rep.total_rounds, 0, 0);
  return rep;
}

}  // namespace qc::core
