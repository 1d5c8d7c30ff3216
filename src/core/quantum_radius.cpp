#include "core/quantum_radius.hpp"

#include "core/detail.hpp"
#include "util/metrics.hpp"

namespace qc::core {

RadiusReport quantum_radius(const graph::Graph& g, const QuantumConfig& cfg) {
  metrics::ScopedTimer span("core.quantum_radius");
  RadiusReport rep;
  if (g.n() <= 1) {
    rep.radius = 0;
    rep.center = g.n() == 1 ? 0 : graph::kInvalidNode;
    return rep;
  }

  detail::InitPhase init = detail::run_initialization(g, cfg.net);
  rep.leader = init.leader;
  rep.init_rounds = init.rounds;
  rep.t_setup = init.t_setup;

  // steps = 0: the window is {u}, so the oracle returns ecc(u) exactly
  // (the Section 3.1 objective), and minimum finding has P_opt >= 1/n.
  const auto answer = detail::run_quantum_phase(
      g, cfg,
      {.algo = "quantum_radius",
       .tree = &init.tree,
       .t_init = init.rounds,
       .t_setup = init.t_setup,
       .epsilon = 1.0 / static_cast<double>(g.n()),
       .goal = detail::PhaseGoal::kMinimize,
       .seed = cfg.seed ^ 0x5ad105ULL},
      rep);
  rep.radius = static_cast<std::uint32_t>(answer.value);
  rep.center = static_cast<graph::NodeId>(answer.arg);
  rep.total_rounds = answer.total_rounds;
  span.add(rep.total_rounds, 0, 0);
  return rep;
}

}  // namespace qc::core
