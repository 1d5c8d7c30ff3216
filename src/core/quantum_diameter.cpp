#include "core/quantum_diameter.hpp"

#include <algorithm>

#include "core/detail.hpp"
#include "util/metrics.hpp"

namespace qc::core {

namespace {

QuantumDiameterReport run_diameter_optimization(const graph::Graph& g,
                                                const QuantumConfig& cfg,
                                                bool windowed) {
  metrics::ScopedTimer span(windowed ? "core.quantum_diameter_exact"
                                     : "core.quantum_diameter_simple");
  QuantumDiameterReport rep;
  if (g.n() <= 1) {
    rep.diameter = 0;
    rep.leader = g.n() == 1 ? 0 : graph::kInvalidNode;
    return rep;
  }

  detail::InitPhase init = detail::run_initialization(g, cfg.net);
  rep.leader = init.leader;
  rep.ecc_leader = init.d;
  rep.init_rounds = init.rounds;
  rep.t_setup = init.t_setup;

  // Section 3.1 takes S(u) = {u} (f = ecc), Section 3.2 takes windows of
  // width 2d; Lemma 1 gives P_opt >= d/2n for the latter, the trivial
  // bound P_opt >= 1/n for the former.
  const double n = static_cast<double>(g.n());
  const auto answer = detail::run_quantum_phase(
      g, cfg,
      {.algo = windowed ? "quantum_diameter_exact" : "quantum_diameter_simple",
       .tree = &init.tree,
       .steps = windowed ? 2 * init.d : 0,
       .t_init = init.rounds,
       .t_setup = init.t_setup,
       .epsilon = windowed ? std::min(1.0, init.d / (2.0 * n)) : 1.0 / n,
       .seed = cfg.seed},
      rep);
  rep.diameter = static_cast<std::uint32_t>(answer.value);
  rep.total_rounds = answer.total_rounds;
  span.add(rep.total_rounds, 0, 0);
  return rep;
}

}  // namespace

QuantumDiameterReport quantum_diameter_simple(const graph::Graph& g,
                                              const QuantumConfig& cfg) {
  return run_diameter_optimization(g, cfg, /*windowed=*/false);
}

QuantumDiameterReport quantum_diameter_exact(const graph::Graph& g,
                                             const QuantumConfig& cfg) {
  return run_diameter_optimization(g, cfg, /*windowed=*/true);
}

}  // namespace qc::core
