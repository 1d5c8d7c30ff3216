#include "core/quantum_approx.hpp"

#include <algorithm>
#include <cmath>

#include "algos/bfs_tree.hpp"
#include "algos/hprw.hpp"
#include "algos/leader_election.hpp"
#include "core/detail.hpp"
#include "graph/algorithms.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace qc::core {

QuantumApproxReport quantum_diameter_approx(const graph::Graph& g,
                                            const QuantumConfig& cfg,
                                            std::uint32_t s_override) {
  metrics::ScopedTimer span("core.quantum_diameter_approx");
  QuantumApproxReport rep;
  if (g.n() <= 2) {
    rep.estimate = g.n() <= 1 ? 0 : 1;
    rep.s_used = 1;
    return rep;
  }

  congest::RunStats prep_acc;

  // Choosing s needs an estimate of D; use d = ecc(leader) (within a
  // factor 2 of D), obtained with the standard O(D) preliminaries.
  const auto election = algos::elect_leader(g, cfg.net);
  prep_acc += election.stats;
  auto lead_ecc = algos::compute_eccentricity(g, election.leader, cfg.net);
  prep_acc += lead_ecc.stats;
  const std::uint32_t d_leader = std::max(1u, lead_ecc.ecc);

  std::uint32_t s = s_override;
  if (s == 0) {
    const double n = static_cast<double>(g.n());
    s = static_cast<std::uint32_t>(std::ceil(
        std::pow(n, 2.0 / 3.0) / std::cbrt(static_cast<double>(d_leader))));
  }
  s = std::clamp<std::uint32_t>(s, 1, g.n());
  rep.s_used = s;

  // Figure 3 preparation = [HPRW14] Steps 1-3.
  auto prep = algos::hprw_preparation(g, s, cfg.net);
  prep_acc += prep.stats;
  rep.prep_rounds = prep_acc.rounds;
  rep.aborted = prep.aborted;
  if (prep.aborted) {
    rep.total_rounds = rep.prep_rounds;
    return rep;
  }
  rep.w = prep.w;

  // Quantum phase: maximize f over R with DFS windows on BFS(w) restricted
  // to R ("replacing leader by w and mod 2n by mod 2s", Section 4).
  auto subtree =
      graph::induced_subtree(prep.tree_w.to_bfs_tree(), prep.r_mask);
  const std::uint32_t d_sub = subtree.height;  // depth of the R-ball
  check_internal(static_cast<std::size_t>(std::count(
                     prep.r_mask.begin(), prep.r_mask.end(), true)) ==
                     prep.r_size,
                 "quantum_diameter_approx: R size mismatch");

  std::uint32_t quantum_value = 0;
  if (prep.r_size == 1) {
    // R = {w}: its eccentricity is already known from BFS(w).
    quantum_value = prep.ecc_w;
  } else {
    const std::uint32_t id_bits = qc::bit_width_for(g.n()) + 1;
    // Setup distributes u0 over BFS(w); measure its cost (Prop. 2).
    const std::uint32_t t_setup =
        algos::broadcast_from_root(g, prep.tree_w, 0, id_bits, cfg.net)
            .stats.rounds;
    // Announce the window parameter (2d_sub) so nodes know the schedule.
    prep_acc += algos::broadcast_from_root(g, prep.tree_w, d_sub, id_bits,
                                           cfg.net)
                    .stats;
    rep.prep_rounds = prep_acc.rounds;

    // The same Figure 2 oracle as the exact algorithm, restricted to R via
    // the mask (windows walk the DFS numbering of BFS(w) induced on R).
    // Preparation is charged separately in prep_rounds, so t_init = 0.
    const std::uint32_t d_r = std::max(1u, d_sub);
    const auto answer = detail::run_quantum_phase(
        g, cfg,
        {.algo = "quantum_diameter_approx",
         .tree = &prep.tree_w,
         .steps = 2 * d_r,
         .mask = prep.r_mask,
         .t_setup = t_setup,
         .epsilon = std::min(1.0, d_r / (2.0 * prep.r_size)),
         .seed = cfg.seed ^ 0xa99ae5u},
        rep);
    quantum_value = static_cast<std::uint32_t>(answer.value);
    rep.quantum_rounds = answer.total_rounds;
  }

  rep.estimate = std::max({prep.ecc_w, prep.max_ecc_sample, quantum_value});
  rep.total_rounds = rep.prep_rounds + rep.quantum_rounds;
  span.add(rep.total_rounds, 0, 0);
  return rep;
}

}  // namespace qc::core
