#pragma once

#include <cstdint>

#include "core/quantum_diameter.hpp"
#include "graph/graph.hpp"

namespace qc::core {

/// Report of the Theorem 4 / Figure 3 quantum 3/2-approximation.
/// The shared quantum-phase fields stay zero when |R| = 1 (no quantum
/// phase runs); a subroutine failure leaves `estimate` resting on the
/// classical phase only.
struct QuantumApproxReport : QuantumPhaseReport {
  std::uint32_t estimate = 0;  ///< D-bar with D-bar <= D <= 3*D-bar/2 whp
  bool aborted = false;        ///< the |S| cap fired (resample to retry)
  std::uint32_t s_used = 0;    ///< the parameter s (= Theta(n^{2/3} D^{-1/3}))
  graph::NodeId w = graph::kInvalidNode;

  std::uint64_t total_rounds = 0;
  std::uint64_t prep_rounds = 0;     ///< classical preparation (Figure 3 top)
  std::uint64_t quantum_rounds = 0;  ///< the quantum optimization phase
};

/// Theorem 4: the quantum 3/2-approximation of Figure 3. The preparation
/// phase is the classical [HPRW14] Steps 1-3 (polynomial classical memory,
/// O~(n/s + D) rounds); the second phase computes the maximum eccentricity
/// over R by distributed quantum optimization restricted to R
/// (polylog quantum memory, O~(sqrt(s*D) + D) rounds). With
/// s = Theta(n^{2/3} / D^{1/3}) the total is O~(cbrt(n*D) + D).
///
/// `s_override` forces a specific s (0 = choose the optimum from the
/// measured d = ecc(leader)).
QuantumApproxReport quantum_diameter_approx(const graph::Graph& g,
                                            const QuantumConfig& cfg = {},
                                            std::uint32_t s_override = 0);

}  // namespace qc::core
