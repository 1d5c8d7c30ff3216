#pragma once

#include <cstdint>

#include "core/quantum_diameter.hpp"
#include "graph/graph.hpp"

namespace qc::core {

/// Report of a quantum radius/center computation.
struct RadiusReport : QuantumPhaseReport {
  std::uint32_t radius = 0;
  graph::NodeId center = graph::kInvalidNode;
  graph::NodeId leader = graph::kInvalidNode;

  std::uint64_t total_rounds = 0;
  std::uint32_t init_rounds = 0;
  std::uint32_t t_setup = 0;
};

/// Quantum radius (and a center vertex) in O~(sqrt(n) * D) rounds: the
/// Section 3.1 framework run as *minimum* finding (maximize -ecc(u),
/// P_opt >= 1/n).
///
/// This is an extension beyond the paper: the Section 3.2 window trick does
/// not transfer (the maximum of ecc over a window upper-bounds the window's
/// members, which is the wrong direction for a minimum), so the radius
/// stays at the un-windowed O~(sqrt(n) D) cost. Implemented to exercise the
/// framework's generality (Section 2.4 explicitly covers any optimization
/// direction via Durr-Hoyer).
RadiusReport quantum_radius(const graph::Graph& g,
                            const QuantumConfig& cfg = {});

}  // namespace qc::core
