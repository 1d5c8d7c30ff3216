#include "core/optimizer.hpp"

#include <cmath>

#include "core/branch_evaluator.hpp"
#include "qsim/amplitude_vector.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"

namespace qc::core {

namespace {

using Setup = qsim::AmplitudeVector;

// The one qsim call of each theorem: it fills the report's outcome fields
// and returns the Setup/Grover/check counts the round formula charges.
qsim::SearchCosts sample(const OptimizationProblem& p, const Setup& setup,
                         const std::function<std::int64_t(std::size_t)>& f,
                         Rng& rng, OptimizationReport& rep) {
  const auto m = qsim::quantum_maximize(setup, f, p.epsilon, p.delta, rng);
  rep.argmax = m.argmax;
  rep.value = m.value;
  rep.budget_exhausted = m.budget_exhausted;
  return m.costs;
}

qsim::SearchCosts sample(const SearchProblem& p, const Setup& setup,
                         const qsim::BasisPredicate& marked, Rng& rng,
                         SearchReport& rep) {
  const auto s = qsim::amplitude_amplification_search(setup, marked,
                                                      p.epsilon, p.delta, rng);
  rep.found = s.found;
  rep.witness = s.item;
  return s.costs;
}

// Outcome registers of log|X| qubits the leader keeps until the deferred
// measurements: one per rung of the maximization ladder, O(log(1/epsilon))
// in all (Theorem 7), but a single one for one search (Theorem 6).
std::uint64_t leader_outcomes(const OptimizationProblem& p) {
  return static_cast<std::uint64_t>(std::ceil(std::log2(1.0 / p.epsilon)) +
                                    1);
}

std::uint64_t leader_outcomes(const SearchProblem&) { return 1; }

// The body Theorems 6 and 7 share: preconditions, the Setup state, the
// branch prefetch, the round formula of OptimizationReport::total_rounds
// and the memory model.
template <typename Report, typename Problem, typename Value>
Report solve(const std::string& what, const Problem& p,
             const std::function<Value(std::size_t)>& f, Rng& rng) {
  require(p.domain_size >= 1, what + ": empty domain");
  require(f != nullptr, what + ": no oracle function");
  require(p.epsilon > 0 && p.epsilon <= 1, what + ": epsilon out of range");
  Report rep;
  // Precondition violations above are caller bugs and still throw; a
  // qc::Error from here on comes from the distributed subroutine (branch
  // simulation) and is surfaced in the report instead.
  try {
    const auto setup_state =
        p.support.empty() ? Setup::uniform(p.domain_size)
                          : Setup::over_support(p.domain_size, p.support);

    // The shared memo mirrors the determinism of the Evaluation unitary:
    // the same basis branch always evaluates to the same value, so each
    // branch simulation runs once per distinct x (the *quantum* cost is
    // still charged per oracle application via the counters). Every Grover
    // iterate touches the whole populated support, so the full support is
    // prefetched — fanned across num_threads workers — before the sampling
    // loop consumes any randomness.
    BranchEvaluator<Value> branches(f, p.num_threads);
    if (p.support.empty()) {
      branches.prefetch_all(p.domain_size);
    } else {
      branches.prefetch(p.support);
    }

    const qsim::SearchCosts c = sample(
        p, setup_state, [&branches](std::size_t x) { return branches(x); },
        rng, rep);
    rep.costs = c;
    rep.distinct_evaluations = branches.distinct_evaluations();

    const std::uint64_t t_eval_unitary = 2ULL * p.t_eval_forward;
    rep.total_rounds =
        p.t_init + c.setup_invocations * static_cast<std::uint64_t>(p.t_setup) +
        c.grover_iterations * (2ULL * t_eval_unitary + 2ULL * p.t_setup) +
        c.candidate_evaluations * static_cast<std::uint64_t>(p.t_eval_forward);

    // Theorem 7 memory analysis. |X| <= domain_size; the working counters
    // of Figures 1-2 are a constant number of O(log domain)-bit registers.
    const std::uint64_t x_bits = qc::bit_width_for(p.domain_size);
    rep.per_node_memory_qubits = x_bits + 4ULL * (x_bits + 2);
    rep.leader_memory_qubits =
        rep.per_node_memory_qubits + x_bits * leader_outcomes(p);
  } catch (const qc::Error& e) {
    rep.subroutine_failed = true;
    rep.failure_reason = e.what();
  }
  return rep;
}

}  // namespace

OptimizationReport distributed_quantum_optimize(const OptimizationProblem& p,
                                                Rng& rng) {
  return solve<OptimizationReport>("optimize", p, p.evaluate, rng);
}

SearchReport distributed_quantum_search(const SearchProblem& p, Rng& rng) {
  return solve<SearchReport>("search", p, p.marked, rng);
}

}  // namespace qc::core
