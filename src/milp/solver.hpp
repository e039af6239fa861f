/**
 * @file
 * Solvers for the horizontal-fusion MILP.
 *
 * Two backends stand in for the paper's Gurobi call:
 *  - an exact depth-first branch-and-bound over time-step assignments
 *    with an admissible join-the-biggest-group bound, used for small
 *    instances (and to certify the heuristic in tests);
 *  - a level heuristic, used for large instances — mirroring
 *    Gurobi-with-a-time-limit behaviour. Local search (whole-group
 *    moves, then single-op relocation, over a flat per-(type, step)
 *    count table) runs from the ASAP seed, which aligns the identical
 *    per-feature chains common in real plans, and again from the ALAP
 *    seed; the ALAP result wins only when strictly better.
 *
 * FusionSolver::solve picks a backend by instance size; the exact
 * backend under an exhausted node budget returns its best-found
 * assignment, never worse than the heuristic that seeds it.
 */

#ifndef RAP_MILP_SOLVER_HPP
#define RAP_MILP_SOLVER_HPP

#include "milp/problem.hpp"

namespace rap::milp {

/** Solver tuning knobs. */
struct SolverOptions
{
    /** Max op count for the exact branch-and-bound backend. */
    std::size_t exactLimit = 18;
    /** Branch-and-bound node budget (falls back to best-found). */
    std::uint64_t maxNodes = 3'000'000;
    /** Local-search sweeps for the heuristic backend. */
    int localSearchRounds = 40;
};

/**
 * Facade over the exact and heuristic fusion solvers.
 */
class FusionSolver
{
  public:
    explicit FusionSolver(SolverOptions options = {});

    /** Solve with the backend appropriate for the instance size. */
    FusionSolution solve(const FusionProblem &problem) const;

    /** Exact branch-and-bound (exponential; small instances only). */
    FusionSolution solveExact(const FusionProblem &problem) const;

    /** ASAP/ALAP-seeded heuristic plus relocation local search. */
    FusionSolution solveHeuristic(const FusionProblem &problem) const;

    const SolverOptions &options() const { return options_; }

  private:
    SolverOptions options_;
};

} // namespace rap::milp

#endif // RAP_MILP_SOLVER_HPP
