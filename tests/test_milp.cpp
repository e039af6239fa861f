/**
 * @file
 * Tests for the horizontal-fusion MILP (Eq. 1-4) and its solvers.
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "milp/solver.hpp"

namespace rap::milp {
namespace {

/** k independent chains of length len; type = position in chain. */
FusionProblem
parallelChains(int k, int len)
{
    FusionProblem problem;
    for (int c = 0; c < k; ++c) {
        for (int i = 0; i < len; ++i) {
            problem.type.push_back(i);
            const int id = c * len + i;
            if (i > 0)
                problem.deps.emplace_back(id, id - 1);
        }
    }
    return problem;
}

TEST(FusionProblem, AsapLevelsFollowChains)
{
    const auto problem = parallelChains(2, 3);
    const auto levels = problem.asapLevels();
    EXPECT_EQ(levels, (std::vector<int>{0, 1, 2, 0, 1, 2}));
}

TEST(FusionProblemDeath, CycleDetected)
{
    FusionProblem problem;
    problem.type = {0, 0};
    problem.deps = {{0, 1}, {1, 0}};
    EXPECT_DEATH(problem.validate(), "cyclic");
}

TEST(FusionProblem, ObjectiveCountsSquares)
{
    const auto problem = parallelChains(3, 1); // 3 ops, same type
    EXPECT_DOUBLE_EQ(fusionObjective(problem, {0, 0, 0}), 9.0);
    EXPECT_DOUBLE_EQ(fusionObjective(problem, {0, 0, 1}), 5.0);
    EXPECT_DOUBLE_EQ(fusionObjective(problem, {0, 1, 2}), 3.0);
}

TEST(FusionProblem, FeasibilityChecksDeps)
{
    FusionProblem problem;
    problem.type = {0, 0};
    problem.deps = {{1, 0}};
    EXPECT_TRUE(isFeasible(problem, {0, 1}));
    EXPECT_FALSE(isFeasible(problem, {0, 0}));
    EXPECT_FALSE(isFeasible(problem, {1, 0}));
    EXPECT_FALSE(isFeasible(problem, {0}));
    EXPECT_FALSE(isFeasible(problem, {-1, 0}));
}

TEST(ExactSolver, AlignsParallelChains)
{
    const auto problem = parallelChains(4, 3);
    FusionSolver solver;
    const auto solution = solver.solveExact(problem);
    EXPECT_TRUE(solution.optimal);
    // Optimal: each chain position fuses across all 4 chains:
    // 3 groups of 4 -> objective 3 * 16 = 48.
    EXPECT_DOUBLE_EQ(solution.objective, 48.0);
}

TEST(ExactSolver, HandlesConflictingOrders)
{
    // Chain A: type0 -> type1. Chain B: type1 -> type0. Only one of
    // the two types can fuse (paper's FirstX/SigridHash conflict).
    FusionProblem problem;
    problem.type = {0, 1, 1, 0};
    problem.deps = {{1, 0}, {3, 2}};
    FusionSolver solver;
    const auto solution = solver.solveExact(problem);
    EXPECT_TRUE(solution.optimal);
    // Best: fuse one type (2^2) + two singletons = 6.
    EXPECT_DOUBLE_EQ(solution.objective, 6.0);
}

TEST(ExactSolver, SingleOp)
{
    FusionProblem problem;
    problem.type = {5};
    FusionSolver solver;
    const auto solution = solver.solveExact(problem);
    EXPECT_DOUBLE_EQ(solution.objective, 1.0);
    EXPECT_TRUE(solution.optimal);
}

TEST(ExactSolver, EmptyProblem)
{
    FusionProblem problem;
    FusionSolver solver;
    const auto solution = solver.solve(problem);
    EXPECT_TRUE(solution.optimal);
    EXPECT_DOUBLE_EQ(solution.objective, 0.0);
}

TEST(HeuristicSolver, FeasibleAndAtLeastAsapQuality)
{
    const auto problem = parallelChains(10, 4);
    FusionSolver solver;
    const auto solution = solver.solveHeuristic(problem);
    EXPECT_TRUE(isFeasible(problem, solution.step));
    // ASAP alignment is already optimal here: 4 groups of 10.
    EXPECT_DOUBLE_EQ(solution.objective, 400.0);
}

TEST(HeuristicSolver, LocalSearchImprovesStaggeredChains)
{
    // Two chains with different lengths of the same type: ASAP aligns
    // them partially; local search must keep feasibility.
    FusionProblem problem;
    // Chain A: t0 t0 t0 (ids 0,1,2); chain B: t0 t0 (ids 3,4).
    problem.type = {0, 0, 0, 0, 0};
    problem.deps = {{1, 0}, {2, 1}, {4, 3}};
    FusionSolver solver;
    const auto solution = solver.solveHeuristic(problem);
    EXPECT_TRUE(isFeasible(problem, solution.step));
    // Best possible: two groups of 2 plus singleton = 9.
    EXPECT_GE(solution.objective, 9.0);
}

TEST(HeuristicSolver, AlapRestartEscapesAsapStall)
{
    // Op 0 feeds ops 4 and 5; ops 1-3 are free. ASAP puts {0,1,2,3} at
    // step 0 and {4,5} at step 1 (objective 20), and no group or
    // single-op move improves it. ALAP moves the free ops next to 4
    // and 5, reaching the exact optimum 1 + 5^2 = 26.
    FusionProblem problem;
    problem.type = {0, 0, 0, 0, 0, 0};
    problem.deps = {{4, 0}, {5, 0}};
    EXPECT_DOUBLE_EQ(fusionObjective(problem, problem.asapLevels()),
                     20.0);
    FusionSolver solver;
    const auto solution = solver.solveHeuristic(problem);
    EXPECT_TRUE(isFeasible(problem, solution.step));
    EXPECT_DOUBLE_EQ(solution.objective, 26.0);
    EXPECT_DOUBLE_EQ(solver.solveExact(problem).objective, 26.0);
}

/** Property: heuristic matches exact optimum on small random DAGs. */
class SolverAgreementTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SolverAgreementTest, HeuristicNearExact)
{
    Rng rng(GetParam());
    FusionProblem problem;
    const int n = static_cast<int>(rng.uniformInt(4, 10));
    for (int i = 0; i < n; ++i) {
        problem.type.push_back(static_cast<int>(rng.uniformInt(0, 2)));
        // Random back-edges with ~30% density.
        for (int j = 0; j < i; ++j) {
            if (rng.bernoulli(0.3 / (1.0 + 0.2 * i)))
                problem.deps.emplace_back(i, j);
        }
    }
    FusionSolver solver;
    const auto exact = solver.solveExact(problem);
    const auto heuristic = solver.solveHeuristic(problem);
    EXPECT_TRUE(isFeasible(problem, exact.step));
    EXPECT_TRUE(isFeasible(problem, heuristic.step));
    if (exact.optimal) {
        // An exact optimum bounds the heuristic from above and the
        // heuristic must land reasonably close on these dense DAGs.
        EXPECT_LE(heuristic.objective, exact.objective + 1e-9);
        EXPECT_GE(heuristic.objective, 0.7 * exact.objective);
    }
}

INSTANTIATE_TEST_SUITE_P(RandomDags, SolverAgreementTest,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(Solver, AutoPicksBackendBySize)
{
    FusionSolver solver;
    const auto small = parallelChains(3, 3); // 9 ops -> exact
    EXPECT_TRUE(solver.solve(small).optimal);
    const auto large = parallelChains(30, 4); // 120 ops -> heuristic
    const auto solution = solver.solve(large);
    EXPECT_FALSE(solution.optimal);
    EXPECT_TRUE(isFeasible(large, solution.step));
}

TEST(Solver, GroupsPartitionOps)
{
    const auto problem = parallelChains(5, 2);
    FusionSolver solver;
    const auto solution = solver.solve(problem);
    const auto groups = solution.groups(problem);
    std::vector<bool> seen(problem.size(), false);
    for (const auto &group : groups) {
        ASSERT_FALSE(group.empty());
        const int type =
            problem.type[static_cast<std::size_t>(group.front())];
        const int step =
            solution.step[static_cast<std::size_t>(group.front())];
        for (int op : group) {
            EXPECT_FALSE(seen[static_cast<std::size_t>(op)]);
            seen[static_cast<std::size_t>(op)] = true;
            EXPECT_EQ(problem.type[static_cast<std::size_t>(op)], type);
            EXPECT_EQ(solution.step[static_cast<std::size_t>(op)],
                      step);
        }
    }
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST(Solver, NodeBudgetFallsBackGracefully)
{
    SolverOptions options;
    options.maxNodes = 50; // absurdly small
    options.exactLimit = 100;
    FusionSolver solver(options);
    const auto problem = parallelChains(6, 3);
    const auto solution = solver.solve(problem);
    EXPECT_TRUE(isFeasible(problem, solution.step));
    EXPECT_GT(solution.objective, 0.0);
    // The budget-exhausted exact solve is already the best known.
    const auto exact = solver.solveExact(problem);
    EXPECT_FALSE(exact.optimal);
    EXPECT_EQ(solution.step, exact.step);
    EXPECT_DOUBLE_EQ(solution.objective, exact.objective);
}

TEST(Solver, ObjectiveNeverBelowNoFusionBaseline)
{
    // Any feasible solution scores at least N (all singletons).
    Rng rng(99);
    for (int trial = 0; trial < 10; ++trial) {
        FusionProblem problem;
        const int n = static_cast<int>(rng.uniformInt(5, 40));
        for (int i = 0; i < n; ++i) {
            problem.type.push_back(
                static_cast<int>(rng.uniformInt(0, 4)));
            if (i > 0 && rng.bernoulli(0.4)) {
                problem.deps.emplace_back(
                    i, static_cast<int>(rng.uniformInt(0, i - 1)));
            }
        }
        FusionSolver solver;
        const auto solution = solver.solve(problem);
        EXPECT_GE(solution.objective, static_cast<double>(n));
    }
}

} // namespace
} // namespace rap::milp
