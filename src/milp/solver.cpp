#include "milp/solver.hpp"

#include <algorithm>
#include <numeric>

#include "common/log.hpp"

namespace rap::milp {

namespace {

/**
 * Exact depth-first branch-and-bound.
 *
 * Operations are assigned in topological order, so every dependency of
 * the current op already has a step. Pruning uses an admissible
 * join-the-biggest-group bound; ops of singleton types are assigned
 * greedily (a dominance argument), and candidate steps are explored in
 * descending same-type-count order so good incumbents appear early.
 */
class BranchBound
{
  public:
    BranchBound(const FusionProblem &problem, std::uint64_t max_nodes)
        : p_(problem), maxNodes_(max_nodes)
    {
        const std::size_t n = p_.size();
        horizon_ = static_cast<int>(n);
        deps_of_.resize(n);
        for (const auto &[op, pre] : p_.deps)
            deps_of_[static_cast<std::size_t>(op)].push_back(pre);

        // Topological order via ASAP levels (stable within a level).
        topo_.resize(n);
        std::iota(topo_.begin(), topo_.end(), 0);
        const auto levels = p_.asapLevels();
        std::stable_sort(topo_.begin(), topo_.end(),
                         [&](int a, int b) {
                             return levels[static_cast<std::size_t>(a)] <
                                    levels[static_cast<std::size_t>(b)];
                         });

        typeMultiplicity_.assign(
            static_cast<std::size_t>(p_.typeCount()), 0);
        for (int t : p_.type)
            ++typeMultiplicity_[static_cast<std::size_t>(t)];

        const auto types = static_cast<std::size_t>(p_.typeCount());
        counts_.assign(types, std::vector<int>(
                                  static_cast<std::size_t>(horizon_), 0));
        maxCount_.assign(types, 0);
        remaining_.assign(types, 0);
        for (int t : p_.type)
            ++remaining_[static_cast<std::size_t>(t)];
        assign_.assign(n, -1);
    }

    /**
     * Start the search with an incumbent of @p bound without an
     * assignment. Seeding with (feasible objective - 0.5) is safe:
     * objectives are integral, so every assignment at least as good as
     * the seed still strictly improves it, and pruning against any
     * incumbent below the optimum never removes the optimum's first
     * attainment — the returned assignment is unchanged, only found
     * faster.
     */
    void
    seedIncumbent(double bound)
    {
        best_ = bound;
    }

    FusionSolution
    run()
    {
        dfs(0, 0.0);
        FusionSolution solution;
        // A seeded search that never beat its seed found nothing.
        solution.step = found_ ? bestAssign_ : std::vector<int>{};
        solution.objective = found_ ? best_ : -1.0;
        solution.optimal = !budgetExhausted_;
        solution.nodesExplored = nodes_;
        return solution;
    }

  private:
    /** Candidate steps of the op at topo position @p k, in branch order. */
    std::vector<int>
    candidateStepsAt(std::size_t k) const
    {
        const int op = topo_[k];
        const auto type = static_cast<std::size_t>(
            p_.type[static_cast<std::size_t>(op)]);
        int lo = 0;
        for (int dep : deps_of_[static_cast<std::size_t>(op)])
            lo = std::max(lo,
                          assign_[static_cast<std::size_t>(dep)] + 1);
        // The full horizon must stay reachable: an op may need to jump
        // past currently-unused steps to meet future ops whose levels
        // force them high, so every step in [lo, horizon) is explored.
        const int hi = horizon_ - 1;
        std::vector<int> steps;
        if (lo > hi)
            return steps;

        // Dominance: an op whose type occurs once can never fuse, and
        // placing it at the earliest feasible step is maximally
        // permissive for its successors — no branching needed.
        if (typeMultiplicity_[type] == 1) {
            steps = {lo};
            return steps;
        }
        for (int s = lo; s <= hi; ++s)
            steps.push_back(s);
        // Try steps in descending same-type-count order so the best
        // groups are explored (and the incumbent raised) early.
        std::stable_sort(steps.begin(), steps.end(),
                         [&](int a, int b) {
                             return counts_[type][
                                        static_cast<std::size_t>(a)] >
                                    counts_[type][
                                        static_cast<std::size_t>(b)];
                         });
        return steps;
    }

    double
    upperBound(double current) const
    {
        double bound = current;
        for (std::size_t t = 0; t < remaining_.size(); ++t) {
            const double c = maxCount_[t];
            const double r = remaining_[t];
            bound += 2.0 * c * r + r * r;
        }
        return bound;
    }

    void
    dfs(std::size_t k, double objective)
    {
        if (budgetExhausted_)
            return;
        if (++nodes_ > maxNodes_) {
            budgetExhausted_ = true;
            return;
        }
        if (k == p_.size()) {
            if (objective > best_) {
                best_ = objective;
                bestAssign_ = assign_;
                found_ = true;
            }
            return;
        }
        if (upperBound(objective) <= best_)
            return;

        const int op = topo_[k];
        const auto type = static_cast<std::size_t>(
            p_.type[static_cast<std::size_t>(op)]);
        const std::vector<int> steps = candidateStepsAt(k);
        if (steps.empty())
            return;

        --remaining_[type];
        for (int s : steps) {
            auto &count = counts_[type][static_cast<std::size_t>(s)];
            const double delta = 2.0 * count + 1.0;
            ++count;
            const int prev_max = maxCount_[type];
            maxCount_[type] = std::max(maxCount_[type], count);
            assign_[static_cast<std::size_t>(op)] = s;

            dfs(k + 1, objective + delta);

            assign_[static_cast<std::size_t>(op)] = -1;
            --count;
            maxCount_[type] = prev_max;
            if (budgetExhausted_)
                break;
        }
        ++remaining_[type];
    }

    const FusionProblem &p_;
    std::uint64_t maxNodes_;
    std::uint64_t nodes_ = 0;
    bool budgetExhausted_ = false;
    int horizon_ = 0;
    std::vector<std::vector<int>> deps_of_;
    std::vector<int> topo_;
    std::vector<std::vector<int>> counts_; // [type][step]
    std::vector<int> maxCount_;            // per type
    std::vector<int> remaining_;           // per type
    std::vector<int> typeMultiplicity_;    // per type
    std::vector<int> assign_;
    double best_ = -1.0;
    bool found_ = false;
    std::vector<int> bestAssign_;
};

} // namespace

FusionSolver::FusionSolver(SolverOptions options)
    : options_(options)
{
}

FusionSolution
FusionSolver::solve(const FusionProblem &problem) const
{
    problem.validate();
    if (problem.size() == 0) {
        FusionSolution empty;
        empty.optimal = true;
        return empty;
    }
    // A budget-exhausted exact solve already returns the better of its
    // best-found and the heuristic (see solveExact()).
    if (problem.size() <= options_.exactLimit)
        return solveExact(problem);
    return solveHeuristic(problem);
}

FusionSolution
FusionSolver::solveExact(const FusionProblem &problem) const
{
    problem.validate();
    // Seed the search with the heuristic incumbent (minus 0.5 so
    // equally good assignments still strictly improve it); it prunes
    // early and cannot change the returned assignment (see
    // seedIncumbent()).
    const FusionSolution heuristic = solveHeuristic(problem);
    BranchBound bnb(problem, options_.maxNodes);
    bnb.seedIncumbent(heuristic.objective - 0.5);
    FusionSolution solution = bnb.run();
    if (solution.step.empty() && problem.size() > 0) {
        // Budget exhausted before any assignment beat the seed: the
        // heuristic's assignment is the best known.
        solution.step = heuristic.step;
        solution.objective = heuristic.objective;
        solution.optimal = false;
    }
    RAP_ASSERT(isFeasible(problem, solution.step),
               "exact solver produced an infeasible assignment");
    return solution;
}

FusionSolution
FusionSolver::solveHeuristic(const FusionProblem &problem) const
{
    problem.validate();
    const std::size_t n = problem.size();

    const std::vector<int> asap = problem.asapLevels();
    // Steps beyond the deepest level plus a small slack never help the
    // grouping objective; capping the horizon keeps relocation windows
    // small on large plans.
    int max_level = 0;
    for (int s : asap)
        max_level = std::max(max_level, s);
    const int horizon =
        std::min(static_cast<int>(n), max_level + 8);
    const auto succ = problem.successors();
    std::vector<std::vector<int>> deps_of(n);
    for (const auto &[op, pre] : problem.deps)
        deps_of[static_cast<std::size_t>(op)].push_back(pre);

    // Second restart seed: ALAP levels (chains aligned at their
    // tails), which often escapes the ASAP seed's local optimum.
    std::vector<int> alap(n, max_level);
    {
        // Process in reverse topological order (ids ordered by level).
        std::vector<int> order(n);
        std::iota(order.begin(), order.end(), 0);
        std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
            return asap[static_cast<std::size_t>(a)] >
                   asap[static_cast<std::size_t>(b)];
        });
        for (int i : order) {
            for (int nxt : succ[static_cast<std::size_t>(i)]) {
                alap[static_cast<std::size_t>(i)] = std::min(
                    alap[static_cast<std::size_t>(i)],
                    alap[static_cast<std::size_t>(nxt)] - 1);
            }
        }
    }

    // Per-(type, step) populations in one flat table, for O(1)
    // objective deltas.
    std::vector<int> step;
    std::vector<int> count(static_cast<std::size_t>(problem.typeCount()) *
                           static_cast<std::size_t>(horizon));
    const auto cell = [&](int type, int s) {
        return static_cast<std::size_t>(type) *
                   static_cast<std::size_t>(horizon) +
               static_cast<std::size_t>(s);
    };
    // Narrow [lo, hi] to the steps @p op may move to.
    const auto narrow = [&](std::size_t op, int &lo, int &hi) {
        for (int dep : deps_of[op])
            lo = std::max(lo, step[static_cast<std::size_t>(dep)] + 1);
        for (int nxt : succ[op])
            hi = std::min(hi, step[static_cast<std::size_t>(nxt)] - 1);
    };
    // The first step of [lo, hi] other than @p cur holding the most ops
    // of @p type, and that population (-1 if there is no such step).
    // Both move gains grow strictly with it, so this is the first
    // strictly best target.
    const auto bestStep = [&](int type, int cur, int lo, int hi) {
        std::pair<int, int> best{cur, -1};
        for (int s = lo; s <= hi; ++s) {
            if (s != cur && count[cell(type, s)] > best.second)
                best = {s, count[cell(type, s)]};
        }
        return best;
    };

    // Jointly relocate each whole (type, step) group to another step.
    // Fixes coordination failures single-op moves cannot escape (e.g.
    // merging a pair into another pair). A counting sort over the
    // table buckets the groups at the sweep's start, in ascending
    // (type, step) order with members in index order.
    std::vector<int> start;
    std::vector<int> next;
    std::vector<std::size_t> members(n);
    const auto moveGroups = [&]() {
        start.assign(count.size() + 1, 0);
        for (std::size_t c = 0; c < count.size(); ++c)
            start[c + 1] = start[c] + count[c];
        next.assign(start.begin(), start.end() - 1);
        for (std::size_t i = 0; i < n; ++i)
            members[static_cast<std::size_t>(
                next[cell(problem.type[i], step[i])]++)] = i;
        bool improved = false;
        for (std::size_t c = 0; c < count.size(); ++c) {
            // The bucket's size at the sweep's start: ops an earlier
            // group move brought into this cell stay behind.
            const int size = start[c + 1] - start[c];
            if (size == 0)
                continue;
            const auto first = members.begin() + start[c];
            const int type = static_cast<int>(c) / horizon;
            int lo = 0;
            int hi = horizon - 1;
            for (auto it = first; it != first + size; ++it)
                narrow(*it, lo, hi);
            // Gain (target + size)^2 - target^2 - size^2
            // = 2*target*size.
            const auto [to, target] =
                bestStep(type, static_cast<int>(c) % horizon, lo, hi);
            if (target > 0) {
                count[c] -= size;
                count[cell(type, to)] += size;
                for (auto it = first; it != first + size; ++it)
                    step[*it] = to;
                improved = true;
            }
        }
        return improved;
    };

    // Group moves, then single-op relocation, until a sweep moves
    // nothing or the rounds run out.
    const auto localSearch = [&](std::vector<int> seed) {
        step = std::move(seed);
        std::fill(count.begin(), count.end(), 0);
        for (std::size_t i = 0; i < n; ++i)
            ++count[cell(problem.type[i], step[i])];
        for (int round = 0; round < options_.localSearchRounds; ++round) {
            bool improved = moveGroups();
            for (std::size_t i = 0; i < n; ++i) {
                int lo = 0;
                int hi = horizon - 1;
                narrow(i, lo, hi);
                const int type = problem.type[i];
                const int cur_count = count[cell(type, step[i])];
                // Leaving a group of size c loses 2c-1; joining one of
                // size c' gains 2c'+1: a gain iff c' >= c.
                const auto [to, target] = bestStep(type, step[i], lo, hi);
                if (target >= cur_count) {
                    --count[cell(type, step[i])];
                    ++count[cell(type, to)];
                    step[i] = to;
                    improved = true;
                }
            }
            if (!improved)
                break;
        }
        FusionSolution solution;
        for (int c : count)
            solution.objective += static_cast<double>(c) * c;
        solution.step = std::move(step);
        return solution;
    };

    FusionSolution solution = localSearch(asap);
    // The ALAP restart is kept only when strictly better.
    FusionSolution from_alap = localSearch(std::move(alap));
    if (from_alap.objective > solution.objective)
        solution = std::move(from_alap);
    RAP_ASSERT(isFeasible(problem, solution.step),
               "heuristic solver produced an infeasible assignment");
    return solution;
}

} // namespace rap::milp
