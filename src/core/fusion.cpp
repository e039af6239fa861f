#include "core/fusion.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace rap::core {

preproc::OpShape
combineShapes(const std::vector<preproc::OpShape> &members)
{
    RAP_ASSERT(!members.empty(), "cannot combine zero shapes");
    preproc::OpShape combined;
    combined.rows = members.front().rows;
    combined.width = 0;
    combined.avgListLength = 0.0;
    combined.param = 0.0;
    for (const auto &m : members) {
        RAP_ASSERT(m.rows == combined.rows,
                   "fused members must share the batch size");
        combined.width += m.width;
        combined.avgListLength +=
            m.avgListLength * static_cast<double>(m.width);
        combined.param = std::max(combined.param, m.param);
    }
    combined.avgListLength /= static_cast<double>(combined.width);
    return combined;
}

HorizontalFusionPlanner::HorizontalFusionPlanner(
    sim::GpuSpec spec, const LatencyPredictor *predictor,
    FusionOptions options)
    : spec_(std::move(spec)), predictor_(predictor),
      options_(std::move(options))
{
}

milp::FusionProblem
HorizontalFusionPlanner::toProblem(const preproc::PreprocGraph &graph)
{
    milp::FusionProblem problem;
    problem.type.reserve(graph.nodeCount());
    for (const auto &node : graph.nodes())
        problem.type.push_back(static_cast<int>(node.type));
    for (const auto &node : graph.nodes()) {
        for (int dep : node.deps)
            problem.deps.emplace_back(node.id, dep);
    }
    return problem;
}

FusedKernel
HorizontalFusionPlanner::materialise(
    preproc::OpType type, std::vector<int> node_ids,
    std::vector<preproc::OpShape> member_shapes, int step) const
{
    RAP_ASSERT(node_ids.size() == member_shapes.size(),
               "node/shape arity mismatch");
    FusedKernel fused;
    fused.type = type;
    fused.nodeIds = std::move(node_ids);
    fused.memberShapes = std::move(member_shapes);
    fused.shape = combineShapes(fused.memberShapes);
    fused.step = step;
    fused.kernel = preproc::makeOpKernel(type, fused.shape, spec_);
    fused.predictedLatency =
        predictor_ ? predictor_->predict(type, fused.shape)
                   : fused.kernel.exclusiveLatency;
    fused.inputBytes = preproc::opInputBytes(type, fused.shape);
    fused.prepCpuSeconds = preproc::opPrepCpuSeconds(type, fused.shape);
    return fused;
}

std::vector<FusedKernel>
HorizontalFusionPlanner::plan(const preproc::PreprocGraph &graph,
                              std::int64_t rows) const
{
    std::vector<FusedKernel> kernels;
    if (graph.nodeCount() == 0)
        return kernels;

    const auto &schema = graph.schema();

    if (!options_.enableFusion) {
        // Ablation: singleton kernels in topological order.
        int step = 0;
        for (int id : graph.topoOrder()) {
            const auto &node = graph.node(id);
            kernels.push_back(materialise(
                node.type, {id},
                {preproc::nodeShape(node, schema, rows)}, step++));
        }
        return kernels;
    }

    auto problem = toProblem(graph);
    milp::FusionSolver solver;
    const auto solution = solver.solve(problem);
    nodesExplored_.fetch_add(solution.nodesExplored,
                             std::memory_order_relaxed);

    // Launch order: groups() sorts by time step, then type.
    const auto groups = solution.groups(problem);

    kernels.reserve(groups.size());
    for (const auto &group : groups) {
        std::vector<preproc::OpShape> shapes;
        shapes.reserve(group.size());
        for (int id : group)
            shapes.push_back(
                preproc::nodeShape(graph.node(id), schema, rows));
        kernels.push_back(materialise(
            graph.node(group.front()).type, group, std::move(shapes),
            solution.step[static_cast<std::size_t>(group.front())]));
    }
    return kernels;
}

} // namespace rap::core
