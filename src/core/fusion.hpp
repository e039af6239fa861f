/**
 * @file
 * Resource-aware horizontal kernel fusion (paper §6.1-6.2).
 *
 * Small per-feature preprocessing kernels are fused horizontally —
 * same operator type, no data dependency — into wider kernels that use
 * the GPU efficiently and amortise launch overhead. The fusion plan is
 * found by solving the Eq. 1-4 MILP over the preprocessing DAG.
 */

#ifndef RAP_CORE_FUSION_HPP
#define RAP_CORE_FUSION_HPP

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/latency_predictor.hpp"
#include "milp/problem.hpp"
#include "milp/solver.hpp"
#include "preproc/cost_model.hpp"
#include "preproc/graph.hpp"

namespace rap::core {

/**
 * One (possibly fused) preprocessing kernel ready for scheduling.
 */
struct FusedKernel
{
    preproc::OpType type = preproc::OpType::FillNull;
    /** Graph node ids fused into this kernel. */
    std::vector<int> nodeIds;
    /** Workload shapes of the members (aligned with nodeIds). */
    std::vector<preproc::OpShape> memberShapes;
    /** Combined workload shape. */
    preproc::OpShape shape;
    /** MILP time step (launch order key). */
    int step = 0;
    /** Standalone latency predicted by the latency predictor. */
    Seconds predictedLatency = 0.0;
    /** Simulator kernel (exclusive latency + resource demand). */
    sim::KernelDesc kernel;
    /** Host-to-device staging volume before launch. */
    Bytes inputBytes = 0.0;
    /** Host-side data-preparation CPU time before launch. */
    Seconds prepCpuSeconds = 0.0;

    int width() const { return static_cast<int>(nodeIds.size()); }
};

/**
 * Combine member workload shapes into the fused kernel's shape: widths
 * add, list lengths average, the performance parameter takes the max.
 */
preproc::OpShape combineShapes(
    const std::vector<preproc::OpShape> &members);

/** Planner knobs. */
struct FusionOptions
{
    /** When false, every node becomes a singleton kernel (ablation). */
    bool enableFusion = true;
};

/**
 * Builds the horizontal fusion plan for a preprocessing graph.
 */
class HorizontalFusionPlanner
{
  public:
    /**
     * @param spec GPU spec used to characterise fused kernels.
     * @param predictor Optional latency predictor; when null, the cost
     *        model's exact latency is used (an oracle predictor).
     * @param options Planner knobs.
     */
    HorizontalFusionPlanner(sim::GpuSpec spec,
                            const LatencyPredictor *predictor = nullptr,
                            FusionOptions options = {});

    /**
     * Solve the fusion MILP for @p graph at batch size @p rows and
     * materialise the fused kernels, ordered by time step.
     */
    std::vector<FusedKernel> plan(const preproc::PreprocGraph &graph,
                                  std::int64_t rows) const;

    /**
     * Build one fused kernel from an explicit member set (also used by
     * the resource-aware sharder when splitting).
     */
    FusedKernel materialise(preproc::OpType type,
                            std::vector<int> node_ids,
                            std::vector<preproc::OpShape> member_shapes,
                            int step) const;

    /** Convert a preprocessing graph to the MILP instance. */
    static milp::FusionProblem toProblem(
        const preproc::PreprocGraph &graph);

    const sim::GpuSpec &spec() const { return spec_; }
    const LatencyPredictor *predictor() const { return predictor_; }

    /**
     * @return Branch-and-bound nodes explored by every MILP solve this
     *         planner ran (observability). plan() is const, and
     *         bench_fig12_mapping --jobs shares one planner across
     *         concurrent sweep points, so the tally is a relaxed
     *         atomic — additions commute, keeping the total
     *         deterministic.
     */
    std::uint64_t
    milpNodesExplored() const
    {
        return nodesExplored_.load(std::memory_order_relaxed);
    }

  private:
    sim::GpuSpec spec_;
    const LatencyPredictor *predictor_;
    FusionOptions options_;
    mutable std::atomic<std::uint64_t> nodesExplored_{0};
};

} // namespace rap::core

#endif // RAP_CORE_FUSION_HPP
