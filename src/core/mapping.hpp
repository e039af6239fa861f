/**
 * @file
 * Preprocessing-graph mapping across GPUs (paper §3, §7.2).
 *
 * The mapping unit is a work item: one feature's preprocessing chain
 * for one mini-batch. Each item has a fixed consumer — dense features
 * feed the data-parallel MLP of the GPU training that batch; sparse
 * features feed the GPU owning the corresponding embedding table.
 * Three strategies are provided:
 *  - DataParallel: each GPU preprocesses its own batch entirely
 *    (communication for every non-local sparse feature);
 *  - DataLocality: every item runs on its consumer (zero
 *    communication, but imbalanced when table placement is skewed);
 *  - Rap: starts from DataLocality and iteratively moves items from
 *    the costliest GPU to the cheapest, accepting a move only when the
 *    co-running cost model says the balance gain outweighs the added
 *    communication — the joint optimisation of §7.2.
 */

#ifndef RAP_CORE_MAPPING_HPP
#define RAP_CORE_MAPPING_HPP

#include <cstdint>
#include <vector>

#include "core/capacity.hpp"
#include "core/corun_scheduler.hpp"
#include "core/cost_model.hpp"
#include "core/fusion.hpp"
#include "dlrm/sharding.hpp"
#include "preproc/plan.hpp"

namespace rap::core {

/** Mapping strategy selector. */
enum class MappingStrategy {
    DataParallel,
    DataLocality,
    Rap,
};

/** @return Human-readable strategy name. */
std::string mappingStrategyName(MappingStrategy strategy);

/** One mapping unit: a feature chain for one batch. */
struct WorkItem
{
    int featureId = -1;
    /** Batch ordinal == ordinal of the GPU training that batch. */
    int batch = 0;
};

/** Diagnostics of one mapRap search. */
struct MappingSearchStats
{
    /** Item moves applied to the final mapping. */
    int movesAccepted = 0;
    /** Candidate moves priced (accepted or rejected). */
    int movesEvaluated = 0;
    /** Cost-model pricings performed (including the initial sweep). */
    std::uint64_t pricings = 0;
};

/** A complete assignment of work items to GPUs. */
struct GraphMapping
{
    /** Items preprocessed by each GPU. */
    std::vector<std::vector<WorkItem>> itemsPerGpu;
    /** Bytes each GPU ships to remote consumers per iteration. */
    std::vector<Bytes> commOutBytes;

    int gpuCount() const
    {
        return static_cast<int>(itemsPerGpu.size());
    }

    /** @return Total items mapped (all GPUs). */
    std::size_t totalItems() const;
};

/**
 * A mapping with each GPU's co-run schedule for it: what mapRap
 * returns, and what one offline planning step produces.
 */
struct MappingResult
{
    GraphMapping mapping;
    std::vector<CoRunSchedule> schedules;
    MappingSearchStats stats;
};

/**
 * Builds and optimises graph mappings for a preprocessing plan.
 *
 * The constructor tabulates every feature's chain once (node ids in
 * the plan's topological order, output bytes, unfused latency); the
 * mapper holds a reference to @p plan, so the plan must outlive the
 * mapper and must not change after the mapper is built.
 */
class GraphMapper
{
  public:
    /**
     * @param plan The preprocessing plan (schema + DAG); kept by
     *        reference and tabulated once, see the class comment.
     * @param sharding Embedding-table placement (sparse consumers).
     * @param cluster_spec Node description (GPU count, NVLink).
     * @param rows Per-GPU batch size.
     */
    GraphMapper(const preproc::PreprocPlan &plan,
                const dlrm::EmbeddingSharding &sharding,
                sim::ClusterSpec cluster_spec, std::int64_t rows);

    /** Build the static strategies (DataParallel / DataLocality). */
    GraphMapping map(MappingStrategy strategy) const;

    /**
     * The RAP joint search: refine DataLocality using the co-running
     * cost model over @p profiles, accepting at most 64 item moves.
     *
     * @param profiles Per-GPU capacity profiles.
     * @param planner Fusion planner used to price each GPU's graph.
     * @return The mapping, each GPU's co-run schedule from its last
     *         accepted pricing (the initial sweep or a committed
     *         move), i.e. planner.plan → CoRunScheduler::schedule of
     *         the returned mapping, and the search diagnostics.
     */
    MappingResult mapRap(const std::vector<CapacityProfile> &profiles,
                         const HorizontalFusionPlanner &planner) const;

    /**
     * Materialise the preprocessing graph a GPU executes under a
     * mapping: one chain copy per assigned item. Cross-feature Ngram
     * dependencies to features processed elsewhere are dropped (those
     * inputs are read raw), a documented simplification.
     */
    preproc::PreprocGraph buildGpuGraph(const GraphMapping &mapping,
                                        int gpu) const;

    /**
     * @return The GPU consuming @p item's output; must not be called
     *         for features of row-wise-parallel tables (use
     *         consumers()).
     */
    int consumer(const WorkItem &item) const;

    /**
     * @return All GPUs consuming @p item's output: the batch's GPU for
     *         dense features, the owner for sharded tables, and every
     *         GPU for row-wise-parallel tables (§7.2's duplication
     *         case).
     */
    std::vector<int> consumers(const WorkItem &item) const;

    /**
     * @return Per GPU, one entry per transfer it must make to a remote
     *         consumer lacking its own copy under @p mapping (the
     *         per-feature messages the execution pipeline ships).
     */
    std::vector<std::vector<Bytes>> remoteMessageSizes(
        const GraphMapping &mapping) const;

    /**
     * @return Ids of @p feature_id's nodes in the plan graph, in its
     *         topological order (PreprocGraph::featureNodes, tabulated).
     */
    const std::vector<int> &featureChain(int feature_id) const;

    /** @return Output bytes of @p feature_id's chain for one batch. */
    Bytes featureOutputBytes(int feature_id) const;

    /**
     * @return Raw-column bytes staged host-to-device once per batch
     *         before @p feature_id's chain can run.
     */
    Bytes featureRawBytes(int feature_id) const;

    /** @return Unfused standalone GPU latency of the feature's chain. */
    Seconds featureChainLatency(int feature_id) const;

    int gpuCount() const { return clusterSpec_.gpuCount; }

  private:
    /** One feature's chain, tabulated by the constructor. */
    struct Chain
    {
        std::vector<int> nodes;
        Bytes outputBytes = 0.0;
        Seconds latency = 0.0;
    };

    const Chain &chain(int feature_id) const;

    GraphMapping makeMapping(
        std::vector<std::vector<WorkItem>> items) const;

    const preproc::PreprocPlan &plan_;
    const dlrm::EmbeddingSharding &sharding_;
    sim::ClusterSpec clusterSpec_;
    std::int64_t rows_;
    /** Indexed by feature id; features without nodes stay empty. */
    std::vector<Chain> chains_;
};

} // namespace rap::core

#endif // RAP_CORE_MAPPING_HPP
