#include "core/mapping.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "common/log.hpp"

namespace rap::core {

namespace {

/** Upper bound on the item moves one mapRap search accepts. */
constexpr int kMaxMoves = 64;

} // namespace

std::string
mappingStrategyName(MappingStrategy strategy)
{
    switch (strategy) {
      case MappingStrategy::DataParallel: return "DP";
      case MappingStrategy::DataLocality: return "DL";
      case MappingStrategy::Rap: return "RAP";
    }
    RAP_PANIC("unknown mapping strategy");
}

std::size_t
GraphMapping::totalItems() const
{
    std::size_t total = 0;
    for (const auto &items : itemsPerGpu)
        total += items.size();
    return total;
}

GraphMapper::GraphMapper(const preproc::PreprocPlan &plan,
                         const dlrm::EmbeddingSharding &sharding,
                         sim::ClusterSpec cluster_spec, std::int64_t rows)
    : plan_(plan), sharding_(sharding),
      clusterSpec_(std::move(cluster_spec)), rows_(rows)
{
    RAP_ASSERT(sharding_.gpuCount() == clusterSpec_.gpuCount,
               "sharding GPU count does not match cluster");
    RAP_ASSERT(rows_ > 0, "batch size must be positive");

    // One topological sort, bucketed by feature: each chain keeps the
    // order featureNodes returns, its latency sums in that order and
    // its output bytes are the tail node's.
    for (int id : plan_.graph.topoOrder()) {
        const auto &node = plan_.graph.node(id);
        RAP_ASSERT(node.featureId >= 0, "node ", id,
                   " has no feature id");
        const auto f = static_cast<std::size_t>(node.featureId);
        if (f >= chains_.size())
            chains_.resize(f + 1);
        auto &chain = chains_[f];
        const auto shape =
            preproc::nodeShape(node, plan_.graph.schema(), rows_);
        chain.nodes.push_back(id);
        chain.latency +=
            preproc::makeOpKernel(node.type, shape, clusterSpec_.gpu)
                .exclusiveLatency;
        chain.outputBytes = preproc::opOutputBytes(node.type, shape);
    }
}

const GraphMapper::Chain &
GraphMapper::chain(int feature_id) const
{
    static const Chain kNoNodes;
    const auto f = static_cast<std::size_t>(feature_id);
    return feature_id >= 0 && f < chains_.size() ? chains_[f] : kNoNodes;
}

const std::vector<int> &
GraphMapper::featureChain(int feature_id) const
{
    return chain(feature_id).nodes;
}

int
GraphMapper::consumer(const WorkItem &item) const
{
    const auto &schema = plan_.graph.schema();
    if (preproc::isSparseFeatureId(schema, item.featureId)) {
        return sharding_.owner(
            preproc::sparseIndexOfFeatureId(schema, item.featureId));
    }
    return item.batch;
}

std::vector<int>
GraphMapper::consumers(const WorkItem &item) const
{
    const auto &schema = plan_.graph.schema();
    if (preproc::isSparseFeatureId(schema, item.featureId)) {
        return sharding_.consumersOf(
            preproc::sparseIndexOfFeatureId(schema, item.featureId));
    }
    return {item.batch};
}

Bytes
GraphMapper::featureOutputBytes(int feature_id) const
{
    return chain(feature_id).outputBytes;
}

Bytes
GraphMapper::featureRawBytes(int feature_id) const
{
    const auto &schema = plan_.graph.schema();
    const double rows = static_cast<double>(rows_);
    if (preproc::isSparseFeatureId(schema, feature_id)) {
        const auto &spec = schema.sparse(
            preproc::sparseIndexOfFeatureId(schema, feature_id));
        return rows * (8.0 * spec.avgListLength + 8.0);
    }
    return rows * 5.0; // fp32 value + validity byte
}

Seconds
GraphMapper::featureChainLatency(int feature_id) const
{
    return chain(feature_id).latency;
}

std::vector<std::vector<Bytes>>
GraphMapper::remoteMessageSizes(const GraphMapping &mapping) const
{
    // A consumer with its own local copy of (feature, batch) needs no
    // transfer — the §7.2 duplication case for row-wise tables.
    std::set<std::tuple<int, int, int>> placed; // (feature, batch, gpu)
    for (std::size_t g = 0; g < mapping.itemsPerGpu.size(); ++g) {
        for (const auto &item : mapping.itemsPerGpu[g]) {
            placed.emplace(item.featureId, item.batch,
                           static_cast<int>(g));
        }
    }
    std::vector<std::vector<Bytes>> messages(
        mapping.itemsPerGpu.size());
    for (std::size_t g = 0; g < mapping.itemsPerGpu.size(); ++g) {
        for (const auto &item : mapping.itemsPerGpu[g]) {
            for (int c : consumers(item)) {
                if (c == static_cast<int>(g))
                    continue;
                if (!placed.count({item.featureId, item.batch, c}))
                    messages[g].push_back(
                        featureOutputBytes(item.featureId));
            }
        }
    }
    return messages;
}

GraphMapping
GraphMapper::makeMapping(std::vector<std::vector<WorkItem>> items) const
{
    GraphMapping mapping;
    mapping.itemsPerGpu = std::move(items);
    mapping.commOutBytes.assign(mapping.itemsPerGpu.size(), 0.0);
    const auto messages = remoteMessageSizes(mapping);
    for (std::size_t g = 0; g < messages.size(); ++g) {
        for (Bytes message : messages[g])
            mapping.commOutBytes[g] += message;
    }
    return mapping;
}

GraphMapping
GraphMapper::map(MappingStrategy strategy) const
{
    const int gpus = clusterSpec_.gpuCount;
    std::vector<std::vector<WorkItem>> items(
        static_cast<std::size_t>(gpus));
    const auto feature_ids = plan_.graph.featureIds();

    switch (strategy) {
      case MappingStrategy::DataParallel:
        // GPU g preprocesses every feature of its own batch.
        for (int g = 0; g < gpus; ++g) {
            for (int f : feature_ids)
                items[static_cast<std::size_t>(g)].push_back(
                    WorkItem{f, g});
        }
        break;
      case MappingStrategy::DataLocality:
      case MappingStrategy::Rap:
        // Every item runs where its output is consumed; a feature
        // with several consumers (row-wise tables) is duplicated on
        // each of them (§7.2).
        for (int f : feature_ids) {
            for (int b = 0; b < gpus; ++b) {
                const WorkItem item{f, b};
                for (int c : consumers(item))
                    items[static_cast<std::size_t>(c)].push_back(item);
            }
        }
        break;
    }
    return makeMapping(std::move(items));
}

preproc::PreprocGraph
GraphMapper::buildGpuGraph(const GraphMapping &mapping, int gpu) const
{
    RAP_ASSERT(gpu >= 0 && gpu < mapping.gpuCount(),
               "gpu ordinal out of range");
    preproc::PreprocGraph graph(plan_.graph.schema());
    for (const auto &item :
         mapping.itemsPerGpu[static_cast<std::size_t>(gpu)]) {
        std::map<int, int> remap; // source node id -> new node id
        for (int id : featureChain(item.featureId)) {
            preproc::OpNode copy = plan_.graph.node(id);
            copy.id = -1;
            std::vector<int> kept_deps;
            for (int dep : copy.deps) {
                auto it = remap.find(dep);
                // Cross-feature deps (Ngram partners processed on
                // another GPU) are dropped: the partner's raw column
                // is read instead.
                if (it != remap.end())
                    kept_deps.push_back(it->second);
            }
            copy.deps = std::move(kept_deps);
            remap[id] = graph.addNode(std::move(copy));
        }
    }
    return graph;
}

MappingResult
GraphMapper::mapRap(const std::vector<CapacityProfile> &profiles,
                    const HorizontalFusionPlanner &planner) const
{
    const int gpus = clusterSpec_.gpuCount;
    RAP_ASSERT(static_cast<int>(profiles.size()) == gpus,
               "need one capacity profile per GPU");

    // Step 1: data-locality-based initial mapping.
    MappingResult result;
    GraphMapping &mapping = result.mapping;
    MappingSearchStats &stats = result.stats;
    mapping = map(MappingStrategy::DataLocality);
    CoRunningCostModel cost_model(clusterSpec_);
    CoRunScheduler scheduler(planner);

    // Step 2: evaluate via the intra-GPU co-running schedule
    // (Algorithm 1) and the cost model. The schedule accounts for
    // leftover-envelope slowdowns that the raw latency sum misses.
    // Each pricing leaves its co-run schedule in `schedule`; the last
    // accepted one per GPU is that GPU's final plan.
    auto price = [&](const GraphMapping &m, int g,
                     CoRunSchedule &schedule) {
        const auto graph = buildGpuGraph(m, g);
        const auto &profile = profiles[static_cast<std::size_t>(g)];
        schedule = scheduler.schedule(planner.plan(graph, rows_), profile);
        const Seconds comm = cost_model.commLatency(
            m.commOutBytes[static_cast<std::size_t>(g)]);
        // Signed slack: effective co-run time (capacity actually
        // consumed plus anything exposed) against the iteration's
        // total capacity.
        return schedule.capacityUsed + schedule.estimatedExposed +
               comm - profile.totalCapacity();
    };

    std::vector<Seconds> delta(static_cast<std::size_t>(gpus));
    auto &priced = result.schedules;
    priced.resize(static_cast<std::size_t>(gpus));
    for (int g = 0; g < gpus; ++g) {
        const auto gi = static_cast<std::size_t>(g);
        delta[gi] = price(mapping, g, priced[gi]);
    }
    stats.pricings += static_cast<std::uint64_t>(gpus);

    // Steps 3-4: move items from the costliest GPU to the cheapest
    // while the worst-case cost improves.
    for (int move = 0; move < kMaxMoves; ++move) {
        const auto src = static_cast<int>(
            std::max_element(delta.begin(), delta.end()) -
            delta.begin());
        const auto dst = static_cast<int>(
            std::min_element(delta.begin(), delta.end()) -
            delta.begin());
        if (src == dst ||
            delta[static_cast<std::size_t>(src)] <= 0.0) {
            break; // nothing exposed anywhere: mapping is good enough
        }

        // Candidate: the assigned item with the largest chain latency
        // (moving it re-balances fastest).
        auto &src_items =
            mapping.itemsPerGpu[static_cast<std::size_t>(src)];
        if (src_items.empty())
            break;
        std::size_t best_idx = 0;
        Seconds best_latency = -1.0;
        for (std::size_t i = 0; i < src_items.size(); ++i) {
            // Duplicated (multi-consumer) items are pinned: each copy
            // is local to its consumer by construction.
            if (consumers(src_items[i]).size() > 1)
                continue;
            const Seconds lat =
                featureChainLatency(src_items[i].featureId);
            if (lat > best_latency) {
                best_latency = lat;
                best_idx = i;
            }
        }
        if (best_latency < 0.0)
            break; // nothing movable on the hot GPU

        // Tentatively apply the move and re-price both GPUs.
        GraphMapping candidate = mapping;
        auto &cand_src =
            candidate.itemsPerGpu[static_cast<std::size_t>(src)];
        const WorkItem item = cand_src[best_idx];
        cand_src.erase(cand_src.begin() +
                       static_cast<std::ptrdiff_t>(best_idx));
        candidate.itemsPerGpu[static_cast<std::size_t>(dst)]
            .push_back(item);
        candidate = makeMapping(std::move(candidate.itemsPerGpu));

        CoRunSchedule src_schedule;
        CoRunSchedule dst_schedule;
        const Seconds src_new = price(candidate, src, src_schedule);
        const Seconds dst_new = price(candidate, dst, dst_schedule);
        ++stats.movesEvaluated;
        stats.pricings += 2;
        const Seconds old_worst =
            std::max(delta[static_cast<std::size_t>(src)],
                     delta[static_cast<std::size_t>(dst)]);
        if (std::max(src_new, dst_new) + 1e-9 < old_worst) {
            ++stats.movesAccepted;
            mapping = std::move(candidate);
            delta[static_cast<std::size_t>(src)] = src_new;
            delta[static_cast<std::size_t>(dst)] = dst_new;
            priced[static_cast<std::size_t>(src)] =
                std::move(src_schedule);
            priced[static_cast<std::size_t>(dst)] =
                std::move(dst_schedule);
        } else {
            break; // no improving substitution found
        }
    }
    return result;
}

} // namespace rap::core
