#include "core/checkpoint.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"

namespace rap::core {

Json
CheckpointManifest::toJson() const
{
    Json json = Json::object();
    json.set("jobId", Json(jobId));
    json.set("sequence", Json(sequence));
    json.set("fraction", Json(fraction));
    json.set("sealedAt", Json(sealedAt));
    json.set("segment", Json(segment));
    return json;
}

namespace {

constexpr double kBytesPerParam = 4.0; // fp32

} // namespace

Bytes
checkpointBytesPerGpu(const dlrm::DlrmConfig &model,
                      const dlrm::EmbeddingSharding &sharding, int gpu)
{
    RAP_ASSERT(gpu >= 0 && gpu < sharding.gpuCount(),
               "checkpoint bytes queried for GPU ", gpu, " of ",
               sharding.gpuCount());
    double rows = 0.0;
    for (std::size_t t = 0; t < sharding.tableCount(); ++t) {
        const auto hash_size =
            static_cast<double>(model.schema.sparse(t).hashSize);
        if (sharding.isRowWise(t)) {
            rows += hash_size / sharding.gpuCount();
        } else if (sharding.owner(t) == gpu) {
            rows += hash_size;
        }
    }
    Bytes bytes = rows * model.embeddingDim * kBytesPerParam;
    // The MLPs are replicated; one GPU drains the single copy kept.
    if (gpu == 0)
        bytes += model.mlpParameterCount() * kBytesPerParam;
    return bytes;
}

Seconds
predictCheckpointCost(const sim::ClusterSpec &cluster,
                      const dlrm::DlrmConfig &model,
                      const dlrm::EmbeddingSharding &sharding)
{
    Bytes worst = 0.0;
    for (int g = 0; g < sharding.gpuCount(); ++g)
        worst = std::max(worst,
                         checkpointBytesPerGpu(model, sharding, g));
    return worst / cluster.pcieBandwidth + cluster.pcieLatency;
}

Seconds
youngDalyInterval(Seconds checkpoint_cost, Seconds mtbf)
{
    RAP_ASSERT(mtbf > 0.0, "Young-Daly needs a positive MTBF");
    return std::sqrt(2.0 * std::max(checkpoint_cost, 0.0) * mtbf);
}

RecoveryOutcome
composeRecovery(Seconds iter_seconds, Seconds checkpoint_cost,
                Seconds restore_cost, Seconds restart_overhead,
                long long iterations, long long interval,
                const std::vector<Seconds> &crash_times)
{
    RAP_ASSERT(iter_seconds > 0.0,
               "recovery composition needs a positive iteration time");
    RAP_ASSERT(iterations >= 1,
               "recovery composition needs at least one iteration");
    RAP_ASSERT(interval >= 0, "checkpoint interval must be >= 0");
    RAP_ASSERT(std::is_sorted(crash_times.begin(), crash_times.end()),
               "crash times must be sorted");

    RecoveryOutcome out;
    Seconds wall = 0.0;  // now; everything before is durable or lost
    long long durable = 0; // iterations protected by a checkpoint
    std::size_t ci = 0;

    while (durable < iterations) {
        // Plan the next durability unit: run to the next checkpoint
        // (or job end) — its iterations are volatile until the
        // checkpoint that seals them completes.
        const long long target =
            interval > 0 ? std::min(durable + interval, iterations)
                         : iterations;
        const bool seals = interval > 0 && target < iterations;
        const Seconds seg_end = wall +
                                (target - durable) * iter_seconds +
                                (seals ? checkpoint_cost : 0.0);

        if (ci < crash_times.size() && crash_times[ci] < seg_end) {
            // Crash mid-segment: progress since `wall` is discarded.
            Seconds at = crash_times[ci++];
            out.lostWork += at - wall;
            out.lostBatches += std::min(
                target - durable,
                static_cast<long long>((at - wall) / iter_seconds));
            ++out.recoveries;
            // Recover: restart the process, then restore the last
            // checkpoint if one exists (a job that never sealed one
            // starts over from iteration zero).
            const Seconds recovery =
                restart_overhead + (durable > 0 ? restore_cost : 0.0);
            Seconds rec_end = at + recovery;
            while (ci < crash_times.size() &&
                   crash_times[ci] < rec_end) {
                // Crash during recovery: start recovering again.
                const Seconds again = crash_times[ci++];
                out.lostWork += again - at;
                out.recoveryWindows.emplace_back(at, again);
                ++out.recoveries;
                at = again;
                rec_end = at + recovery;
            }
            out.recoveryWindows.emplace_back(at, rec_end);
            wall = rec_end;
            continue; // replay the segment from `durable`
        }

        wall = seg_end;
        durable = target;
        if (seals) {
            ++out.checkpoints;
            out.checkpointOverhead += checkpoint_cost;
        }
    }
    out.completion = wall;
    return out;
}

} // namespace rap::core
