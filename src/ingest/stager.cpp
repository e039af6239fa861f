#include "ingest/stager.hpp"

#include <bit>
#include <limits>
#include <utility>

#include "common/log.hpp"

namespace rap::ingest {

namespace {

/** Sample ingest.queue_depth every this many arrivals. */
constexpr std::uint64_t kDepthSampleEvery = 64;

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t
fnv1a(std::uint64_t hash, std::uint64_t value)
{
    for (int byte = 0; byte < 8; ++byte) {
        hash ^= (value >> (byte * 8)) & 0xffULL;
        hash *= kFnvPrime;
    }
    return hash;
}

} // namespace

const std::vector<double> &
stagingLatencyEdges()
{
    static const std::vector<double> edges = {
        1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4,
        1e-3, 2e-3, 5e-3, 1e-2, 5e-2,
    };
    return edges;
}

IngestMetrics
IngestMetrics::create(obs::MetricRegistry &registry,
                      const obs::Labels &labels)
{
    IngestMetrics metrics;
    metrics.events = &registry.counter("ingest.events", labels);
    metrics.dropped = &registry.counter("ingest.dropped", labels);
    metrics.spilled = &registry.counter("ingest.spilled", labels);
    metrics.spillFailed =
        &registry.counter("ingest.spill_failed", labels);
    metrics.replayed = &registry.counter("ingest.replayed", labels);
    metrics.batches = &registry.counter("ingest.batches", labels);
    metrics.stagingLatency = &registry.histogram(
        "ingest.staging_latency", stagingLatencyEdges(), labels);
    metrics.queueDepth =
        &registry.series("ingest.queue_depth", labels);
    return metrics;
}

Stager::Stager(const IngestConfig &config, BatchSink sink,
               IngestMetrics metrics)
    : config_(config), sink_(std::move(sink)), metrics_(metrics),
      serviceTime_(1.0 / config.stagingEventsPerSec),
      batchHash_(kFnvOffset)
{
    stats_.checksum = kFnvOffset;
    if (config_.policy == BackpressurePolicy::Spill &&
        !spill_.open(config_.spillPath, config_.io)) {
        // No spill disk at all: run on, but overload now drops (and
        // every such drop is counted as a spill failure too).
        logWarn("spill log unavailable; overload events will be "
                "dropped and counted under ingest.spill_failed");
    }
}

void
Stager::push(const Event &event)
{
    RAP_ASSERT(!finished_, "push after finish");
    ++stats_.arrived;
    completeUntil(event.emitTime);

    ++arrivalTick_;
    if (metrics_.queueDepth != nullptr &&
        arrivalTick_ % kDepthSampleEvery == 0) {
        metrics_.queueDepth->append(
            event.emitTime, static_cast<double>(waiting_.size()));
    }

    if (config_.stagingQueueCap > 0 &&
        waiting_.size() >= config_.stagingQueueCap) {
        switch (config_.policy) {
          case BackpressurePolicy::Block:
            // Backpressure: the event queues anyway and the overload
            // shows up as staging latency, never as loss.
            break;
          case BackpressurePolicy::DropOldest:
            waiting_.pop_front();
            ++stats_.dropped;
            if (metrics_.dropped != nullptr)
                metrics_.dropped->inc();
            break;
          case BackpressurePolicy::Spill:
            if (spill_.isOpen() && spill_.append(event)) {
                ++stats_.spilled;
                if (metrics_.spilled != nullptr)
                    metrics_.spilled->inc();
            } else {
                // The spill disk refused the event: dropping loudly
                // beats replaying a log that silently lost it.
                ++stats_.spillFailed;
                ++stats_.dropped;
                if (metrics_.spillFailed != nullptr)
                    metrics_.spillFailed->inc();
                if (metrics_.dropped != nullptr)
                    metrics_.dropped->inc();
            }
            return; // diverted (or dropped); never queued live
        }
    }

    waiting_.push_back(event);
    stats_.maxQueueDepth =
        std::max(stats_.maxQueueDepth, waiting_.size());
}

void
Stager::completeUntil(Seconds t)
{
    while (!waiting_.empty()) {
        const Event &front = waiting_.front();
        const Seconds start = std::max(serverFreeAt_, front.emitTime);
        const Seconds done = start + serviceTime_;
        if (done > t)
            break;
        serverFreeAt_ = done;
        complete(front, done, /*replay=*/false);
        waiting_.pop_front();
    }
}

void
Stager::complete(const Event &event, Seconds done, bool replay)
{
    const double latency = done - event.emitTime;
    stats_.latencies.push_back(latency);
    if (metrics_.stagingLatency != nullptr)
        metrics_.stagingLatency->observe(latency);
    if (replay) {
        ++stats_.replayed;
        if (metrics_.replayed != nullptr)
            metrics_.replayed->inc();
    } else {
        ++stats_.stagedLive;
    }
    batchHash_ = fnv1a(batchHash_, event.stream);
    batchHash_ = fnv1a(batchHash_, event.seq);
    batchHash_ =
        fnv1a(batchHash_, std::bit_cast<std::uint64_t>(event.emitTime));
    ++batchRows_;
    ++stats_.rowsStaged;
    if (batchRows_ == static_cast<std::size_t>(config_.batchRows))
        flushBatch(done);
}

void
Stager::flushBatch(Seconds ready_at)
{
    StagedBatch staged;
    staged.index = stats_.batches;
    staged.readyAt = ready_at;
    staged.rows = batchRows_;
    staged.checksum = batchHash_;

    ++stats_.batches;
    stats_.lastReadyAt = ready_at;
    stats_.checksum = fnv1a(stats_.checksum, batchHash_);
    if (metrics_.batches != nullptr)
        metrics_.batches->inc();

    batchRows_ = 0;
    batchHash_ = kFnvOffset;
    if (sink_)
        sink_(std::move(staged));
}

void
Stager::finish()
{
    RAP_ASSERT(!finished_, "finish called twice");
    finished_ = true;
    completeUntil(std::numeric_limits<double>::infinity());
    RAP_ASSERT(waiting_.empty(), "stager drain left events behind");

    if (spill_.isOpen() && spill_.appended() > 0) {
        // Replay after the live drain: the server is free from
        // serverFreeAt_ on, so spilled events queue behind everything
        // live and their latency keeps counting from the original
        // emission — the cost of the detour is visible in the tail.
        spill_.replay([this](const Event &event) {
            const Seconds done =
                std::max(serverFreeAt_, event.emitTime) + serviceTime_;
            serverFreeAt_ = done;
            complete(event, done, /*replay=*/true);
        });
    }
    spill_.removeFile();

    if (batchRows_ > 0)
        flushBatch(serverFreeAt_);
}

} // namespace rap::ingest
