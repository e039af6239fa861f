/**
 * @file
 * The staging consumer: turns the globally-ordered event stream into
 * staged batches under a deterministic virtual-time service model.
 * A batch is its row count, its ready time and a digest of the keys
 * of the events staged into it, in staging order.
 *
 * The stager models itself as a single server with a constant
 * per-event service time (1 / stagingEventsPerSec) on the same
 * virtual clock the emitters stamp events with. Every decision —
 * when an event completes staging, whether the queue is over
 * capacity, which event a policy drops or spills — is made in virtual
 * time on the merged stream, never from wall-clock races. That is the
 * whole determinism story: generation threads can jitter all they
 * want, the stager's inputs and therefore its outputs are fixed.
 *
 * Per-event staging latency (completion − emission) feeds the
 * ingest.staging_latency histogram; queue depth is sampled into the
 * ingest.queue_depth series; drops/spills/replays hit lock-free
 * counters (obs/metrics.hpp).
 */

#ifndef RAP_INGEST_STAGER_HPP
#define RAP_INGEST_STAGER_HPP

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "ingest/config.hpp"
#include "ingest/event.hpp"
#include "ingest/spill.hpp"
#include "obs/metrics.hpp"

namespace rap::ingest {

/** Histogram edges for ingest.staging_latency (seconds). */
const std::vector<double> &stagingLatencyEdges();

/** One staged batch: its place on the virtual clock and its events. */
struct StagedBatch
{
    /** 0-based emission ordinal. */
    std::uint64_t index = 0;
    /** Virtual time the last row finished staging. */
    Seconds readyAt = 0.0;
    /** Rows in the batch (batchRows, or fewer for the final flush). */
    std::size_t rows = 0;
    /**
     * FNV-1a digest over each staged event's (stream, seq, emit-time
     * bits), in staging order.
     */
    std::uint64_t checksum = 0;
};

using BatchSink = std::function<void(StagedBatch &&)>;

/** Cached instrument references for the ingest hot path. */
struct IngestMetrics
{
    obs::Counter *events = nullptr;
    obs::Counter *dropped = nullptr;
    obs::Counter *spilled = nullptr;
    obs::Counter *spillFailed = nullptr;
    obs::Counter *replayed = nullptr;
    obs::Counter *batches = nullptr;
    obs::Histogram *stagingLatency = nullptr;
    obs::Series *queueDepth = nullptr;

    /** Resolve all instruments once (registry lookup takes a lock;
     *  updates through the returned references take none). */
    static IngestMetrics create(obs::MetricRegistry &registry,
                                const obs::Labels &labels);
};

/** Accounting the stager keeps as it goes (all deterministic). */
struct StagerStats
{
    std::uint64_t arrived = 0;
    std::uint64_t stagedLive = 0;
    std::uint64_t dropped = 0;
    std::uint64_t spilled = 0;
    /**
     * Events the spill disk refused past the retry budget (or after
     * the log failed to open). They are dropped — counted here and in
     * `dropped`, mirrored to ingest.spill_failed — never silently
     * replayed short.
     */
    std::uint64_t spillFailed = 0;
    std::uint64_t replayed = 0;
    std::uint64_t batches = 0;
    std::uint64_t rowsStaged = 0;
    std::size_t maxQueueDepth = 0;
    Seconds lastReadyAt = 0.0;
    /** Running FNV-1a over per-batch checksums. */
    std::uint64_t checksum = 0;
    /** Per-staged-event latency samples (completion − emission). */
    std::vector<double> latencies;
};

class Stager
{
  public:
    /**
     * @param sink Receives each finished batch (may be empty).
     * @param metrics Optional hot-path instruments (may be empty).
     */
    Stager(const IngestConfig &config, BatchSink sink,
           IngestMetrics metrics = {});

    /**
     * Feed the next event in global order (nondecreasing emitTime).
     * The stager keeps a copy, so the caller may reuse @p event as
     * soon as push returns.
     */
    void push(const Event &event);

    /**
     * Drain the queue, replay the spill log (if any), and flush the
     * final partial batch. Call exactly once, after the last push.
     */
    void finish();

    const StagerStats &stats() const { return stats_; }

  private:
    /** Complete every queued event whose service ends by @p t. */
    void completeUntil(Seconds t);
    /** Stage @p event at virtual time @p done, folding its key into
     *  the batch digest. */
    void complete(const Event &event, Seconds done, bool replay);
    void flushBatch(Seconds ready_at);

    IngestConfig config_;
    BatchSink sink_;
    IngestMetrics metrics_;
    SpillLog spill_;

    Seconds serviceTime_;
    Seconds serverFreeAt_ = 0.0;
    std::deque<Event> waiting_;
    std::uint64_t arrivalTick_ = 0;

    // The batch under assembly: its row count and running digest.
    std::size_t batchRows_ = 0;
    std::uint64_t batchHash_;

    StagerStats stats_;
    bool finished_ = false;
};

} // namespace rap::ingest

#endif // RAP_INGEST_STAGER_HPP
