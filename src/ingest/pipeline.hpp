/**
 * @file
 * The ingest front-end driver: emits the logical streams' events
 * window by window on a thread pool, k-way-merges each window back
 * into the global event order on the calling thread, and feeds the
 * Stager.
 *
 * Windows: window w holds every event emitted in [(w-1)·W, w·W), with
 * W = windowEvents / peakRate(profile). Each stream's lane fills its
 * slab for window w on a ThreadPool of `producers` threads and holds
 * the first event past the window for the next one. Slabs are double
 * buffered: while the pool fills window w, the calling thread merges
 * window w-1 into the Stager (ThreadPool::parallelFor's `beside`
 * task), then joins the pool. Slabs keep their capacity, so
 * steady-state generation allocates nothing.
 *
 * The Stager and the sink stay on the calling thread, so each ingest
 * metric instrument has one writing thread.
 *
 * Determinism: every window's events precede the next window's, and
 * the merge orders a window by the total event key, so the merged
 * order and everything the Stager derives from it are functions of
 * (seed, streams, profile, ...) only. The producer count and the
 * window size affect wall clock and nothing else; the
 * serial_parallel_determinism ctest diffs bench_ingest to prove it.
 */

#ifndef RAP_INGEST_PIPELINE_HPP
#define RAP_INGEST_PIPELINE_HPP

#include <cstdint>

#include "common/json.hpp"
#include "ingest/config.hpp"
#include "ingest/stager.hpp"
#include "obs/metrics.hpp"

namespace rap::ingest {

/** Everything one ingest run produced (see Stager for semantics). */
struct IngestReport
{
    std::uint64_t events = 0;
    std::uint64_t dropped = 0;
    std::uint64_t spilled = 0;
    std::uint64_t replayed = 0;
    std::uint64_t batches = 0;
    std::uint64_t rowsStaged = 0;
    /** Staging-latency percentiles (seconds). */
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    std::size_t maxQueueDepth = 0;
    /** Virtual time the last batch became ready. */
    Seconds lastReadyAt = 0.0;
    /** FNV-1a digest over per-batch checksums. */
    std::uint64_t checksum = 0;
    /** Pipeline wall clock (stderr only — NEVER in the deterministic
     *  report JSON). */
    double wallMs = 0.0;

    /** Deterministic fields only (checksum rendered as hex). */
    Json toJson() const;
};

class IngestPipeline
{
  public:
    /**
     * Exits with every error rendered unless validateIngestConfig
     * accepts @p config.
     */
    explicit IngestPipeline(IngestConfig config);

    const IngestConfig &config() const { return config_; }

    /**
     * Run the full pipeline to completion: staging on the calling
     * thread, event generation on config.producers pool threads (the
     * caller joins them once a window is staged).
     *
     * @param sink Receives every staged batch in order (optional).
     * @param metrics Registry for ingest.* instruments (optional).
     * @param labels Labels for those instruments.
     */
    IngestReport run(const BatchSink &sink = {},
                     obs::MetricRegistry *metrics = nullptr,
                     const obs::Labels &labels = {});

  private:
    IngestConfig config_;
};

} // namespace rap::ingest

#endif // RAP_INGEST_PIPELINE_HPP
