/**
 * @file
 * The ingest front-end driver: spawns producer threads that run the
 * logical stream emitters, transports events over per-stream SPSC
 * rings (common/lockfree_queue.hpp), k-way-merges them back into the
 * global event order on the consumer, and feeds the Stager.
 *
 * Thread layout: `producers` transport threads (stream s belongs to
 * thread s mod producers), one consumer (the calling thread). A
 * producer owning several streams round-robins them and skips full
 * rings, which keeps it live while the consumer waits on a different
 * stream's head — the merge needs every non-exhausted ring non-empty
 * before it can commit the minimum, so a blocking producer would
 * deadlock the pipeline.
 *
 * Determinism: the merged order and everything the Stager derives
 * from it are functions of (seed, streams, profile, ...) only — the
 * producer count and all transport-level timing affect wall clock and
 * nothing else. bench_ingest's CI determinism diff holds the proof.
 */

#ifndef RAP_INGEST_PIPELINE_HPP
#define RAP_INGEST_PIPELINE_HPP

#include <cstdint>

#include "common/json.hpp"
#include "data/schema.hpp"
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
    /** Transport wall clock (stderr only — NEVER in the deterministic
     *  report JSON). */
    double wallMs = 0.0;

    /** Deterministic fields only (checksum rendered as hex). */
    Json toJson() const;
};

class IngestPipeline
{
  public:
    /** @p config must be valid (validateIngestConfig empty). */
    explicit IngestPipeline(IngestConfig config);

    const data::Schema &schema() const { return schema_; }
    const IngestConfig &config() const { return config_; }

    /**
     * Run the full pipeline to completion on the calling thread
     * (consumer) plus config.producers transport threads.
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
    data::Schema schema_;
};

} // namespace rap::ingest

#endif // RAP_INGEST_PIPELINE_HPP
