/**
 * @file
 * Configuration for the streaming ingest front-end: how many logical
 * streams emit, at what rate profile, how the staging consumer is
 * provisioned, and which backpressure policy governs overload.
 *
 * The determinism split that everything downstream relies on:
 *
 *  - `streams` is the *logical* knob. Every event is a pure function
 *    of (seed, stream), so changing the stream count changes the
 *    workload.
 *  - `producers` is the *execution* knob: how many pool threads
 *    emit the streams' events, window by window, beside the staging
 *    consumer. Any producer count yields byte-identical batches,
 *    metrics, and reports — the same contract the sweep benches'
 *    `--jobs` keeps, and what the serial_parallel_determinism ctest
 *    diffs for bench_ingest.
 */

#ifndef RAP_INGEST_CONFIG_HPP
#define RAP_INGEST_CONFIG_HPP

#include <cstdint>
#include <string>

#include "common/io.hpp"
#include "common/units.hpp"
#include "common/validation.hpp"
#include "ingest/rate_profile.hpp"

namespace rap::ingest {

/** What the staging consumer does when its queue is at capacity. */
enum class BackpressurePolicy {
    /** Queue anyway: no loss, latency absorbs the overload. */
    Block,
    /** Drop the oldest queued event to admit the new one. */
    DropOldest,
    /** Divert the new event to a disk log, replay it after drain. */
    Spill,
};

/** @return Stable lowercase id: "block" / "drop-oldest" / "spill". */
std::string backpressurePolicyId(BackpressurePolicy policy);

struct IngestConfig
{
    /** Logical substream count (the workload knob, see file docs). */
    int streams = 4;
    /** Threads that emit the streams' event keys and times; 0 = one
     *  per stream. Never affects results. */
    int producers = 1;
    /** Root seed; stream s derives its own generator from (seed, s). */
    std::uint64_t seed = 20240408;
    /** Per-stream emission rate over time. */
    RateProfile profile;
    /** Emission horizon on the virtual clock. */
    Seconds duration = 0.05;
    /** Rows per staged batch. */
    std::int64_t batchRows = 256;
    /**
     * Generation window, in events per stream at the profile's peak
     * rate: window w covers emit times [(w-1)·W, w·W) with
     * W = windowEvents / peakRate(profile). Never affects results.
     */
    std::size_t windowEvents = 256;
    /** Staging queue capacity before the policy kicks in (0 = cap
     *  disabled; only meaningful with Block). */
    std::size_t stagingQueueCap = 512;
    /** Staging service rate: events the consumer stages per second. */
    double stagingEventsPerSec = 300000.0;
    BackpressurePolicy policy = BackpressurePolicy::Block;
    /** Spill log path; "" auto-creates one under the temp dir. */
    std::string spillPath;
    /**
     * Fault-injection context for the spill log (non-owning; null =
     * plain POSIX). When the spill disk dies past the retry budget,
     * the stager falls back to dropping — counted, never silent.
     */
    io::IoContext *io = nullptr;
};

/**
 * @return Every invalid knob in @p config, each named by its field.
 * SystemConfig::validate folds them in under the "ingest." prefix.
 */
ValidationResult validateIngestConfig(const IngestConfig &config);

} // namespace rap::ingest

#endif // RAP_INGEST_CONFIG_HPP
