/**
 * @file
 * Concurrency stress for the ingest hot paths, run under TSan by the
 * sanitize CI job (`ctest -L thread-stress`): many threads hammering
 * one lock-free Counter/Histogram cell (obs/metrics.hpp) with
 * exact-total assertions, concurrent snapshot reads racing the
 * writers, and the whole pipeline generating windows on a pool while
 * the calling thread stages the previous one. (No caller writes one
 * instrument from several threads at once; the stress pins down that
 * the cells stay exact and race-free if one ever does.)
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "ingest/pipeline.hpp"
#include "obs/metrics.hpp"

namespace rap {
namespace {

TEST(IngestStress, ShardedCounterKeepsExactTotals)
{
    obs::MetricRegistry registry;
    auto &counter = registry.counter("ingest.events");
    constexpr int kThreads = 8;
    constexpr std::uint64_t kIncs = 200000;

    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&counter] {
            for (std::uint64_t i = 0; i < kIncs; ++i)
                counter.inc();
        });
    }
    // Fold mid-flight: value() must race cleanly with the writers.
    std::uint64_t last = 0;
    for (int probe = 0; probe < 100; ++probe) {
        const std::uint64_t now = counter.value();
        EXPECT_GE(now, last); // monotone under concurrent inc()
        last = now;
    }
    for (auto &thread : pool)
        thread.join();
    EXPECT_EQ(counter.value(), kThreads * kIncs);
}

TEST(IngestStress, ShardedHistogramKeepsExactCounts)
{
    obs::MetricRegistry registry;
    auto &histogram =
        registry.histogram("ingest.staging_latency", {0.25, 0.5, 0.75});
    constexpr int kThreads = 8;
    constexpr std::uint64_t kObs = 100000;

    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&histogram, t] {
            for (std::uint64_t i = 0; i < kObs; ++i) {
                histogram.observe(
                    static_cast<double>((i + static_cast<std::uint64_t>(t)) % 100) /
                    100.0);
            }
        });
    }
    // Concurrent folds while observes are in flight.
    for (int probe = 0; probe < 100; ++probe) {
        const auto counts = histogram.bucketCounts();
        std::uint64_t sum = 0;
        for (const auto c : counts)
            sum += c;
        EXPECT_LE(sum, kThreads * kObs);
    }
    for (auto &thread : pool)
        thread.join();

    EXPECT_EQ(histogram.count(), kThreads * kObs);
    const auto counts = histogram.bucketCounts();
    std::uint64_t total = 0;
    for (const auto c : counts)
        total += c;
    EXPECT_EQ(total, kThreads * kObs);
    // Every thread observes the same 0.00..0.99 cycle, so each bucket
    // holds an exact multiple of the per-thread share.
    EXPECT_EQ(counts[0], kThreads * kObs / 4); // [0, 0.25)
}

TEST(IngestStress, PipelineSurvivesManyProducersAndTinyWindows)
{
    // Tiny windows hand the pool and the staging thread a new slab
    // every few events; the merge still must deliver the exact
    // deterministic result.
    ingest::IngestConfig config;
    config.streams = 8;
    config.producers = 8;
    config.duration = 0.002;
    config.profile.eventsPerSec = 50000.0;
    config.stagingEventsPerSec = 200000.0;
    config.windowEvents = 4;
    config.batchRows = 32;

    std::uint64_t first_checksum = 0;
    for (int round = 0; round < 3; ++round) {
        ingest::IngestPipeline pipeline(config);
        const auto report = pipeline.run();
        EXPECT_GT(report.events, 0u);
        EXPECT_EQ(report.rowsStaged, report.events);
        if (round == 0)
            first_checksum = report.checksum;
        else
            EXPECT_EQ(report.checksum, first_checksum);
    }
}

} // namespace
} // namespace rap
