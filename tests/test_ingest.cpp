/**
 * @file
 * Tests for the streaming ingest front-end (src/ingest): config
 * validation, rate profiles, emitter determinism, hand-computed
 * virtual-time staging timelines for every backpressure policy, the
 * batch digest over event keys, the spill-log line format, round-trips
 * and spill-disk failures, the producer-count and window-size
 * invariance of the full pipeline, bench_ingest --tiny's reports
 * against tests/golden/ingest_reports.json, and the core-run
 * integration (SystemConfig.ingest gating, report fields and the
 * ingest.run span).
 *
 * Regenerate the golden file after an intentional change with:
 *
 *   RAP_REGEN_GOLDEN=1 ./build/tests/test_ingest
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/io.hpp"
#include "core/run_request.hpp"
#include "ingest/pipeline.hpp"
#include "ingest/spill.hpp"
#include "ingest/stream.hpp"
#include "preproc/plan.hpp"

namespace rap::ingest {
namespace {

Event
miniEvent(std::uint32_t stream, std::uint64_t seq, Seconds emit)
{
    Event event;
    event.stream = stream;
    event.seq = seq;
    event.emitTime = emit;
    return event;
}

/** Ingest config whose staging timeline is hand-computable. */
IngestConfig
miniConfig(BackpressurePolicy policy, double events_per_sec,
           std::size_t cap, std::int64_t batch_rows)
{
    IngestConfig config;
    config.streams = 1;
    config.stagingEventsPerSec = events_per_sec;
    config.stagingQueueCap = cap;
    config.policy = policy;
    config.batchRows = batch_rows;
    return config;
}

TEST(Config, DefaultIsValid)
{
    EXPECT_TRUE(validateIngestConfig(IngestConfig{}).ok());
}

TEST(Config, RejectsBadKnobs)
{
    const auto field = [](const IngestConfig &config) {
        const auto result = validateIngestConfig(config);
        return result.ok() ? std::string() : result.errors().front().field;
    };

    IngestConfig config;
    config.streams = 0;
    EXPECT_EQ(field(config), "streams");

    config = IngestConfig{};
    config.windowEvents = 0;
    EXPECT_EQ(field(config), "windowEvents");
    config.windowEvents = 3; // any size >= 1, no power-of-two rule
    EXPECT_TRUE(validateIngestConfig(config).ok());

    config = IngestConfig{};
    config.stagingEventsPerSec = 0.0;
    EXPECT_EQ(field(config), "stagingEventsPerSec");

    config = IngestConfig{};
    config.policy = BackpressurePolicy::DropOldest;
    config.stagingQueueCap = 0;
    EXPECT_EQ(field(config), "stagingQueueCap");

    config = IngestConfig{};
    config.duration = 0.0;
    EXPECT_EQ(field(config), "duration");
}

TEST(ConfigDeath, PipelineNamesEveryBadField)
{
    IngestConfig config;
    config.streams = 0;
    config.batchRows = 0;
    EXPECT_DEATH(IngestPipeline{config},
                 "invalid ingest config:\nstreams: .*\nbatchRows: ");
}

TEST(Config, IdsRoundTrip)
{
    // The ids are what reports and bench output print; pin them.
    EXPECT_EQ(backpressurePolicyId(BackpressurePolicy::Block), "block");
    EXPECT_EQ(backpressurePolicyId(BackpressurePolicy::DropOldest),
              "drop-oldest");
    EXPECT_EQ(backpressurePolicyId(BackpressurePolicy::Spill), "spill");
    EXPECT_EQ(rateProfileId(RateProfileKind::Steady), "steady");
    EXPECT_EQ(rateProfileId(RateProfileKind::Diurnal), "diurnal");
    EXPECT_EQ(rateProfileId(RateProfileKind::Burst), "burst");
}

TEST(RateProfileTest, ShapesMatchTheirDefinitions)
{
    RateProfile steady;
    steady.eventsPerSec = 1000.0;
    EXPECT_DOUBLE_EQ(rateAt(steady, 0.0), 1000.0);
    EXPECT_DOUBLE_EQ(rateAt(steady, 1.0), 1000.0);
    EXPECT_DOUBLE_EQ(peakRate(steady), 1000.0);

    RateProfile burst;
    burst.kind = RateProfileKind::Burst;
    burst.eventsPerSec = 1000.0;
    burst.period = 1.0;
    burst.burstFactor = 4.0;
    burst.burstFraction = 0.25;
    EXPECT_DOUBLE_EQ(rateAt(burst, 0.1), 4000.0);  // inside the burst
    EXPECT_DOUBLE_EQ(rateAt(burst, 0.5), 1000.0);  // off-peak
    EXPECT_DOUBLE_EQ(peakRate(burst), 4000.0);

    RateProfile diurnal;
    diurnal.kind = RateProfileKind::Diurnal;
    diurnal.eventsPerSec = 1000.0;
    diurnal.amplitude = 0.5;
    EXPECT_DOUBLE_EQ(peakRate(diurnal), 1500.0);
    for (double t : {0.0, 0.003, 0.011, 0.017}) {
        const double rate = rateAt(diurnal, t);
        EXPECT_GE(rate, 500.0);
        EXPECT_LE(rate, 1500.0);
    }
}

TEST(Emitter, IsAPureFunctionOfSeedAndStream)
{
    IngestConfig config;
    config.duration = 0.002;
    config.profile.eventsPerSec = 50000.0;

    StreamEmitter a(config, 3);
    StreamEmitter b(config, 3);
    StreamEmitter other(config, 4);

    Event ea, eb, eo;
    std::size_t count = 0;
    Seconds last = -1.0;
    bool differs = false;
    while (a.next(ea)) {
        ASSERT_TRUE(b.next(eb));
        EXPECT_EQ(ea.stream, 3u);
        EXPECT_EQ(ea.seq, count); // gapless from 0
        EXPECT_EQ(ea.seq, eb.seq);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(ea.emitTime),
                  std::bit_cast<std::uint64_t>(eb.emitTime));
        EXPECT_GT(ea.emitTime, last); // strictly increasing
        EXPECT_LT(ea.emitTime, config.duration);
        last = ea.emitTime;
        if (other.next(eo) && eo.emitTime != ea.emitTime)
            differs = true;
        ++count;
    }
    EXPECT_FALSE(b.next(eb));
    EXPECT_GT(count, 10u);
    EXPECT_TRUE(differs); // stream id really changes the sequence
}

TEST(StagerTest, BlockTimelineIsHandComputable)
{
    // Service time 0.1s, batches of two rows. A and B arrive back to
    // back at t=0: A stages at 0.1 (latency 0.1), B queues behind it
    // and stages at 0.2 (latency 0.2). C arrives at 0.5 into an idle
    // server: done 0.6, latency 0.1.
    const auto config =
        miniConfig(BackpressurePolicy::Block, 10.0, 2, 2);
    std::vector<StagedBatch> batches;
    Stager stager(config,
                  [&](StagedBatch &&b) { batches.push_back(std::move(b)); });
    stager.push(miniEvent(0, 0, 0.0));
    stager.push(miniEvent(0, 1, 0.0));
    stager.push(miniEvent(0, 2, 0.5));
    stager.finish();

    const auto &stats = stager.stats();
    EXPECT_EQ(stats.arrived, 3u);
    EXPECT_EQ(stats.stagedLive, 3u);
    EXPECT_EQ(stats.dropped, 0u);
    EXPECT_EQ(stats.rowsStaged, 3u);
    ASSERT_EQ(stats.latencies.size(), 3u);
    EXPECT_NEAR(stats.latencies[0], 0.1, 1e-12);
    EXPECT_NEAR(stats.latencies[1], 0.2, 1e-12);
    EXPECT_NEAR(stats.latencies[2], 0.1, 1e-12);

    ASSERT_EQ(batches.size(), 2u);
    EXPECT_EQ(batches[0].index, 0u);
    EXPECT_EQ(batches[0].rows, 2u);
    EXPECT_NEAR(batches[0].readyAt, 0.2, 1e-12);
    EXPECT_EQ(batches[1].index, 1u);
    EXPECT_EQ(batches[1].rows, 1u); // final partial flush
    EXPECT_NEAR(batches[1].readyAt, 0.6, 1e-12);
}

TEST(StagerTest, DropOldestShedsFromTheFront)
{
    // One event per second of service, queue cap 1: B evicts A,
    // C evicts B; only C ever stages, at 0.2 + 1.0.
    const auto config =
        miniConfig(BackpressurePolicy::DropOldest, 1.0, 1, 4);
    Stager stager(config, {});
    stager.push(miniEvent(0, 0, 0.0));
    stager.push(miniEvent(0, 1, 0.1));
    stager.push(miniEvent(0, 2, 0.2));
    stager.finish();

    const auto &stats = stager.stats();
    EXPECT_EQ(stats.arrived, 3u);
    EXPECT_EQ(stats.dropped, 2u);
    EXPECT_EQ(stats.stagedLive, 1u);
    EXPECT_EQ(stats.rowsStaged, 1u);
    ASSERT_EQ(stats.latencies.size(), 1u);
    EXPECT_NEAR(stats.latencies[0], 1.0, 1e-12);
    EXPECT_NEAR(stats.lastReadyAt, 1.2, 1e-12);
}

TEST(StagerTest, SpillDivertsAndReplaysEverything)
{
    // Same overload as the drop test, but nothing is lost: B and C
    // detour through the spill log and replay after A drains, paying
    // their queueing delay in latency. Replays keep their original
    // emit times: B stages at 2.0 (latency 1.9), C at 3.0 (2.8).
    auto config = miniConfig(BackpressurePolicy::Spill, 1.0, 1, 4);
    config.spillPath = "test_ingest_spill.tsv";
    std::vector<StagedBatch> batches;
    Stager stager(config,
                  [&](StagedBatch &&b) { batches.push_back(std::move(b)); });
    const Event events[] = {
        miniEvent(0, 0, 0.0),
        miniEvent(0, 1, 0.1),
        miniEvent(0, 2, 0.2),
    };
    for (const auto &event : events)
        stager.push(event);
    stager.finish();

    const auto &stats = stager.stats();
    EXPECT_EQ(stats.arrived, 3u);
    EXPECT_EQ(stats.dropped, 0u);
    EXPECT_EQ(stats.spilled, 2u);
    EXPECT_EQ(stats.replayed, 2u);
    EXPECT_EQ(stats.stagedLive, 1u);
    EXPECT_EQ(stats.rowsStaged, 3u);
    ASSERT_EQ(stats.latencies.size(), 3u);
    EXPECT_NEAR(stats.latencies[0], 1.0, 1e-12);
    EXPECT_NEAR(stats.latencies[1], 1.9, 1e-12);
    EXPECT_NEAR(stats.latencies[2], 2.8, 1e-12);

    // The replayed events land bit-exactly in the final batch: its
    // digest equals that of a Block stager fed the same events live,
    // in staging order (A, B, C).
    ASSERT_EQ(batches.size(), 1u);
    ASSERT_EQ(batches[0].rows, 3u);
    std::vector<StagedBatch> live_batches;
    Stager live(miniConfig(BackpressurePolicy::Block, 1.0, 1, 4),
                [&](StagedBatch &&b) {
                    live_batches.push_back(std::move(b));
                });
    for (const auto &event : events)
        live.push(event);
    live.finish();
    ASSERT_EQ(live_batches.size(), 1u);
    EXPECT_EQ(live_batches[0].rows, 3u);
    EXPECT_EQ(batches[0].checksum, live_batches[0].checksum);

    // The log is cleaned up after replay.
    std::FILE *file = std::fopen(config.spillPath.c_str(), "rb");
    EXPECT_EQ(file, nullptr);
    if (file != nullptr)
        std::fclose(file);
}

TEST(StagerTest, ChecksumCoversEveryStagedEventKey)
{
    // The batch digest folds each staged event's (stream, seq,
    // emit-time bits) in staging order, so it moves when two events
    // swap their seqs or when a policy drops an event.
    const auto checksum = [](BackpressurePolicy policy, std::size_t cap,
                             const std::vector<Event> &events) {
        std::vector<StagedBatch> batches;
        Stager stager(miniConfig(policy, 1.0, cap, 4),
                      [&](StagedBatch &&b) {
                          batches.push_back(std::move(b));
                      });
        for (const auto &event : events)
            stager.push(event);
        stager.finish();
        EXPECT_EQ(batches.size(), 1u);
        return batches.empty() ? 0 : batches[0].checksum;
    };
    const std::vector<Event> events = {
        miniEvent(0, 0, 0.0), miniEvent(0, 1, 0.1), miniEvent(0, 2, 0.2)};
    const auto all = checksum(BackpressurePolicy::Block, 0, events);

    auto swapped = events;
    std::swap(swapped[0].seq, swapped[1].seq);
    EXPECT_NE(checksum(BackpressurePolicy::Block, 0, swapped), all);

    // The drop test's overload: only C stages, so the digest is C's
    // alone.
    const auto shed = checksum(BackpressurePolicy::DropOldest, 1, events);
    EXPECT_NE(shed, all);
    EXPECT_EQ(shed, checksum(BackpressurePolicy::Block, 0, {events[2]}));
}

/** Bytes one spill line of @p event takes, probed through @p path. */
std::uint64_t
spillLineBytes(const std::string &path, const Event &event)
{
    SpillLog probe;
    EXPECT_TRUE(probe.open(path));
    EXPECT_TRUE(probe.append(event));
    const auto bytes = std::filesystem::file_size(probe.path());
    probe.removeFile();
    return bytes;
}

TEST(StagerTest, SpillDiskFullDropsAndCountsTheRefusedEvents)
{
    // The spill test's overload with two more events, on a disk that
    // holds one and a half spill lines: B spills; the writes of C, D
    // and E each tear at the budget, are rolled back, and the events
    // are dropped as spill failures. Only A (live) and B (replayed)
    // stage.
    const Event events[] = {
        miniEvent(0, 0, 0.0), miniEvent(0, 1, 0.1), miniEvent(0, 2, 0.2),
        miniEvent(0, 3, 0.3), miniEvent(0, 4, 0.4),
    };
    const auto line =
        spillLineBytes("test_ingest_spill_enospc_probe.tsv", events[1]);
    io::IoFaultSchedule schedule;
    schedule.enospcAfterBytes = line + line / 2;
    io::IoContext disk(schedule);
    auto config = miniConfig(BackpressurePolicy::Spill, 1.0, 1, 4);
    config.spillPath = "test_ingest_spill_enospc.tsv";
    config.io = &disk;
    obs::MetricRegistry registry;
    const obs::Labels labels{{"run", "enospc"}};
    Stager stager(config, {},
                  IngestMetrics::create(registry, labels));
    for (const auto &event : events)
        stager.push(event);
    stager.finish();

    const auto &stats = stager.stats();
    EXPECT_EQ(stats.arrived, 5u);
    EXPECT_EQ(stats.spilled, 1u);
    EXPECT_EQ(stats.replayed, 1u);
    EXPECT_EQ(stats.spillFailed, 3u);
    EXPECT_EQ(stats.dropped, stats.spillFailed);
    EXPECT_EQ(stats.rowsStaged + stats.dropped, stats.arrived);
    EXPECT_EQ(registry.counter("ingest.spill_failed", labels).value(),
              stats.spillFailed);
    EXPECT_EQ(registry.counter("ingest.dropped", labels).value(),
              stats.dropped);
    EXPECT_FALSE(std::filesystem::exists(config.spillPath));
}

TEST(StagerTest, UnopenableSpillLogDropsEveryOverloadEvent)
{
    // The spill log cannot open (its directory is missing), so every
    // overload event is dropped and counted as a spill failure.
    auto config = miniConfig(BackpressurePolicy::Spill, 1.0, 1, 4);
    config.spillPath = "test_ingest_no_such_dir/spill.tsv";
    ASSERT_FALSE(std::filesystem::exists("test_ingest_no_such_dir"));
    obs::MetricRegistry registry;
    const obs::Labels labels{{"run", "no_log"}};
    Stager stager(config, {},
                  IngestMetrics::create(registry, labels));
    for (std::uint64_t seq = 0; seq < 4; ++seq)
        stager.push(miniEvent(0, seq, 0.1 * static_cast<double>(seq)));
    stager.finish();

    const auto &stats = stager.stats();
    EXPECT_EQ(stats.arrived, 4u);
    EXPECT_EQ(stats.stagedLive, 1u);
    EXPECT_EQ(stats.spilled, 0u);
    EXPECT_EQ(stats.replayed, 0u);
    EXPECT_EQ(stats.spillFailed, 3u);
    EXPECT_EQ(stats.dropped, stats.spillFailed);
    EXPECT_EQ(stats.rowsStaged + stats.dropped, stats.arrived);
    EXPECT_EQ(registry.counter("ingest.spill_failed", labels).value(),
              3u);
    EXPECT_EQ(registry.counter("ingest.dropped", labels).value(), 3u);
}

TEST(SpillLogTest, FailedAppendRollsBackToTheLastLine)
{
    const auto first = miniEvent(0, 1, 0.1);
    const auto line =
        spillLineBytes("test_ingest_spill_rollback_probe.tsv", first);
    io::IoFaultSchedule schedule;
    schedule.enospcAfterBytes = line + line / 2;
    io::IoContext disk(schedule);
    SpillLog log;
    ASSERT_TRUE(log.open("test_ingest_spill_rollback.tsv", &disk));
    EXPECT_TRUE(log.append(first));
    // Half of the second line reaches the disk before ENOSPC; the
    // append fails and truncates the torn bytes away, which frees
    // their share of the disk budget again.
    EXPECT_FALSE(log.append(miniEvent(0, 2, 0.2)));
    EXPECT_GT(disk.injectedFaults(), 0u);
    EXPECT_EQ(std::filesystem::file_size(log.path()), line);
    EXPECT_EQ(disk.bytesWritten(), line);
    EXPECT_EQ(log.appended(), 1u);

    std::vector<Event> replayed;
    log.replay([&](const Event &event) { replayed.push_back(event); });
    ASSERT_EQ(replayed.size(), 1u);
    EXPECT_EQ(replayed[0].seq, first.seq);
    EXPECT_EQ(replayed[0].emitTime, first.emitTime);
    log.removeFile();
}

TEST(SpillLogTest, LineIsStreamSeqAndEmitBits)
{
    SpillLog log;
    ASSERT_TRUE(log.open("test_ingest_spill_line.tsv"));
    ASSERT_TRUE(log.append(miniEvent(3, 17, 0.125)));
    std::string bytes;
    ASSERT_TRUE(io::readFileBytes(nullptr, log.path(), &bytes).ok());
    // 0.125 = 2^-3: biased exponent 1020 = 0x3fc, zero mantissa.
    EXPECT_EQ(bytes, "3\t17\t3fc0000000000000\n");
    log.removeFile();
}

TEST(SpillLogTest, RoundTripsEventsBitExactly)
{
    SpillLog log;
    ASSERT_TRUE(log.open("test_ingest_spill_log.tsv"));
    const auto first = miniEvent(3, 17, 0.1);
    const auto second = miniEvent(1, 2, std::nextafter(0.1, 1.0));
    EXPECT_TRUE(log.append(first));
    EXPECT_TRUE(log.append(second));
    EXPECT_EQ(log.appended(), 2u);

    std::vector<Event> replayed;
    log.replay([&](const Event &event) { replayed.push_back(event); });
    ASSERT_EQ(replayed.size(), 2u);
    EXPECT_EQ(replayed[0].stream, first.stream);
    EXPECT_EQ(replayed[0].seq, first.seq);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(replayed[0].emitTime),
              std::bit_cast<std::uint64_t>(first.emitTime));
    EXPECT_EQ(replayed[1].stream, second.stream);
    EXPECT_EQ(replayed[1].seq, second.seq);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(replayed[1].emitTime),
              std::bit_cast<std::uint64_t>(second.emitTime));
    log.removeFile();
    log.removeFile(); // idempotent
}

/** Small but non-trivial pipeline config for whole-run tests. */
IngestConfig
pipelineConfig(BackpressurePolicy policy)
{
    IngestConfig config;
    config.streams = 3;
    config.duration = 0.004;
    config.profile.kind = RateProfileKind::Burst;
    config.profile.eventsPerSec = 50000.0;
    config.profile.period = 0.002;
    config.stagingEventsPerSec = 100000.0;
    config.stagingQueueCap = 32;
    config.batchRows = 64;
    config.policy = policy;
    return config;
}

/** One whole run's deterministic outcome. */
struct RunDigest
{
    std::uint64_t events = 0;
    std::uint64_t batches = 0;
    /** IngestReport::toJson(), dumped. */
    std::string report;
    std::vector<std::uint64_t> checksums;
};

RunDigest
runDigest(const IngestConfig &config)
{
    IngestPipeline pipeline(config);
    RunDigest digest;
    const auto report = pipeline.run([&](StagedBatch &&batch) {
        digest.checksums.push_back(batch.checksum);
    });
    digest.events = report.events;
    digest.batches = report.batches;
    digest.report = report.toJson().dump();
    return digest;
}

TEST(Pipeline, ResultsAreInvariantToProducerCount)
{
    for (auto policy :
         {BackpressurePolicy::Block, BackpressurePolicy::DropOldest,
          BackpressurePolicy::Spill}) {
        const auto baseline = runDigest(pipelineConfig(policy));
        EXPECT_GT(baseline.events, 100u);
        EXPECT_GT(baseline.batches, 0u);
        for (int producers : {2, 4}) {
            auto config = pipelineConfig(policy);
            config.producers = producers;
            const auto digest = runDigest(config);
            EXPECT_EQ(digest.report, baseline.report)
                << backpressurePolicyId(policy) << " producers="
                << producers;
            EXPECT_EQ(digest.checksums, baseline.checksums);
        }
    }
}

TEST(Pipeline, ResultsAreInvariantToWindowSize)
{
    // One event per window, windows that split bursts mid-way, and the
    // default: the windows cut the streams at different emit times,
    // and the merged order must not notice at any producer count.
    for (auto policy :
         {BackpressurePolicy::Block, BackpressurePolicy::DropOldest,
          BackpressurePolicy::Spill}) {
        const auto baseline = runDigest(pipelineConfig(policy));
        for (std::size_t window : {1u, 3u, 256u}) {
            for (int producers : {0, 1, 2, 4}) {
                auto config = pipelineConfig(policy);
                config.windowEvents = window;
                config.producers = producers;
                const auto digest = runDigest(config);
                EXPECT_EQ(digest.report, baseline.report)
                    << backpressurePolicyId(policy) << " window="
                    << window << " producers=" << producers;
                EXPECT_EQ(digest.checksums, baseline.checksums);
            }
        }
    }
}

TEST(Pipeline, AccountingIdentitiesHold)
{
    {
        IngestPipeline pipeline(
            pipelineConfig(BackpressurePolicy::Block));
        const auto report = pipeline.run();
        EXPECT_EQ(report.dropped, 0u);
        EXPECT_EQ(report.spilled, 0u);
        EXPECT_EQ(report.rowsStaged, report.events);
    }
    {
        IngestPipeline pipeline(
            pipelineConfig(BackpressurePolicy::DropOldest));
        const auto report = pipeline.run();
        EXPECT_GT(report.dropped, 0u); // the burst overloads the cap
        EXPECT_EQ(report.rowsStaged + report.dropped, report.events);
    }
    {
        IngestPipeline pipeline(
            pipelineConfig(BackpressurePolicy::Spill));
        const auto report = pipeline.run();
        EXPECT_GT(report.spilled, 0u);
        EXPECT_EQ(report.replayed, report.spilled);
        EXPECT_EQ(report.rowsStaged, report.events); // nothing lost
    }
}

TEST(Pipeline, MetricsMatchTheReport)
{
    obs::MetricRegistry registry;
    const obs::Labels labels{{"run", "t"}};
    IngestPipeline pipeline(
        pipelineConfig(BackpressurePolicy::DropOldest));
    const auto report = pipeline.run({}, &registry, labels);

    EXPECT_EQ(registry.counter("ingest.events", labels).value(),
              report.events);
    EXPECT_EQ(registry.counter("ingest.dropped", labels).value(),
              report.dropped);
    EXPECT_EQ(registry.counter("ingest.batches", labels).value(),
              report.batches);
    EXPECT_EQ(registry
                  .histogram("ingest.staging_latency",
                             stagingLatencyEdges(), labels)
                  .count(),
              report.rowsStaged);
}

/** bench_ingest --tiny's configuration for one sweep point. */
IngestConfig
benchTinyConfig(RateProfileKind profile, BackpressurePolicy policy)
{
    IngestConfig config;
    config.streams = 4;
    config.profile.kind = profile;
    config.profile.eventsPerSec = 60000.0;
    config.stagingEventsPerSec = 300000.0;
    config.duration = 0.01;
    config.batchRows = 128;
    config.stagingQueueCap = 512;
    config.policy = policy;
    return config;
}

TEST(IngestGolden, BenchTinyPointsMatchTheGoldenFile)
{
    Json actual = Json::object();
    for (auto profile : {RateProfileKind::Steady, RateProfileKind::Burst}) {
        for (auto policy :
             {BackpressurePolicy::Block, BackpressurePolicy::DropOldest,
              BackpressurePolicy::Spill}) {
            actual.set(rateProfileId(profile) + "." +
                           backpressurePolicyId(policy),
                       IngestPipeline(benchTinyConfig(profile, policy))
                           .run()
                           .toJson());
        }
    }
    const std::string rendered = actual.dump(2);
    const std::string golden_path =
        std::string(RAP_TESTS_DIR) + "/golden/ingest_reports.json";

    if (std::getenv("RAP_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(golden_path);
        ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
        out << rendered;
        GTEST_SKIP() << "golden file regenerated";
    }

    std::ifstream in(golden_path);
    ASSERT_TRUE(in.good())
        << "missing golden file " << golden_path
        << " (regenerate with RAP_REGEN_GOLDEN=1)";
    std::ostringstream text;
    text << in.rdbuf();
    EXPECT_EQ(rendered, text.str())
        << "ingest reports drifted from the golden file; if the change "
           "is intentional, regenerate with RAP_REGEN_GOLDEN=1";
}

TEST(CoreIntegration, ValidationCoversIngestKnobs)
{
    core::SystemConfig config;
    config.ingest = IngestConfig{};
    config.ingest->streams = 0;
    const auto result = config.validate();
    EXPECT_FALSE(result.ok());
    bool found = false;
    for (const auto &error : result.errors())
        found |= error.field == "ingest.streams";
    EXPECT_TRUE(found);

    core::SystemConfig torcharrow;
    torcharrow.system = core::System::TorchArrowCpu;
    torcharrow.ingest = IngestConfig{};
    const auto torcharrow_result = torcharrow.validate();
    bool rejected = false;
    for (const auto &error : torcharrow_result.errors())
        rejected |= error.field == "ingest";
    EXPECT_TRUE(rejected);
}

/** Ingest knobs sized so a 4-iteration run is clearly input-bound. */
IngestConfig
gatingConfig()
{
    IngestConfig config;
    config.streams = 2;
    config.duration = 0.02;
    config.profile.eventsPerSec = 20000.0;
    config.stagingEventsPerSec = 100000.0;
    config.batchRows = 64;
    return config;
}

TEST(CoreIntegration, IngestGatesTheRun)
{
    const auto plan = preproc::makePlan(0);
    core::SystemConfig config;
    config.system = core::System::Ideal;
    config.gpuCount = 2;
    config.batchPerGpu = 1024;
    config.iterations = 4;
    config.warmup = 1;
    const auto ungated = core::RunRequest(config).run(plan);

    config.ingest = gatingConfig();
    const auto gated = core::RunRequest(config).run(plan);

    EXPECT_GT(gated.ingestEvents, 0u);
    EXPECT_GE(gated.ingestBatches, 4u);
    EXPECT_GT(gated.ingestLastReadyAt, 0.0);
    // Iteration j waits for staged batch j, so the gated run cannot
    // finish before the 4th batch is ready — and an input-bound
    // stream stretches the makespan past the compute-bound run.
    EXPECT_GE(gated.makespan, gated.ingestLastReadyAt);
    EXPECT_GT(gated.makespan, ungated.makespan);
    // The stall is counted: Ideal's throughput is measured between
    // iteration ends, which include the wait for the input gate.
    EXPECT_LT(gated.throughput, ungated.throughput);

    // The report artifact carries the ingest fields exactly.
    const Json json = gated.toJson();
    EXPECT_EQ(json.at("ingestEvents").asDouble(),
              static_cast<double>(gated.ingestEvents));
    EXPECT_EQ(json.at("ingestBatches").asDouble(),
              static_cast<double>(gated.ingestBatches));
    EXPECT_EQ(json.at("ingestLastReadyAt").asDouble(),
              gated.ingestLastReadyAt);
    EXPECT_EQ(json.at("ingestStagingP99").asDouble(),
              gated.ingestStagingP99);
}

TEST(CoreIntegration, RapRunsWithIngest)
{
    const auto plan = preproc::makePlan(0);
    core::SystemConfig config;
    config.system = core::System::Rap;
    config.gpuCount = 2;
    config.batchPerGpu = 1024;
    config.iterations = 4;
    config.warmup = 1;
    config.ingest = gatingConfig();
    const auto report = core::RunRequest(config).run(plan);
    EXPECT_GT(report.throughput, 0.0);
    EXPECT_GT(report.ingestEvents, 0u);
    EXPECT_GE(report.makespan, report.ingestLastReadyAt);
}

TEST(CoreIntegration, IngestPrePassIsOneSpan)
{
    const auto plan = preproc::makePlan(0);
    const auto spans = [&plan](bool with_ingest) {
        core::SystemConfig config;
        config.system = core::System::Ideal;
        config.gpuCount = 2;
        config.batchPerGpu = 1024;
        config.iterations = 4;
        config.warmup = 1;
        if (with_ingest)
            config.ingest = gatingConfig();
        obs::MetricRegistry registry;
        core::RunRequest(config).metrics(&registry, "spans").run(plan);
        std::size_t count = 0;
        for (const auto &span : registry.spanRecords())
            count += span.name == "ingest.run" ? 1 : 0;
        return count;
    };
    EXPECT_EQ(spans(true), 1u);
    EXPECT_EQ(spans(false), 0u);
}

} // namespace
} // namespace rap::ingest
