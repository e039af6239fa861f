/**
 * @file
 * Streaming-ingest sweep: rate profiles × backpressure policies over
 * the ingest front-end (src/ingest).
 *
 * Each point runs the full pipeline — seeded stream emitters filling
 * per-window slabs of event keys on a thread pool, the k-way merge,
 * virtual-time staging — and reports the deterministic outcome:
 * event/drop/spill accounting, staging latency percentiles, and an
 * FNV-1a digest over the staged events' keys and emit times.
 * Everything on stdout and in `--metrics` / `--report` is a function
 * of the logical workload only: `--producers` moves event generation
 * across pool threads and must never change a byte (the
 * serial_parallel_determinism ctest diffs a `--producers 1` run
 * against `--producers 4`).
 *
 * Wall clock goes to stderr only.
 *
 * Flags beyond the common set (bench_common.hpp):
 *
 *   --report PATH   rap.ingest.v1 JSON artifact (CI diffs this)
 *   --streams N     logical substreams (the workload knob)
 *   --producers N   event-generation threads (0 = one per stream;
 *                   never affects results)
 */

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "ingest/pipeline.hpp"

namespace {

using namespace rap;

/** One sweep point: the workload shape and its deterministic result. */
struct IngestPoint
{
    ingest::RateProfileKind profile;
    ingest::BackpressurePolicy policy;
    ingest::IngestReport report;
};

ingest::IngestConfig
pointConfig(int streams, int producers, bool tiny,
            ingest::RateProfileKind profile,
            ingest::BackpressurePolicy policy)
{
    ingest::IngestConfig config;
    config.streams = streams;
    config.producers = producers;
    config.profile.kind = profile;
    // 4 streams x 60k ev/s against a 300k ev/s stager: utilization
    // 0.8 steady, transiently overloaded under the diurnal peak and
    // deeply overloaded inside bursts — the policies get exercised
    // without the steady case degenerating into one long stall.
    config.profile.eventsPerSec = 60000.0;
    config.stagingEventsPerSec = 300000.0;
    config.duration = tiny ? 0.01 : 0.05;
    config.batchRows = tiny ? 128 : 256;
    config.stagingQueueCap = 512;
    config.policy = policy;
    return config;
}

std::string
hex(std::uint64_t value)
{
    static const char *digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[value & 0xf];
        value >>= 4;
    }
    return out;
}

/** Microseconds with two decimals, for the latency columns. */
std::string
us(double seconds)
{
    return AsciiTable::num(seconds * 1e6, 2);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::ArgParser args(
        "bench_ingest",
        "streaming-ingest sweep: rate profiles x backpressure "
        "policies");
    const std::string &report_path = args.addString(
        "--report", "",
        "rap.ingest.v1 JSON output path (CI diffs this)");
    const int &streams = args.addInt(
        "--streams", 4, "logical substreams (the workload knob)");
    const int &producers = args.addInt(
        "--producers", 1,
        "event-generation threads (0 = one per stream; results "
        "byte-identical at any value)");
    args.parse(argc, argv);
    const bool tiny = args.tiny();
    obs::MetricRegistry registry;
    obs::MetricRegistry *metrics =
        args.metricsPath().empty() ? nullptr : &registry;

    const std::vector<ingest::RateProfileKind> profiles =
        tiny ? std::vector<ingest::RateProfileKind>{
                   ingest::RateProfileKind::Steady,
                   ingest::RateProfileKind::Burst}
             : std::vector<ingest::RateProfileKind>{
                   ingest::RateProfileKind::Steady,
                   ingest::RateProfileKind::Diurnal,
                   ingest::RateProfileKind::Burst};
    const std::vector<ingest::BackpressurePolicy> policies = {
        ingest::BackpressurePolicy::Block,
        ingest::BackpressurePolicy::DropOldest,
        ingest::BackpressurePolicy::Spill};

    std::cout << "=== Streaming ingest: rate profiles x backpressure "
                 "policies ===\n\n";

    AsciiTable table({"profile", "policy", "events", "staged",
                      "dropped", "spilled", "batches", "p50 us",
                      "p95 us", "p99 us", "maxq", "checksum"});
    std::vector<IngestPoint> points;
    for (const auto profile : profiles) {
        for (const auto policy : policies) {
            const auto config = pointConfig(streams, producers, tiny,
                                            profile, policy);
            const std::string id = ingest::rateProfileId(profile) +
                                   "." +
                                   ingest::backpressurePolicyId(
                                       policy);
            ingest::IngestPipeline pipeline(config);
            IngestPoint point{
                profile, policy,
                pipeline.run({}, metrics, obs::Labels{{"run", id}})};
            const auto &report = point.report;
            std::cerr << "[wall] ingest_" << id << " "
                      << AsciiTable::num(report.wallMs, 1) << " ms ("
                      << report.events << " events, producers "
                      << producers << ")\n";
            table.addRow({ingest::rateProfileId(profile),
                          ingest::backpressurePolicyId(policy),
                          std::to_string(report.events),
                          std::to_string(report.rowsStaged),
                          std::to_string(report.dropped),
                          std::to_string(report.spilled),
                          std::to_string(report.batches),
                          us(report.p50), us(report.p95),
                          us(report.p99),
                          std::to_string(report.maxQueueDepth),
                          hex(report.checksum)});
            points.push_back(std::move(point));
        }
    }
    std::cout << table.render() << "\n";
    std::cout << "results are byte-identical at any --producers "
                 "value; wall clock is on stderr\n";

    if (!report_path.empty()) {
        Json artifact = Json::object();
        artifact.set("schema", "rap.ingest.v1");
        Json list = Json::array();
        for (const auto &point : points) {
            Json entry = point.report.toJson();
            entry.set("profile",
                      ingest::rateProfileId(point.profile));
            entry.set("policy",
                      ingest::backpressurePolicyId(point.policy));
            entry.set("streams", streams);
            list.push(std::move(entry));
        }
        artifact.set("points", std::move(list));
        writeJsonFile(artifact, report_path);
    }
    bench::maybeWriteMetrics(args, registry);
    return 0;
}
