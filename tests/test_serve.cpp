/**
 * @file
 * Inference-serving tests: hardened exponential gaps, the open-loop
 * time-varying request generator, the max-batch/max-wait batching
 * replay, SLO accounting, and the fleet integration (mixed
 * training + serving traces, SLO admission, the serving columns of
 * the JSON report, and thread-count invariance of those columns).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>

#include "common/rng.hpp"
#include "fleet/fleet.hpp"
#include "obs/snapshot.hpp"
#include "serve/batcher.hpp"
#include "serve/request.hpp"
#include "serve/slo.hpp"

namespace rap {
namespace {

// ---------------------------------------------------------------- rng

TEST(ExponentialGap, ZeroUniformStillAdvances)
{
    // Regression: the inverse transform -mean*log(1-u) returns exactly
    // 0 at u == 0, which froze the arrival clock and produced
    // duplicate timestamps. The hardened version floors the gap at a
    // strictly positive fraction of the mean.
    const double gap = exponentialGap(0.0, 0.5);
    EXPECT_GT(gap, 0.0);
    EXPECT_DOUBLE_EQ(gap, 0.5 * 1e-9);
}

TEST(ExponentialGap, NearOneUniformStaysFinite)
{
    const double u = std::nextafter(1.0, 0.0);
    const double gap = exponentialGap(u, 2.0);
    EXPECT_TRUE(std::isfinite(gap));
    EXPECT_GT(gap, 0.0);
}

TEST(ExponentialGap, MatchesInverseTransform)
{
    // Away from the floor the hardening must not perturb the draw.
    EXPECT_DOUBLE_EQ(exponentialGap(0.5, 1.0), -std::log1p(-0.5));
    EXPECT_DOUBLE_EQ(exponentialGap(0.5, 3.0),
                     3.0 * exponentialGap(0.5, 1.0));
    EXPECT_LT(exponentialGap(0.25, 1.0), exponentialGap(0.75, 1.0));
}

// ---------------------------------------------------- request traces

TEST(RequestTrace, RateModulationSweepsAroundMean)
{
    serve::RequestTraceOptions options;
    options.qps = 1000.0;
    options.qpsAmplitude = 0.5;
    options.qpsPeriod = 0.02;
    EXPECT_DOUBLE_EQ(serve::rateAt(options, 0.0), 1000.0);
    EXPECT_NEAR(serve::rateAt(options, 0.005), 1500.0, 1e-6);
    EXPECT_NEAR(serve::rateAt(options, 0.015), 500.0, 1e-6);
}

TEST(RequestTrace, SeededAndStrictlyIncreasing)
{
    serve::RequestTraceOptions options;
    options.qps = 5000.0;
    options.duration = 0.02;
    const auto a = serve::makeRequestTrace(options);
    const auto b = serve::makeRequestTrace(options);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_GE(a[i], 0.0);
        EXPECT_LT(a[i], options.duration);
        if (i > 0) {
            EXPECT_GT(a[i], a[i - 1]) << "tie at request " << i;
        }
    }

    options.seed ^= 0x1234ULL;
    EXPECT_NE(serve::makeRequestTrace(options), a)
        << "different seeds gave identical request traces";
}

TEST(RequestTrace, AdversarialSeedsNeverProduceTies)
{
    // Regression sweep for the arrival-clock hardening: at high rates
    // the exponential gaps approach the double-precision spacing of
    // the clock, where an unguarded `clock += gap` can round to a
    // duplicate timestamp. Strict monotonicity must hold for every
    // seed, not just the default.
    serve::RequestTraceOptions options;
    options.qps = 2.0e6;
    options.qpsAmplitude = 0.9;
    options.qpsPeriod = 0.001;
    options.duration = 0.002;
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        options.seed = 0x5eedba5eULL + seed;
        const auto trace = serve::makeRequestTrace(options);
        ASSERT_GT(trace.size(), 1000u) << "seed " << seed;
        for (std::size_t i = 1; i < trace.size(); ++i) {
            ASSERT_GT(trace[i], trace[i - 1])
                << "seed " << seed << " tie at request " << i;
        }
    }
}

// ---------------------------------------------------------- batching

serve::ServiceModel
testModel()
{
    serve::ServiceModel model;
    model.fullBatchLatency = 0.002;
    model.profileBatch = 256;
    model.fixedFraction = 0.35;
    return model;
}

TEST(ServiceModel, InterpolatesBetweenFixedAndPerRowCost)
{
    const auto model = testModel();
    EXPECT_DOUBLE_EQ(model.serviceSeconds(256), 0.002);
    EXPECT_DOUBLE_EQ(model.serviceSeconds(1),
                     0.002 * (0.35 + 0.65 * (1.0 / 256.0)));
    EXPECT_LT(model.serviceSeconds(1), model.serviceSeconds(256));
    EXPECT_GT(model.serviceSeconds(1), 0.35 * 0.002)
        << "the fixed fraction never amortises away";
}

TEST(BatchReplay, EmptyTraceIsANoOp)
{
    const auto replay = serve::replayBatches({}, {}, testModel(), 1.5);
    EXPECT_TRUE(replay.latencies.empty());
    EXPECT_TRUE(replay.batchSizes.empty());
    EXPECT_DOUBLE_EQ(replay.lastCompletion, 1.5);
}

TEST(BatchReplay, FullBatchLaunchesWithoutWaitingOut)
{
    serve::BatchingWindow window;
    window.maxBatch = 2;
    window.maxWait = 0.01;
    const auto model = testModel();
    const auto replay =
        serve::replayBatches({0.0, 0.001}, window, model, 0.0);
    ASSERT_EQ(replay.batchSizes, (std::vector<int>{2}));
    // The batch launches the instant it fills (at the second
    // arrival), not at the 0.01 wait bound.
    const Seconds done = 0.001 + model.serviceSeconds(2);
    ASSERT_EQ(replay.latencies.size(), 2u);
    EXPECT_DOUBLE_EQ(replay.latencies[0], done);
    EXPECT_DOUBLE_EQ(replay.latencies[1], done - 0.001);
    EXPECT_DOUBLE_EQ(replay.lastCompletion, done);
}

TEST(BatchReplay, LoneRequestLaunchesAtTheWaitBound)
{
    serve::BatchingWindow window;
    window.maxBatch = 64;
    window.maxWait = 0.0005;
    const auto model = testModel();
    const auto replay = serve::replayBatches({0.0}, window, model, 0.0);
    ASSERT_EQ(replay.batchSizes, (std::vector<int>{1}));
    EXPECT_DOUBLE_EQ(replay.latencies[0],
                     0.0005 + model.serviceSeconds(1));
}

TEST(BatchReplay, BusyExecutorLaunchesBackloggedBatchImmediately)
{
    // Requests that queued while the executor was busy are already
    // past their wait bound: the next batch launches the moment the
    // executor frees up, with everything that has arrived by then.
    serve::BatchingWindow window;
    window.maxBatch = 64;
    window.maxWait = 0.0005;
    const auto model = testModel();
    const auto replay =
        serve::replayBatches({0.0, 0.0001}, window, model, 0.01);
    ASSERT_EQ(replay.batchSizes, (std::vector<int>{2}));
    const Seconds done = 0.01 + model.serviceSeconds(2);
    EXPECT_DOUBLE_EQ(replay.latencies[0], done);
    EXPECT_DOUBLE_EQ(replay.latencies[1], done - 0.0001);
}

TEST(BatchReplay, NeverExceedsMaxBatchAndServesEveryRequest)
{
    serve::RequestTraceOptions options;
    options.qps = 20000.0;
    options.duration = 0.01;
    const auto arrivals = serve::makeRequestTrace(options);
    serve::BatchingWindow window;
    window.maxBatch = 4;
    window.maxWait = 0.0002;
    const auto replay =
        serve::replayBatches(arrivals, window, testModel(), 0.0);
    EXPECT_EQ(replay.latencies.size(), arrivals.size());
    std::size_t batched = 0;
    for (const int size : replay.batchSizes) {
        EXPECT_GE(size, 1);
        EXPECT_LE(size, window.maxBatch);
        batched += static_cast<std::size_t>(size);
    }
    EXPECT_EQ(batched, arrivals.size());
    for (const Seconds latency : replay.latencies)
        EXPECT_GT(latency, 0.0);
}

// --------------------------------------------------------------- slo

TEST(SloStats, CountsAttainmentAgainstTheObjective)
{
    const std::vector<Seconds> latencies = {0.001, 0.002, 0.003,
                                            0.004, 0.005};
    const auto stats = serve::computeSloStats(latencies, 2, 0.003);
    EXPECT_EQ(stats.requests, 5u);
    EXPECT_EQ(stats.batches, 2u);
    EXPECT_EQ(stats.attained, 3u);
    EXPECT_DOUBLE_EQ(stats.sloLatency, 0.003);
    EXPECT_DOUBLE_EQ(stats.attainment(), 0.6);
    EXPECT_DOUBLE_EQ(stats.p50, 0.003);
    EXPECT_GT(stats.p99, stats.p95 - 1e-15);
}

TEST(SloStats, EmptyWindowAttainsVacuously)
{
    const auto stats = serve::computeSloStats({}, 0, 0.004);
    EXPECT_EQ(stats.requests, 0u);
    EXPECT_DOUBLE_EQ(stats.attainment(), 1.0);
    EXPECT_DOUBLE_EQ(stats.p50, 0.0);
    EXPECT_DOUBLE_EQ(stats.p99, 0.0);
}

// ------------------------------------------------- fleet integration

fleet::ArrivalTraceOptions
mixedTraceOptions()
{
    fleet::ArrivalTraceOptions options;
    options.tiny = true;
    options.jobCount = 2;
    options.meanInterarrival = 0.004;
    options.seed = 0x7e577e5702ULL;
    options.serving.jobCount = 2;
    options.serving.meanInterarrival = 0.005;
    options.serving.qps = 2000.0;
    options.serving.duration = 0.02;
    return options;
}

TEST(FleetServe, MixedTraceServesEveryRequest)
{
    const auto trace = fleet::makeArrivalTrace(mixedTraceOptions());
    int inference_jobs = 0;
    for (const auto &spec : trace)
        inference_jobs += spec.kind == fleet::JobKind::Inference;
    ASSERT_EQ(inference_jobs, 2);

    const auto report =
        fleet::FleetRequest(trace)
            .policy(fleet::PlacementPolicy::RapShared)
            .run();

    std::uint64_t requests = 0, attained = 0;
    for (const auto &job : report.jobs) {
        SCOPED_TRACE(job.spec.name);
        EXPECT_GT(job.finish, 0.0);
        if (job.spec.kind == fleet::JobKind::Inference) {
            ASSERT_TRUE(job.serve.has_value());
            EXPECT_GT(job.serve->requests, 0u);
            EXPECT_GT(job.serve->batches, 0u);
            EXPECT_LE(job.serve->attained, job.serve->requests);
            EXPECT_GT(job.serve->p50, 0.0);
            EXPECT_LE(job.serve->p50, job.serve->p99);
            EXPECT_DOUBLE_EQ(job.serve->sloLatency,
                             job.spec.sloLatency);
            requests += job.serve->requests;
            attained += job.serve->attained;
        } else {
            EXPECT_FALSE(job.serve.has_value())
                << "training jobs must not report serving stats";
        }
    }
    EXPECT_EQ(report.serveRequests, requests);
    EXPECT_EQ(report.serveAttained, attained);
    EXPECT_GT(report.serveBatches, 0u);
    ASSERT_TRUE(report.serveAttainment.has_value());
    EXPECT_NEAR(*report.serveAttainment,
                static_cast<double>(attained) /
                    static_cast<double>(requests),
                1e-12);
    ASSERT_TRUE(report.serveGoodputRps.has_value());
    EXPECT_GT(*report.serveGoodputRps, 0.0);
    ASSERT_TRUE(report.serveP99Latency.has_value());
    EXPECT_GE(*report.serveP99Latency, *report.serveP50Latency);
}

TEST(FleetServe, ReportJsonRoundTripsServingFields)
{
    const auto trace = fleet::makeArrivalTrace(mixedTraceOptions());
    const auto report =
        fleet::FleetRequest(trace)
            .policy(fleet::PlacementPolicy::RapShared)
            .run();
    ASSERT_GT(report.serveRequests, 0u);

    // The written artifact carries every serving column, and its text
    // parses back to the exact values the scheduler computed.
    const std::string text = report.toJson().dump(2);
    std::string error;
    const Json json = Json::parse(text, &error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_EQ(json.dump(2), text);

    auto count = [](const Json &object, const char *key) {
        return static_cast<std::uint64_t>(object.at(key).asDouble());
    };
    EXPECT_EQ(count(json, "serveRequests"), report.serveRequests);
    EXPECT_EQ(count(json, "serveBatches"), report.serveBatches);
    EXPECT_EQ(count(json, "serveAttained"), report.serveAttained);
    const std::pair<const char *, std::optional<double>> optionals[] = {
        {"serveAttainment", report.serveAttainment},
        {"serveGoodputRps", report.serveGoodputRps},
        {"serveP50Latency", report.serveP50Latency},
        {"serveP95Latency", report.serveP95Latency},
        {"serveP99Latency", report.serveP99Latency},
    };
    for (const auto &[key, value] : optionals) {
        ASSERT_TRUE(value.has_value()) << key;
        EXPECT_EQ(json.at(key).asDouble(), *value) << key;
    }

    const auto &jobs = json.at("jobs").elements();
    ASSERT_EQ(jobs.size(), report.jobs.size());
    for (std::size_t j = 0; j < report.jobs.size(); ++j) {
        SCOPED_TRACE("job " + std::to_string(j));
        const auto &a = report.jobs[j];
        const auto spec = fleet::JobSpec::fromJson(jobs[j].at("spec"));
        EXPECT_EQ(spec.kind, a.spec.kind);
        EXPECT_EQ(spec.requests.qps, a.spec.requests.qps);
        EXPECT_EQ(spec.requests.seed, a.spec.requests.seed);
        EXPECT_EQ(spec.window.maxBatch, a.spec.window.maxBatch);
        EXPECT_EQ(spec.sloLatency, a.spec.sloLatency);
        const Json &serve = jobs[j].at("serve");
        ASSERT_EQ(!serve.isNull(), a.serve.has_value());
        if (a.serve.has_value()) {
            EXPECT_EQ(count(serve, "requests"), a.serve->requests);
            EXPECT_EQ(count(serve, "batches"), a.serve->batches);
            EXPECT_EQ(count(serve, "attained"), a.serve->attained);
            EXPECT_EQ(serve.at("p50").asDouble(), a.serve->p50);
            EXPECT_EQ(serve.at("p95").asDouble(), a.serve->p95);
            EXPECT_EQ(serve.at("p99").asDouble(), a.serve->p99);
        }
    }
}

TEST(FleetServe, ServingColumnsAreThreadCountInvariant)
{
    const auto trace = fleet::makeArrivalTrace(mixedTraceOptions());
    fleet::FleetRequest request(trace);
    request.policy(fleet::PlacementPolicy::RapShared);
    const auto serial = request.run(nullptr);
    ThreadPool pool(4);
    const auto threaded = request.run(&pool);
    EXPECT_EQ(serial.toJson().dump(2), threaded.toJson().dump(2));
    EXPECT_EQ(serial.renderSummary(), threaded.renderSummary());
    EXPECT_EQ(serial.renderJobs(), threaded.renderJobs());
}

TEST(FleetServe, UnattainableSloStillDrainsTheQueue)
{
    // An SLO nothing can meet makes the admission gate reject every
    // shared slice; the relaxed drain scan must still place the job
    // (counting the rejections) instead of deadlocking the fleet.
    auto trace_options = mixedTraceOptions();
    trace_options.serving.sloLatency = 1e-6;
    const auto trace = fleet::makeArrivalTrace(trace_options);

    obs::MetricRegistry registry;
    const auto report =
        fleet::FleetRequest(trace)
            .policy(fleet::PlacementPolicy::RapShared)
            .metrics(&registry, "tight_slo")
            .run();

    for (const auto &job : report.jobs)
        EXPECT_GT(job.finish, 0.0) << job.spec.name;
    for (const auto &job : report.jobs) {
        if (job.spec.kind != fleet::JobKind::Inference)
            continue;
        ASSERT_TRUE(job.serve.has_value());
        EXPECT_EQ(job.serve->attained, 0u)
            << "a 1us SLO cannot be attained";
    }
    ASSERT_TRUE(report.serveAttainment.has_value());
    EXPECT_DOUBLE_EQ(*report.serveAttainment, 0.0);
}

} // namespace
} // namespace rap
