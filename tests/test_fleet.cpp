/**
 * @file
 * Fleet scheduler tests: arrival-trace synthesis, placement policies,
 * the admission queue, end-to-end fleet runs, requeue-and-replan on
 * degraded GPUs, report determinism across thread counts (all
 * comparisons EXPECT_EQ, bit-identical, not merely close), and a
 * golden-file check of the report, metrics and catalog bytes of the
 * scheduler's event paths.
 *
 * Regenerate the golden file after an intentional change with:
 *
 *   RAP_REGEN_GOLDEN=1 ./build/tests/test_fleet
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "fleet/fleet.hpp"
#include "obs/snapshot.hpp"

namespace rap::fleet {
namespace {

ArrivalTraceOptions
tinyTraceOptions(int jobs = 5)
{
    ArrivalTraceOptions options;
    options.tiny = true;
    options.jobCount = jobs;
    options.meanInterarrival = 0.01;
    options.seed = 0x7e577e5701ULL;
    return options;
}

void
expectSameFleetReport(const FleetReport &a, const FleetReport &b)
{
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.meanJct, b.meanJct);
    EXPECT_EQ(a.p50Jct, b.p50Jct);
    EXPECT_EQ(a.p95Jct, b.p95Jct);
    EXPECT_EQ(a.maxJct, b.maxJct);
    EXPECT_EQ(a.meanQueueingDelay, b.meanQueueingDelay);
    EXPECT_EQ(a.clusterSmUtil, b.clusterSmUtil);
    EXPECT_EQ(a.clusterBwUtil, b.clusterBwUtil);
    EXPECT_EQ(a.gpuOccupancy, b.gpuOccupancy);
    EXPECT_EQ(a.lostWork, b.lostWork);
    EXPECT_EQ(a.goodputSeconds, b.goodputSeconds);
    EXPECT_EQ(a.requeues, b.requeues);
    EXPECT_EQ(a.crashRequeues, b.crashRequeues);
    EXPECT_EQ(a.simulationsRun, b.simulationsRun);
    EXPECT_EQ(a.serveRequests, b.serveRequests);
    EXPECT_EQ(a.serveBatches, b.serveBatches);
    EXPECT_EQ(a.serveAttained, b.serveAttained);
    EXPECT_EQ(a.serveAttainment, b.serveAttainment);
    EXPECT_EQ(a.serveGoodputRps, b.serveGoodputRps);
    EXPECT_EQ(a.serveP50Latency, b.serveP50Latency);
    EXPECT_EQ(a.serveP95Latency, b.serveP95Latency);
    EXPECT_EQ(a.serveP99Latency, b.serveP99Latency);
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t j = 0; j < a.jobs.size(); ++j) {
        SCOPED_TRACE("job " + std::to_string(j));
        EXPECT_EQ(a.jobs[j].firstStart, b.jobs[j].firstStart);
        EXPECT_EQ(a.jobs[j].finish, b.jobs[j].finish);
        EXPECT_EQ(a.jobs[j].placements, b.jobs[j].placements);
        EXPECT_EQ(a.jobs[j].requeues, b.jobs[j].requeues);
        EXPECT_EQ(a.jobs[j].crashRequeues, b.jobs[j].crashRequeues);
        EXPECT_EQ(a.jobs[j].serviceTime, b.jobs[j].serviceTime);
        EXPECT_EQ(a.jobs[j].lostWork, b.jobs[j].lostWork);
        EXPECT_EQ(a.jobs[j].lastGpus, b.jobs[j].lastGpus);
        ASSERT_EQ(a.jobs[j].serve.has_value(),
                  b.jobs[j].serve.has_value());
        if (a.jobs[j].serve.has_value()) {
            EXPECT_EQ(a.jobs[j].serve->requests,
                      b.jobs[j].serve->requests);
            EXPECT_EQ(a.jobs[j].serve->attained,
                      b.jobs[j].serve->attained);
            EXPECT_EQ(a.jobs[j].serve->p99, b.jobs[j].serve->p99);
        }
        EXPECT_EQ(a.jobs[j].report.makespan, b.jobs[j].report.makespan);
        EXPECT_EQ(a.jobs[j].report.submittedAt,
                  b.jobs[j].report.submittedAt);
        EXPECT_EQ(a.jobs[j].report.startedAt,
                  b.jobs[j].report.startedAt);
        EXPECT_EQ(a.jobs[j].report.finishedAt,
                  b.jobs[j].report.finishedAt);
    }
    // Rendered artefacts must match byte for byte (the CI diff runs
    // on bench_fleet output built from exactly these renderers).
    EXPECT_EQ(a.renderSummary(), b.renderSummary());
    EXPECT_EQ(a.renderJobs(), b.renderJobs());
}

TEST(FleetJob, ArrivalTraceIsSeededAndOrdered)
{
    const auto a = makeArrivalTrace(tinyTraceOptions(12));
    const auto b = makeArrivalTrace(tinyTraceOptions(12));
    ASSERT_EQ(a.size(), 12u);
    for (std::size_t j = 0; j < a.size(); ++j) {
        EXPECT_EQ(a[j].id, static_cast<int>(j));
        EXPECT_EQ(a[j].arrival, b[j].arrival);
        EXPECT_EQ(a[j].gpusRequested, b[j].gpusRequested);
        EXPECT_EQ(a[j].planId, b[j].planId);
        EXPECT_EQ(a[j].batchPerGpu, b[j].batchPerGpu);
        EXPECT_GE(a[j].gpusRequested, 1);
        EXPECT_LE(a[j].gpusRequested, 8);
        if (j > 0) {
            EXPECT_GE(a[j].arrival, a[j - 1].arrival);
        }
    }

    auto other_options = tinyTraceOptions(12);
    other_options.seed ^= 0xabcdefULL;
    const auto c = makeArrivalTrace(other_options);
    bool any_diff = false;
    for (std::size_t j = 0; j < a.size(); ++j)
        any_diff = any_diff || c[j].arrival != a[j].arrival;
    EXPECT_TRUE(any_diff) << "different seeds gave identical traces";
}

TEST(FleetPlacement, ExclusiveRefusesOccupiedGpus)
{
    std::vector<GpuState> gpus(4);
    gpus[0].residents = 1;
    gpus[0].smUsed = 0.4;
    PlacementOptions options;
    options.policy = PlacementPolicy::ExclusiveFirstFit;

    const auto two = placeJob(options, gpus, 2, {0.3, 0.3});
    ASSERT_TRUE(two.has_value());
    EXPECT_EQ(two->gpuIds, (std::vector<int>{1, 2}));
    EXPECT_EQ(two->envelopes[0].sm, 1.0);

    const auto four = placeJob(options, gpus, 4, {0.3, 0.3});
    EXPECT_FALSE(four.has_value()) << "only three GPUs are free";
}

TEST(FleetPlacement, BestFitPrefersHealthyGpus)
{
    std::vector<GpuState> gpus(3);
    gpus[0].healthSm = 0.6; // degraded
    PlacementOptions options;
    options.policy = PlacementPolicy::ExclusiveBestFit;
    const auto placement = placeJob(options, gpus, 2, {0.3, 0.3});
    ASSERT_TRUE(placement.has_value());
    EXPECT_EQ(placement->gpuIds, (std::vector<int>{1, 2}))
        << "the degraded GPU should be picked last";
}

TEST(FleetPlacement, SharedCoLocatesUnderHeadroom)
{
    std::vector<GpuState> gpus(2);
    gpus[0].residents = 1;
    gpus[0].smUsed = 0.5;
    gpus[0].bwUsed = 0.3;
    PlacementOptions options;
    options.policy = PlacementPolicy::RapShared;
    options.headroom = 0.95;
    options.minEnvelope = 0.3;
    options.demandScale = 1.0; // strict reservation for exact sums

    // A whole free GPU beats any leftover slice: same speed as an
    // exclusive grant.
    const auto whole = placeJob(options, gpus, 1, {0.3, 0.3});
    ASSERT_TRUE(whole.has_value());
    EXPECT_EQ(whole->gpuIds, (std::vector<int>{1}));
    EXPECT_DOUBLE_EQ(whole->envelopes[0].sm, 1.0);

    // With no free GPU left, the job squeezes in beside the lighter
    // incumbent and receives the leftover slice as its envelope.
    gpus[1].residents = 1;
    gpus[1].smUsed = 0.6;
    gpus[1].bwUsed = 0.6;
    const auto slice = placeJob(options, gpus, 1, {0.3, 0.3});
    ASSERT_TRUE(slice.has_value());
    EXPECT_EQ(slice->gpuIds, (std::vector<int>{0}));
    EXPECT_DOUBLE_EQ(slice->envelopes[0].sm, 0.5);
    EXPECT_DOUBLE_EQ(slice->envelopes[0].bw, 0.7);

    // Nothing fits when every GPU is saturated.
    gpus[0].smUsed = 0.8;
    gpus[1].smUsed = 0.8;
    gpus[1].bwUsed = 0.8;
    const auto none = placeJob(options, gpus, 1, {0.4, 0.4});
    EXPECT_FALSE(none.has_value());
}

TEST(FleetPlacement, SharedRespectsMinEnvelope)
{
    std::vector<GpuState> gpus(1);
    gpus[0].residents = 1;
    gpus[0].smUsed = 0.8;
    PlacementOptions options;
    options.policy = PlacementPolicy::RapShared;
    options.headroom = 1.0;
    options.minEnvelope = 0.3;
    // The 0.1 demand fits under headroom, but the leftover slice
    // (0.2) is below the minimum worth granting.
    EXPECT_FALSE(placeJob(options, gpus, 1, {0.1, 0.1}).has_value());
}

TEST(FleetPlacement, DemandScaleAdmitsInterleavingJobs)
{
    // Two training jobs averaging 0.75 SM can share one GPU: their
    // bursts interleave, so reservations use discounted demand. With
    // strict reservation (scale 1.0) the same pair is refused.
    std::vector<GpuState> gpus(1);
    gpus[0].residents = 1;
    gpus[0].smUsed = 0.6 * 0.75; // incumbent's discounted share
    gpus[0].bwUsed = 0.6 * 0.20;
    PlacementOptions options;
    options.policy = PlacementPolicy::RapShared;

    const auto shared = placeJob(options, gpus, 1, {0.75, 0.20});
    ASSERT_TRUE(shared.has_value());
    EXPECT_DOUBLE_EQ(shared->envelopes[0].sm, 1.0 - 0.6 * 0.75);

    auto strict = options;
    strict.demandScale = 1.0;
    EXPECT_FALSE(placeJob(strict, gpus, 1, {0.75, 0.20}).has_value());
}

TEST(FleetPlacement, DegradedGpuReconcilesReservationsWithHealth)
{
    // Regression: admission bounded reservations by headroom x
    // *degraded* health while the min-envelope floor read the raw
    // free share (health - used, no headroom), so a degraded GPU
    // could admit a job into a slice the admission bound itself said
    // was not reservable. Both checks now share the clamped
    // reservable capacity.
    std::vector<GpuState> gpus(1);
    gpus[0].residents = 1;
    gpus[0].smUsed = 0.2;
    gpus[0].bwUsed = 0.2;
    PlacementOptions options;
    options.policy = PlacementPolicy::RapShared;
    options.headroom = 0.9;
    options.minEnvelope = 0.3;
    options.demandScale = 1.0;

    // Healthy control: 0.9 - 0.2 = 0.7 reservable, well over the
    // floor — the co-location is admitted.
    ASSERT_TRUE(placeJob(options, gpus, 1, {0.25, 0.25}).has_value());

    // A mid-run degradation to 0.55 leaves 0.9 * 0.55 - 0.2 = 0.295
    // reservable: under the 0.3 floor, so the slice is not worth
    // granting — even though the raw free share (0.35) still clears
    // the floor, which is exactly what the old check admitted on.
    gpus[0].healthSm = 0.55;
    gpus[0].healthBw = 0.55;
    EXPECT_FALSE(placeJob(options, gpus, 1, {0.25, 0.25}).has_value());

    // Stale over-reservation: incumbents reserved 0.6 before the GPU
    // degraded to 0.5, so nothing is reservable (clamped to 0, not
    // negative) and even a tiny newcomer is refused.
    gpus[0].smUsed = 0.6;
    gpus[0].healthSm = 0.5;
    options.minEnvelope = 0.0;
    EXPECT_DOUBLE_EQ(gpus[0].reservableSm(options.headroom), 0.0);
    EXPECT_FALSE(placeJob(options, gpus, 1, {0.01, 0.01}).has_value());
}

TEST(FleetQueue, FifoWithFrontReinsertion)
{
    AdmissionQueue queue;
    queue.push({0, 1.0, 0.0, 0});
    queue.push({1, 1.0, 0.1, 0});
    queue.pushFront({2, 0.5, 0.2, 1});
    ASSERT_EQ(queue.size(), 3u);
    EXPECT_EQ(queue.jobs()[0].jobId, 2);
    EXPECT_EQ(queue.jobs()[1].jobId, 0);

    const auto middle = queue.take(1);
    EXPECT_EQ(middle.jobId, 0);
    ASSERT_EQ(queue.size(), 2u);
    EXPECT_EQ(queue.jobs()[0].jobId, 2);
    EXPECT_EQ(queue.jobs()[1].jobId, 1);
}

TEST(FleetScheduler, AllJobsFinishWithSaneLifecycles)
{
    const auto trace = makeArrivalTrace(tinyTraceOptions(5));
    const auto report =
        FleetRequest(trace)
            .policy(PlacementPolicy::ExclusiveFirstFit)
            .run();

    ASSERT_EQ(report.jobs.size(), trace.size());
    for (const auto &job : report.jobs) {
        SCOPED_TRACE(job.spec.name);
        EXPECT_GE(job.firstStart, job.spec.arrival);
        EXPECT_GT(job.finish, job.firstStart);
        EXPECT_GT(job.serviceTime, 0.0);
        EXPECT_EQ(job.placements, 1);
        EXPECT_EQ(static_cast<int>(job.lastGpus.size()),
                  job.spec.gpusRequested);
        // The lifecycle timestamps flow into the job's RunReport.
        EXPECT_EQ(job.report.submittedAt, job.spec.arrival);
        EXPECT_EQ(job.report.startedAt, job.firstStart);
        EXPECT_EQ(job.report.finishedAt, job.finish);
        EXPECT_EQ(job.report.queueingDelay(), job.queueingDelay());
        EXPECT_EQ(job.report.jobCompletionTime(),
                  job.jobCompletionTime());
    }
    EXPECT_GT(report.makespan, 0.0);
    EXPECT_GT(report.meanJct, 0.0);
    EXPECT_GT(report.clusterSmUtil, 0.0);
    EXPECT_GT(report.gpuOccupancy, 0.0);
    EXPECT_LE(report.gpuOccupancy, 1.0 + 1e-12);
    EXPECT_EQ(report.requeues, 0);
}

TEST(FleetScheduler, SharedPlacementCoLocatesJobs)
{
    const auto trace = makeArrivalTrace(tinyTraceOptions(5));
    const auto report = FleetRequest(trace)
                            .policy(PlacementPolicy::RapShared)
                            .run();
    for (const auto &job : report.jobs) {
        EXPECT_GT(job.finish, 0.0) << job.spec.name;
        EXPECT_GE(job.queueingDelay(), 0.0) << job.spec.name;
    }
    EXPECT_GT(report.makespan, 0.0);
}

TEST(FleetScheduler, DegradeRequeuesAndReplansResidentJobs)
{
    // One long job starts immediately on an idle node; a mid-run SM
    // degradation on its GPU must preempt it, requeue it with its
    // completed fraction, and re-place it against the shrunken
    // envelope — finishing later than the healthy run.
    auto trace = makeArrivalTrace(tinyTraceOptions(2));
    for (auto &spec : trace) {
        spec.gpusRequested = 1;
        spec.planId = 0;
        spec.iterations = 8;
    }
    auto makeRequest = [&] {
        FleetRequest request(trace);
        request.policy(PlacementPolicy::ExclusiveFirstFit);
        return request;
    };
    const auto healthy = makeRequest().run();
    ASSERT_GT(healthy.makespan, 0.0);

    const auto degraded =
        makeRequest()
            .addFault(sim::FaultEvent::smDegrade(
                0, healthy.jobs[0].firstStart +
                       0.5 * healthy.jobs[0].serviceTime,
                0.5))
            .run();

    EXPECT_GE(degraded.requeues, 1);
    const auto &job0 = degraded.jobs[0];
    EXPECT_GE(job0.requeues, 1);
    EXPECT_GE(job0.placements, 2);
    EXPECT_GT(job0.finish, healthy.jobs[0].finish)
        << "losing half the SMs mid-run cannot speed the job up";
    for (const auto &job : degraded.jobs)
        EXPECT_GT(job.finish, 0.0) << job.spec.name;
}

TEST(FleetScheduler, LaterMilderFaultCannotRestoreCapacity)
{
    // Regression: the degrade handler assigned `healthSm = factor`,
    // so a later, milder fault on an already-degraded GPU *raised*
    // its capacity back toward healthy and the re-placed job ran
    // faster than physics allows. Degradations compose by min: after
    // 0.7 then 0.95, the GPU still runs at 0.7.
    auto trace = makeArrivalTrace(tinyTraceOptions(1));
    trace[0].gpusRequested = 1;
    trace[0].planId = 0;
    trace[0].iterations = 8;
    auto makeRequest = [&] {
        FleetRequest request(trace);
        request.policy(PlacementPolicy::ExclusiveFirstFit);
        return request;
    };
    const auto healthy = makeRequest().run();
    const int gpu = healthy.jobs[0].lastGpus.at(0);
    const Seconds start = healthy.jobs[0].firstStart;
    const Seconds segment = healthy.jobs[0].serviceTime;

    const auto first_fault =
        sim::FaultEvent::smDegrade(gpu, start + 0.4 * segment, 0.7);
    const auto single = makeRequest().addFault(first_fault).run();
    ASSERT_GE(single.jobs[0].requeues, 1);

    const auto composed =
        makeRequest()
            .addFault(first_fault)
            .addFault(sim::FaultEvent::smDegrade(
                gpu, start + 0.6 * segment, 0.95))
            .run();

    // The second preemption costs work on its own; what it must NOT
    // do is hand the job a 0.95-health GPU whose faster final segment
    // beats the single-fault run (the restore bug made it finish
    // earlier despite restarting twice).
    EXPECT_GE(composed.jobs[0].requeues, 2);
    EXPECT_GT(composed.jobs[0].finish, single.jobs[0].finish)
        << "a second (milder) fault cannot speed the job up";
}

TEST(FleetScheduler, UncheckpointedPreemptionLosesAllElapsedWork)
{
    // Crediting regression: a preempted job that never checkpoints
    // has no durable progress — it restarts from scratch and every
    // elapsed second of its cut-short segment is lost work.
    auto trace = makeArrivalTrace(tinyTraceOptions(1));
    trace[0].gpusRequested = 1;
    trace[0].planId = 0;
    trace[0].iterations = 8;
    auto makeRequest = [&] {
        FleetRequest request(trace);
        request.policy(PlacementPolicy::ExclusiveFirstFit);
        return request;
    };
    const auto healthy = makeRequest().run();
    const Seconds fault_time = healthy.jobs[0].firstStart +
                               0.5 * healthy.jobs[0].serviceTime;

    const auto degraded =
        makeRequest()
            .addFault(sim::FaultEvent::smDegrade(
                healthy.jobs[0].lastGpus[0], fault_time, 0.5))
            .run();

    const auto &job = degraded.jobs[0];
    ASSERT_GE(job.requeues, 1);
    EXPECT_DOUBLE_EQ(job.lostWork, fault_time - job.firstStart);
    EXPECT_DOUBLE_EQ(degraded.lostWork, job.lostWork);
    EXPECT_DOUBLE_EQ(degraded.goodputSeconds,
                     job.serviceTime - job.lostWork);
}

TEST(FleetScheduler, CheckpointedJobResumesFromDurableFraction)
{
    // The same preemption against a job checkpointing every
    // iteration: progress rounds down to the last sealed 1/8, so only
    // the sub-interval tail is lost — strictly less than the elapsed
    // segment time the uncheckpointed job forfeits.
    auto trace = makeArrivalTrace(tinyTraceOptions(1));
    trace[0].gpusRequested = 1;
    trace[0].planId = 0;
    trace[0].iterations = 8;
    trace[0].checkpointInterval = 1;
    auto makeRequest = [&] {
        FleetRequest request(trace);
        request.policy(PlacementPolicy::ExclusiveFirstFit);
        return request;
    };
    const auto healthy = makeRequest().run();
    const Seconds segment = healthy.jobs[0].serviceTime;
    // 0.4 of the segment elapses: 3 of 8 iterations (0.375) are
    // sealed; the 0.025-segment remainder is forfeited.
    const Seconds fault_time =
        healthy.jobs[0].firstStart + 0.4 * segment;

    const auto degraded =
        makeRequest()
            .addFault(sim::FaultEvent::smDegrade(
                healthy.jobs[0].lastGpus[0], fault_time, 0.5))
            .run();

    const auto &job = degraded.jobs[0];
    ASSERT_GE(job.requeues, 1);
    EXPECT_GT(job.lostWork, 0.0);
    EXPECT_NEAR(job.lostWork, 0.025 * segment, 1e-9);
    EXPECT_LT(job.lostWork, fault_time - job.firstStart);
}

TEST(FleetScheduler, RestartOverheadDelaysTheResumedSegment)
{
    auto trace = makeArrivalTrace(tinyTraceOptions(1));
    trace[0].gpusRequested = 1;
    trace[0].planId = 0;
    trace[0].iterations = 8;
    auto makeRequest = [&] {
        FleetRequest request(trace);
        request.policy(PlacementPolicy::ExclusiveFirstFit);
        return request;
    };
    const auto healthy = makeRequest().run();
    const Seconds fault_time = healthy.jobs[0].firstStart +
                               0.5 * healthy.jobs[0].serviceTime;

    const auto fault = sim::FaultEvent::smDegrade(
        healthy.jobs[0].lastGpus[0], fault_time, 0.5);
    const auto free_restart = makeRequest().addFault(fault).run();
    ASSERT_GE(free_restart.jobs[0].requeues, 1);

    const auto charged =
        makeRequest().addFault(fault).restartOverhead(0.05).run();
    // One resumed segment, so exactly one restart charge lands on the
    // timeline.
    EXPECT_NEAR(charged.jobs[0].finish,
                free_restart.jobs[0].finish + 0.05, 1e-9);
}

TEST(FleetScheduler, DeviceCrashExcludesGpuAndRequeuesResidents)
{
    auto trace = makeArrivalTrace(tinyTraceOptions(1));
    trace[0].gpusRequested = 1;
    trace[0].planId = 0;
    trace[0].iterations = 8;
    const auto healthy =
        FleetRequest(trace)
            .policy(PlacementPolicy::ExclusiveFirstFit)
            .run();
    const int gpu = healthy.jobs[0].lastGpus.at(0);
    const Seconds crash_time = healthy.jobs[0].firstStart +
                               0.5 * healthy.jobs[0].serviceTime;

    // A crash preempts its residents — there is no way to keep
    // running on a dead GPU.
    obs::MetricRegistry registry;
    const auto report =
        FleetRequest(trace)
            .policy(PlacementPolicy::ExclusiveFirstFit)
            .addFault(sim::FaultEvent::deviceCrash(gpu, crash_time))
            .metrics(&registry)
            .run();

    EXPECT_EQ(report.crashRequeues, 1);
    const auto &job = report.jobs[0];
    EXPECT_EQ(job.crashRequeues, 1);
    EXPECT_GE(job.requeues, 1);
    EXPECT_GT(job.lostWork, 0.0);
    EXPECT_GT(job.finish, healthy.jobs[0].finish);
    for (const int placed : job.lastGpus)
        EXPECT_NE(placed, gpu)
            << "the crashed GPU must be unplaceable";
    const std::string snapshot = obs::snapshotJson(registry).dump(2);
    EXPECT_NE(snapshot.find("fleet.crash_requeues"),
              std::string::npos);
}

TEST(FleetScheduler, ReportBitIdenticalAcrossThreadCounts)
{
    const auto trace = makeArrivalTrace(tinyTraceOptions(6));
    for (const auto policy : {PlacementPolicy::ExclusiveFirstFit,
                              PlacementPolicy::RapShared}) {
        SCOPED_TRACE(policyName(policy));
        // One request, two run() calls: the builder is reusable.
        FleetRequest request(trace);
        request.policy(policy);
        const auto serial = request.run(nullptr);
        ThreadPool pool(4);
        const auto threaded = request.run(&pool);
        expectSameFleetReport(serial, threaded);
    }
}

/** One pinned fleet run: a trace plus the request knobs it adds. */
struct FleetGoldenCase
{
    std::string name;
    std::vector<JobSpec> trace;
    std::function<void(FleetRequest &)> configure;
    /** Run against a fresh catalog and pin its WAL transactions. */
    bool catalog = false;
};

/** A training + inference mix, as in the serving tests. */
ArrivalTraceOptions
mixedTraceOptions()
{
    auto options = tinyTraceOptions(2);
    options.meanInterarrival = 0.004;
    options.seed = 0x7e577e5702ULL;
    options.serving.jobCount = 2;
    options.serving.meanInterarrival = 0.005;
    options.serving.qps = 2000.0;
    options.serving.duration = 0.02;
    return options;
}

/**
 * The preemption variant: job 0 checkpoints every iteration, an SM
 * degrade lands mid-segment on its GPU and a crash lands mid-segment
 * on job 1's, so the run seals, preempts and crash-requeues.
 */
FleetGoldenCase
faultCase()
{
    auto trace = makeArrivalTrace(tinyTraceOptions(4));
    trace[0].gpusRequested = 1;
    trace[0].planId = 0;
    trace[0].iterations = 8;
    trace[0].checkpointInterval = 1;
    const auto healthy =
        FleetRequest(trace).policy(PlacementPolicy::RapShared).run();
    const auto midSegment = [&healthy](int job, double at) {
        const auto &outcome =
            healthy.jobs[static_cast<std::size_t>(job)];
        return outcome.firstStart + at * outcome.serviceTime;
    };
    sim::FaultSpec faults;
    faults.events.push_back(sim::FaultEvent::smDegrade(
        healthy.jobs[0].lastGpus.at(0), midSegment(0, 0.4), 0.5));
    faults.events.push_back(sim::FaultEvent::deviceCrash(
        healthy.jobs[1].lastGpus.at(0), midSegment(1, 0.5)));
    return {"rap_shared+faults",
            trace,
            [faults](FleetRequest &request) {
                request.options().faults = faults;
                request.policy(PlacementPolicy::RapShared)
                    .restartOverhead(0.002);
            },
            true};
}

std::vector<FleetGoldenCase>
fleetGoldenCases()
{
    const auto training = makeArrivalTrace(tinyTraceOptions(5));
    std::vector<FleetGoldenCase> cases;
    for (const auto policy : {PlacementPolicy::ExclusiveFirstFit,
                              PlacementPolicy::RapShared}) {
        cases.push_back({policyId(policy), training,
                         [policy](FleetRequest &request) {
                             request.policy(policy);
                         }});
    }
    cases.push_back(faultCase());
    // Training jobs spanning the whole node push the serving jobs
    // onto shared slices, where a 100 us SLO fails the gate; they
    // wait for whole devices instead.
    auto mixed_options = mixedTraceOptions();
    mixed_options.serving.sloLatency = 1e-4;
    auto mixed = makeArrivalTrace(mixed_options);
    for (auto &spec : mixed) {
        if (spec.kind == JobKind::Training)
            spec.gpusRequested = 8;
    }
    cases.push_back({"serve_mix+slo_gate", mixed,
                     [](FleetRequest &request) {
                         request.policy(PlacementPolicy::RapShared);
                     },
                     true});
    // Every GPU degraded below minEnvelope before the first arrival:
    // only the relaxed scan can place anything. The raised
    // minEnvelope keeps the degraded devices large enough for the
    // relaxed scan to fit every job's discounted demand.
    cases.push_back({"rap_shared+below_min_envelope", training,
                     [](FleetRequest &request) {
                         PlacementOptions placement;
                         placement.minEnvelope = 0.6;
                         request.options().placement = placement;
                         request.addFault(
                             sim::FaultEvent::smDegrade(-1, 0.0, 0.6));
                     }});
    return cases;
}

/** Report, metrics snapshot and (catalog cases) WAL of one case. */
Json
runGoldenCase(const FleetGoldenCase &golden_case)
{
    obs::MetricRegistry registry;
    Json result = Json::object();
    // Per test, so concurrently running tests never share a catalog.
    const std::string test =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    const auto dir =
        std::filesystem::temp_directory_path() /
        ("rap_test_fleet." + test + "." + golden_case.name);
    {
        FleetRequest request(golden_case.trace);
        golden_case.configure(request);
        request.metrics(&registry, golden_case.name);
        std::unique_ptr<ctrl::Catalog> catalog;
        if (golden_case.catalog) {
            std::filesystem::remove_all(dir);
            ctrl::CatalogOptions options;
            options.dir = dir.string();
            options.metrics = &registry;
            catalog = ctrl::Catalog::open(options);
            request.catalog(catalog.get());
        }
        result.set("report", request.run().toJson());
    }
    result.set("metrics", obs::snapshotJson(registry));
    if (golden_case.catalog) {
        ctrl::CatalogOptions options;
        options.dir = dir.string();
        options.readOnly = true;
        const auto catalog = ctrl::Catalog::tryOpen(options);
        EXPECT_NE(catalog, nullptr) << golden_case.name;
        Json wal = Json::array();
        if (catalog != nullptr) {
            for (const auto &[lsn, payload] : catalog->recoveredTail())
                wal.push(Json(payload));
        }
        result.set("wal", std::move(wal));
        std::filesystem::remove_all(dir);
    }
    return result;
}

TEST(FleetGolden, EveryCaseMatchesGoldenFile)
{
    Json actual = Json::object();
    for (const auto &golden_case : fleetGoldenCases())
        actual.set(golden_case.name, runGoldenCase(golden_case));
    const std::string rendered = actual.dump(2);
    const std::string golden_path =
        std::string(RAP_TESTS_DIR) + "/golden/fleet_reports.json";

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
    const Json expected = Json::parse(text.str());
    ASSERT_TRUE(expected.isObject()) << "unparseable " << golden_path;
    for (const auto &[name, result] : actual.members()) {
        const Json *want = expected.find(name);
        ASSERT_NE(want, nullptr) << "golden file lacks case " << name;
        for (const auto &[part, bytes] : result.members()) {
            const Json *want_part = want->find(part);
            ASSERT_NE(want_part, nullptr) << name << " lacks " << part;
            EXPECT_EQ(bytes.dump(2), want_part->dump(2))
                << part << " of " << name
                << " drifted from the golden file; if the change is "
                   "intentional, regenerate with RAP_REGEN_GOLDEN=1";
        }
    }
    EXPECT_EQ(rendered, text.str())
        << "golden file cases differ from the test's case list";
}

/** The variants above must actually take the paths they name. */
TEST(FleetGolden, VariantsExerciseTheirPaths)
{
    std::map<std::string, Json> results;
    for (const auto &golden_case : fleetGoldenCases())
        results[golden_case.name] = runGoldenCase(golden_case);

    const auto counter = [&results](const std::string &name,
                                    const std::string &instrument) {
        for (const Json &entry :
             results.at(name).at("metrics").at("counters").elements()) {
            if (entry.at("name").asString() == instrument)
                return entry.at("value").asDouble();
        }
        return 0.0;
    };
    EXPECT_GT(counter("serve_mix+slo_gate", "fleet.slo_rejections"), 0.0);
    EXPECT_GT(counter("rap_shared+below_min_envelope",
                      "fleet.relaxed_scans"),
              0.0);

    std::string wal;
    for (const Json &payload :
         results.at("rap_shared+faults").at("wal").elements())
        wal += payload.asString();
    for (const char *op : {"\"seal\"", "\"preempt\"", "\"device_crash\""})
        EXPECT_NE(wal.find(op), std::string::npos) << op;
    const Json &report = results.at("rap_shared+faults").at("report");
    EXPECT_GT(report.at("crashRequeues").asDouble(), 0.0);
}

TEST(FleetPlacement, PolicyIdRoundTrips)
{
    for (auto policy : {PlacementPolicy::ExclusiveFirstFit,
                        PlacementPolicy::ExclusiveBestFit,
                        PlacementPolicy::RapShared}) {
        EXPECT_EQ(policyFromId(policyId(policy)), policy);
    }
    EXPECT_EQ(policyId(PlacementPolicy::RapShared), "rap_shared");
}

TEST(FleetReportJson, AbsentServeFieldsRoundTripAsNull)
{
    // A training-only fleet has no serving stats: the optional SLO
    // columns must serialize as explicit nulls (never garbage or
    // zero-valued numbers), and so must every job's serve block.
    const auto trace = makeArrivalTrace(tinyTraceOptions(3));
    const auto report =
        FleetRequest(trace)
            .policy(PlacementPolicy::ExclusiveFirstFit)
            .run();
    EXPECT_EQ(report.serveRequests, 0u);
    EXPECT_FALSE(report.serveAttainment.has_value());
    EXPECT_FALSE(report.serveGoodputRps.has_value());
    EXPECT_FALSE(report.serveP50Latency.has_value());
    EXPECT_FALSE(report.serveP95Latency.has_value());
    EXPECT_FALSE(report.serveP99Latency.has_value());

    const Json json = report.toJson();
    for (const char *field :
         {"serveAttainment", "serveGoodputRps", "serveP50Latency",
          "serveP95Latency", "serveP99Latency"}) {
        const Json *value = json.find(field);
        ASSERT_NE(value, nullptr) << field;
        EXPECT_TRUE(value->isNull()) << field;
    }

    const auto &jobs = json.at("jobs").elements();
    ASSERT_EQ(jobs.size(), report.jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        EXPECT_FALSE(report.jobs[j].serve.has_value()) << j;
        EXPECT_TRUE(jobs[j].at("serve").isNull()) << j;
    }
}

TEST(FleetMetrics, SnapshotIsThreadCountInvariant)
{
    const auto trace = makeArrivalTrace(tinyTraceOptions(5));

    auto snapshotFor = [&](ThreadPool *pool) {
        obs::MetricRegistry registry;
        FleetRequest(trace)
            .policy(PlacementPolicy::RapShared)
            .metrics(&registry, "test")
            .run(pool);
        return obs::snapshotJson(registry).dump(2);
    };

    const std::string serial = snapshotFor(nullptr);
    ThreadPool pool(4);
    EXPECT_EQ(snapshotFor(&pool), serial);
    // The scheduler's instruments all made it into the snapshot.
    for (const char *name :
         {"fleet.placements", "fleet.memo.", "fleet.reference_sims",
          "fleet.queue.max_depth", "fleet.queue_depth",
          "fleet.segment", "fleet.run", "fleet.precompute"}) {
        EXPECT_NE(serial.find(name), std::string::npos) << name;
    }
}

bool
hasError(const ValidationResult &result,
         const std::string &field)
{
    for (const auto &error : result.errors())
        if (error.field == field)
            return true;
    return false;
}

TEST(FleetRequestValidation, WellFormedRequestValidates)
{
    FleetRequest request(makeArrivalTrace(tinyTraceOptions(3)));
    request.policy(PlacementPolicy::RapShared)
        .restartOverhead(0.05);
    const auto result = request.validate();
    EXPECT_TRUE(result.ok()) << result.render();
}

TEST(FleetRequestValidation, BadKnobsAreRejectedNotClamped)
{
    FleetRequest request(makeArrivalTrace(tinyTraceOptions(2)));
    request.restartOverhead(-1.0);
    request.options().placement.headroom = 1.5;
    request.options().placement.demandScale = 0.0;

    const auto result = request.validate();
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(hasError(result, "restartOverhead"));
    EXPECT_TRUE(hasError(result, "placement.headroom"));
    EXPECT_TRUE(hasError(result, "placement.demandScale"));
    // Every problem surfaces at once, one rendered line each.
    EXPECT_GE(result.errors().size(), 3u);
    EXPECT_NE(result.render().find("restartOverhead: "),
              std::string::npos);
}

TEST(FleetRequestValidation, MalformedTraceAndFaultsAreNamed)
{
    auto trace = makeArrivalTrace(tinyTraceOptions(2));
    trace[1].id = 7; // ids must stay dense
    FleetRequest request(std::move(trace));
    request.addFault(sim::FaultEvent::smDegrade(99, -1.0, 0.0));

    const auto result = request.validate();
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(hasError(result, "jobs[1].id"));
    EXPECT_TRUE(hasError(result, "faults.events[0].device"));
    EXPECT_TRUE(hasError(result, "faults.events[0].time"));
    EXPECT_TRUE(hasError(result, "faults.events[0].factor"));
}

TEST(FleetRequestValidation, CatalogComboRulesAreEnforced)
{
    // A stop point without any catalog would just lose the run.
    FleetRequest stop_without(makeArrivalTrace(tinyTraceOptions(2)));
    stop_without.stopAfterEvents(4);
    EXPECT_TRUE(
        hasError(stop_without.validate(), "stopAfterEvents"));
}

} // namespace
} // namespace rap::fleet
