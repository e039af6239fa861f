/**
 * @file
 * Slow fleet suite: the full-size arrival trace under every policy,
 * the headline acceptance comparison (envelope sharing must beat
 * exclusive placement on mean JCT and cluster utilisation), and a
 * fault storm that degrades several GPUs mid-run.
 */

#include <gtest/gtest.h>

#include "fleet/fleet.hpp"

namespace rap::fleet {
namespace {

std::vector<JobSpec>
fullTrace()
{
    ArrivalTraceOptions options;
    options.jobCount = 14;
    options.meanInterarrival = 0.005;
    return makeArrivalTrace(options);
}

FleetReport
runPolicy(const std::vector<JobSpec> &trace, PlacementPolicy policy,
          ThreadPool &pool)
{
    return FleetRequest(trace).policy(policy).run(&pool);
}

TEST(FleetStress, SharedBeatsExclusiveOnJctAndUtilisation)
{
    const auto trace = fullTrace();
    ThreadPool pool(4);
    const auto exclusive =
        runPolicy(trace, PlacementPolicy::ExclusiveFirstFit, pool);
    const auto best_fit =
        runPolicy(trace, PlacementPolicy::ExclusiveBestFit, pool);
    const auto shared =
        runPolicy(trace, PlacementPolicy::RapShared, pool);

    for (const auto *report : {&exclusive, &best_fit, &shared}) {
        SCOPED_TRACE(policyName(report->policy));
        ASSERT_EQ(report->jobs.size(), trace.size());
        for (const auto &job : report->jobs)
            EXPECT_GT(job.finish, 0.0) << job.spec.name;
        EXPECT_GT(report->makespan, 0.0);
    }

    // The paper's headline at fleet scale: envelope sharing turns
    // queueing delay into co-location, improving both completion time
    // and how much of the node actually does work.
    EXPECT_LT(shared.meanJct, exclusive.meanJct);
    EXPECT_GT(shared.clusterSmUtil, exclusive.clusterSmUtil);
    EXPECT_LT(shared.meanQueueingDelay, exclusive.meanQueueingDelay);
    // Spatial sharing optimises completion time, not makespan: a job
    // that accepted a slice instead of queueing may finish last. Allow
    // a bounded tail stretch.
    EXPECT_LE(shared.makespan, 1.10 * exclusive.makespan);
}

TEST(FleetStress, FaultStormStillFinishesEveryJob)
{
    const auto trace = fullTrace();
    ThreadPool pool(4);
    const auto healthy =
        runPolicy(trace, PlacementPolicy::RapShared, pool);

    const Seconds span = healthy.makespan;
    FleetRequest request(trace);
    request.policy(PlacementPolicy::RapShared)
        .addFault(sim::FaultEvent::smDegrade(0, span * 0.2, 0.6))
        .addFault(sim::FaultEvent::hbmDegrade(3, span * 0.35, 0.7))
        .addFault(sim::FaultEvent::smDegrade(5, span * 0.5, 0.5));
    const auto stormy = request.run(&pool);

    ASSERT_EQ(stormy.jobs.size(), trace.size());
    for (const auto &job : stormy.jobs) {
        SCOPED_TRACE(job.spec.name);
        EXPECT_GT(job.finish, 0.0);
        EXPECT_GE(job.firstStart, job.spec.arrival);
        EXPECT_GT(job.serviceTime, 0.0);
    }
    // Losing capacity can only stretch the schedule.
    EXPECT_GE(stormy.makespan, healthy.makespan);
    // And the storm must actually have preempted someone, or the
    // requeue path went untested.
    EXPECT_GE(stormy.requeues, 1);

    // Degraded runs stay deterministic too.
    const auto again = request.run(&pool);
    EXPECT_EQ(again.makespan, stormy.makespan);
    EXPECT_EQ(again.requeues, stormy.requeues);
    EXPECT_EQ(again.renderSummary(), stormy.renderSummary());
}

} // namespace
} // namespace rap::fleet
