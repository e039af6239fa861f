/**
 * @file
 * Property-based tests on the simulator's contention model: invariants
 * that must hold for arbitrary randomly generated kernel mixes.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/rng.hpp"
#include "sim/cluster.hpp"

namespace rap::sim {
namespace {

/**
 * "<prefix><i>", built by append: g++ 12 flags the inlined
 * `"lit" + std::to_string(i)` with a -Wrestrict false positive.
 */
std::string
indexed(const char *prefix, std::size_t i)
{
    std::string name = prefix;
    name += std::to_string(i);
    return name;
}

struct RandomMix
{
    std::vector<KernelDesc> kernels;
    std::vector<int> priorities;
};

RandomMix
makeMix(std::uint64_t seed)
{
    Rng rng(seed);
    RandomMix mix;
    const int n = static_cast<int>(rng.uniformInt(2, 6));
    for (int i = 0; i < n; ++i) {
        mix.kernels.push_back(KernelDesc::synthetic(
            indexed("k", static_cast<std::size_t>(i)),
            rng.uniform(20e-6, 400e-6),
            ResourceDemand{rng.uniform(0.05, 0.95),
                           rng.uniform(0.05, 0.95)}));
        mix.priorities.push_back(
            static_cast<int>(rng.uniformInt(0, 1)));
    }
    return mix;
}

class ContentionPropertyTest
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ContentionPropertyTest, MakespanBounds)
{
    const auto mix = makeMix(GetParam());
    Cluster cluster(dgxA100Spec(1));
    const Seconds launch = cluster.spec().gpu.kernelLaunchOverhead;

    Seconds max_exclusive = 0.0;
    Seconds sum_exclusive = 0.0;
    for (std::size_t i = 0; i < mix.kernels.size(); ++i) {
        auto &stream = cluster.device(0).newStream(
            indexed("s", i), static_cast<int>(i),
            mix.priorities[i]);
        stream.pushKernel(mix.kernels[i]);
        max_exclusive = std::max(max_exclusive,
                                 mix.kernels[i].exclusiveLatency);
        sum_exclusive += mix.kernels[i].exclusiveLatency;
    }
    cluster.run();
    const Seconds makespan = cluster.engine().now();

    // Lower bound: no kernel can beat its exclusive latency.
    EXPECT_GE(makespan + 1e-12, max_exclusive + launch);
    // Upper bound: even full serialisation (rate floor aside) cannot
    // exceed the sum by more than the starvation allowance.
    EXPECT_LE(makespan, sum_exclusive / 0.02 + launch * 10);
    for (const auto &record : cluster.device(0).trace().kernels()) {
        EXPECT_GE(record.duration() + 1e-12,
                  record.exclusiveLatency);
    }
}

TEST_P(ContentionPropertyTest, UtilisationNeverExceedsCapacity)
{
    const auto mix = makeMix(GetParam());
    Cluster cluster(dgxA100Spec(1));
    for (std::size_t i = 0; i < mix.kernels.size(); ++i) {
        cluster.device(0)
            .newStream(indexed("s", i), static_cast<int>(i),
                       mix.priorities[i])
            .pushKernel(mix.kernels[i]);
    }
    cluster.run();
    for (const auto &segment :
         cluster.device(0).trace().segments()) {
        EXPECT_LE(segment.smUsage, 1.0 + 1e-9);
        EXPECT_LE(segment.bwUsage, 1.0 + 1e-9);
        EXPECT_GE(segment.smUsage, 0.0);
        EXPECT_GE(segment.bwUsage, 0.0);
    }
}

TEST_P(ContentionPropertyTest, HighPriorityNeverStretchedByLow)
{
    const auto mix = makeMix(GetParam());
    Cluster cluster(dgxA100Spec(1));
    // One high-priority kernel against the rest at low priority.
    auto &high = cluster.device(0).newStream("high", 0, 0);
    high.pushKernel(mix.kernels.front());
    for (std::size_t i = 1; i < mix.kernels.size(); ++i) {
        cluster.device(0)
            .newStream(indexed("low", i), static_cast<int>(i), 1)
            .pushKernel(mix.kernels[i]);
    }
    cluster.run();
    for (const auto &record : cluster.device(0).trace().kernels()) {
        if (record.stream == "high") {
            EXPECT_NEAR(record.stretch(), 0.0, 1e-9);
        }
    }
}

TEST_P(ContentionPropertyTest, WorkConservation)
{
    // Total useful work (sum of exclusive latencies weighted by
    // demand) equals the integral of recorded usage.
    const auto mix = makeMix(GetParam());
    Cluster cluster(dgxA100Spec(1));
    double expected_sm_area = 0.0;
    for (std::size_t i = 0; i < mix.kernels.size(); ++i) {
        cluster.device(0)
            .newStream(indexed("s", i), static_cast<int>(i),
                       mix.priorities[i])
            .pushKernel(mix.kernels[i]);
        expected_sm_area += mix.kernels[i].exclusiveLatency *
                            mix.kernels[i].demand.sm;
    }
    cluster.run();
    double recorded_area = 0.0;
    for (const auto &segment :
         cluster.device(0).trace().segments()) {
        recorded_area +=
            (segment.end - segment.begin) * segment.smUsage;
    }
    // The capped usage recording may under-report oversubscribed
    // instants, so recorded <= expected always; equality when no
    // instant capped. Allow the cap-induced slack.
    EXPECT_LE(recorded_area, expected_sm_area + 1e-9);
    EXPECT_GE(recorded_area, 0.5 * expected_sm_area);
}

INSTANTIATE_TEST_SUITE_P(RandomMixes, ContentionPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 26));

} // namespace
} // namespace rap::sim
