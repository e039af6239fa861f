/**
 * @file
 * Unit and property tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.hpp"

namespace rap {
namespace {

TEST(Rng, SameSeedSameStream)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += a.next() == b.next();
    EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.5, 2.25);
        EXPECT_GE(u, -3.5);
        EXPECT_LT(u, 2.25);
    }
}

TEST(Rng, UniformIntInclusiveBounds)
{
    Rng rng(9);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const auto v = rng.uniformInt(3, 7);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 7);
        saw_lo |= v == 3;
        saw_hi |= v == 7;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntDegenerateRange)
{
    Rng rng(11);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.uniformInt(5, 5), 5);
}

TEST(Rng, NormalMomentsApproximate)
{
    Rng rng(13);
    double sum = 0.0;
    double sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalScaling)
{
    Rng rng(17);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.normal(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, BernoulliProbability)
{
    Rng rng(23);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(29);
    std::vector<int> v(100);
    for (int i = 0; i < 100; ++i)
        v[static_cast<std::size_t>(i)] = i;
    auto shuffled = v;
    rng.shuffle(shuffled);
    EXPECT_NE(shuffled, v); // astronomically unlikely to be identity
    std::sort(shuffled.begin(), shuffled.end());
    EXPECT_EQ(shuffled, v);
}

/** With rate(t) == rate_max no candidate is thinned out. */
TEST(NextThinnedArrival, PeakRateKeepsEveryCandidate)
{
    const double rate_max = 250.0;
    const auto peak = [rate_max](double) { return rate_max; };
    Rng rng(43);
    Rng reference(43);
    double clock = 0.0;
    double expected = 0.0;
    for (int i = 0; i < 1000; ++i) {
        ASSERT_TRUE(nextThinnedArrival(rng, rate_max, peak, 1e9, clock));
        expected += exponentialGap(reference.uniform(), 1.0 / rate_max);
        (void)reference.uniform(); // the acceptance draw
        EXPECT_EQ(clock, expected) << "arrival " << i;
    }
    EXPECT_EQ(rng.next(), reference.next());
}

TEST(NextThinnedArrival, StopsAtTheHorizon)
{
    const double horizon = 2.0;
    const auto half = [](double) { return 50.0; };
    Rng rng(47);
    double clock = 0.0;
    int arrivals = 0;
    while (nextThinnedArrival(rng, 100.0, half, horizon, clock)) {
        EXPECT_LT(clock, horizon);
        ++arrivals;
    }
    EXPECT_GE(clock, horizon);
    // About rate * horizon = 100 arrivals survive the thinning.
    EXPECT_GT(arrivals, 50);
    EXPECT_LT(arrivals, 150);
}

TEST(NextThinnedArrival, HorizonBeforeFirstArrival)
{
    const auto flat = [](double) { return 1.0; };
    Rng rng(53);
    double clock = 0.0;
    EXPECT_FALSE(nextThinnedArrival(rng, 1.0, flat, 1e-12, clock));
    EXPECT_GE(clock, 1e-12);
}

/** A gap below the clock's ulp still moves the clock forward. */
TEST(NextThinnedArrival, AbsorbedGapStepsOneUlp)
{
    const double rate_max = 1e6;
    const auto peak = [rate_max](double) { return rate_max; };
    const double inf = std::numeric_limits<double>::infinity();
    Rng rng(59);
    double clock = 1e17;
    for (int i = 0; i < 8; ++i) {
        const double last = clock;
        ASSERT_TRUE(nextThinnedArrival(rng, rate_max, peak, inf, clock));
        EXPECT_EQ(clock, std::nextafter(last, inf));
        EXPECT_GT(clock, last);
    }
}

} // namespace
} // namespace rap
