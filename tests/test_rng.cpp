/**
 * @file
 * Unit and property tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>
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

TEST(Rng, LogNormalPositive)
{
    Rng rng(19);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GT(rng.logNormal(0.0, 1.0), 0.0);
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

TEST(Rng, ForkIndependence)
{
    Rng a(31);
    Rng child = a.fork();
    // Child stream should not replay the parent stream.
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += a.next() == child.next();
    EXPECT_LT(equal, 3);
}

/** Zipf property sweep over (n, alpha). */
class ZipfTest
    : public ::testing::TestWithParam<std::tuple<std::int64_t, double>>
{
};

TEST_P(ZipfTest, SupportAndSkew)
{
    const auto [n, alpha] = GetParam();
    const ZipfSampler zipf(n, alpha);
    Rng rng(37);
    std::map<std::int64_t, int> histogram;
    const int draws = 20000;
    for (int i = 0; i < draws; ++i) {
        const auto v = zipf(rng);
        ASSERT_GE(v, 0);
        ASSERT_LT(v, n);
        ++histogram[v];
    }
    if (n >= 8) {
        // Rank 0 must dominate rank 4 under any positive skew.
        EXPECT_GT(histogram[0], histogram[4]);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ZipfTest,
    ::testing::Combine(::testing::Values<std::int64_t>(1, 2, 100, 100000,
                                                       33'700'000),
                       ::testing::Values(0.6, 1.0, 1.05, 1.5)));

TEST(Rng, ZipfRank0MostFrequentLargeSupport)
{
    const ZipfSampler zipf(1'000'000, 1.05);
    Rng rng(41);
    std::map<std::int64_t, int> histogram;
    for (int i = 0; i < 50000; ++i)
        ++histogram[zipf(rng)];
    const auto best =
        std::max_element(histogram.begin(), histogram.end(),
                         [](const auto &a, const auto &b) {
                             return a.second < b.second;
                         });
    EXPECT_EQ(best->first, 0);
}

/**
 * The per-draw rejection-inversion loop ZipfSampler replaced, frozen
 * here verbatim: every pow() evaluated on every draw. The sampler must
 * reproduce its draws and leave the generator in the same state.
 */
std::int64_t
referenceZipf(Rng &rng, std::int64_t n, double alpha)
{
    if (n == 1)
        return 0;
    const double nd = static_cast<double>(n);
    auto h = [alpha](double x) {
        if (std::abs(alpha - 1.0) < 1e-12)
            return std::log(x);
        return (std::pow(x, 1.0 - alpha) - 1.0) / (1.0 - alpha);
    };
    auto hInv = [alpha](double x) {
        if (std::abs(alpha - 1.0) < 1e-12)
            return std::exp(x);
        return std::pow(1.0 + x * (1.0 - alpha), 1.0 / (1.0 - alpha));
    };
    const double hx0 = h(0.5) - 1.0;
    const double hn = h(nd + 0.5);
    for (;;) {
        const double u = hx0 + rng.uniform() * (hn - hx0);
        const double x = hInv(u);
        const double k = std::floor(x + 0.5);
        const double clamped = std::min(std::max(k, 1.0), nd);
        if (u >= h(clamped + 0.5) - std::pow(clamped, -alpha))
            return static_cast<std::int64_t>(clamped) - 1;
    }
}

class ZipfBitExactTest
    : public ::testing::TestWithParam<std::tuple<std::int64_t, double>>
{
};

TEST_P(ZipfBitExactTest, MatchesTheReferenceLoop)
{
    const auto [n, alpha] = GetParam();
    const ZipfSampler zipf(n, alpha);
    Rng sampled(20240408);
    Rng reference(20240408);
    for (int i = 0; i < 100000; ++i) {
        const auto expected = referenceZipf(reference, n, alpha);
        const auto actual = zipf(sampled);
        EXPECT_EQ(actual, expected) << "draw " << i;
        if (actual != expected)
            break;
    }
    EXPECT_EQ(sampled.next(), reference.next());
}

// Both sides of the table edge (1024), the log branch (alpha = 1),
// the Kaggle preset's largest table, and a steep skew.
INSTANTIATE_TEST_SUITE_P(
    Pairs, ZipfBitExactTest,
    ::testing::Values(std::make_tuple(std::int64_t{1}, 1.05),
                      std::make_tuple(std::int64_t{2}, 1.05),
                      std::make_tuple(std::int64_t{1000}, 1.05),
                      std::make_tuple(std::int64_t{1024}, 1.05),
                      std::make_tuple(std::int64_t{1025}, 1.05),
                      std::make_tuple(std::int64_t{11250134}, 1.05),
                      std::make_tuple(std::int64_t{5000}, 1.0),
                      std::make_tuple(std::int64_t{300}, 2.5)));

} // namespace
} // namespace rap
