/**
 * @file
 * Tests for the observability layer (src/obs): label canonicalisation,
 * histogram bucket-edge semantics, span nesting (including under the
 * thread pool), histogram sums in observation order across threads,
 * snapshot determinism across worker counts, and a golden-file check
 * of the full metrics snapshot for a tiny end-to-end run.
 *
 * Regenerate the golden file after an intentional schema or
 * instrumentation change with:
 *
 *   RAP_REGEN_GOLDEN=1 ./build/tests/test_obs \
 *       --gtest_filter=ObsGolden.TinyRunSnapshotMatchesGoldenFile
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/rap.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "obs/span.hpp"

namespace rap::obs {
namespace {

TEST(Labels, RenderIsSortedAndOrderInsensitive)
{
    Labels forward{{"gpu", "3"}, {"phase", "corun"}};
    Labels reversed{{"phase", "corun"}, {"gpu", "3"}};
    EXPECT_EQ(forward.render(), "{gpu=3,phase=corun}");
    EXPECT_EQ(forward, reversed);
    EXPECT_EQ(Labels{}.render(), "");

    Labels mutated = forward;
    mutated.set("gpu", "5");
    EXPECT_EQ(mutated.render(), "{gpu=5,phase=corun}");
    EXPECT_EQ(mutated.pairs().size(), 2u);
}

TEST(Metrics, CounterAndGauge)
{
    Counter counter;
    counter.inc();
    counter.inc(41);
    EXPECT_EQ(counter.value(), 42u);

    Gauge gauge;
    gauge.set(1.5);
    EXPECT_EQ(gauge.value(), 1.5);
    gauge.max(0.5); // lower value must not win
    EXPECT_EQ(gauge.value(), 1.5);
    gauge.max(3.0);
    EXPECT_EQ(gauge.value(), 3.0);
}

TEST(Metrics, HistogramBucketEdges)
{
    Histogram histogram({1.0, 2.0, 5.0});
    ASSERT_EQ(histogram.bucketCounts().size(), 4u);

    histogram.observe(0.5);  // bucket 0: v < 1
    histogram.observe(1.0);  // exactly on an edge -> upper bucket
    histogram.observe(1.99); // bucket 1: 1 <= v < 2
    histogram.observe(2.0);  // bucket 2: 2 <= v < 5
    histogram.observe(5.0);  // edges.back() lands in overflow
    histogram.observe(7.25); // overflow: v >= 5

    const auto &counts = histogram.bucketCounts();
    EXPECT_EQ(counts[0], 1u);
    EXPECT_EQ(counts[1], 2u);
    EXPECT_EQ(counts[2], 1u);
    EXPECT_EQ(counts[3], 2u);
    EXPECT_EQ(histogram.count(), 6u);
    EXPECT_DOUBLE_EQ(histogram.sum(),
                     0.5 + 1.0 + 1.99 + 2.0 + 5.0 + 7.25);
}

TEST(Metrics, HistogramSumFollowsObservationOrderAcrossThreads)
{
    // One strand that hops threads: 1e16 + 1.0 rounds back to 1e16,
    // so the observation-order sum differs from a per-thread fold.
    Histogram histogram({1.0});
    std::thread first([&] { histogram.observe(1e16); });
    first.join();
    std::thread second([&] {
        histogram.observe(1.0);
        histogram.observe(1.0);
    });
    second.join();
    EXPECT_EQ(histogram.count(), 3u);
    EXPECT_EQ(histogram.sum(), (1e16 + 1.0) + 1.0);
}

TEST(Metrics, RegistryLookupIsIdentityPerNameAndLabels)
{
    MetricRegistry registry;
    Counter &a = registry.counter("hits", {{"gpu", "0"}});
    Counter &b = registry.counter("hits", {{"gpu", "0"}});
    Counter &c = registry.counter("hits", {{"gpu", "1"}});
    EXPECT_EQ(&a, &b);
    EXPECT_NE(&a, &c);

    // Second histogram lookup ignores the (different) edges argument.
    Histogram &h1 = registry.histogram("lat", {1.0, 2.0});
    Histogram &h2 = registry.histogram("lat", {9.0});
    EXPECT_EQ(&h1, &h2);
    EXPECT_EQ(h2.edges(), (std::vector<double>{1.0, 2.0}));
}

TEST(Metrics, VisitorsAreSortedByNameThenLabels)
{
    MetricRegistry registry;
    registry.counter("zeta");
    registry.counter("alpha", {{"gpu", "1"}});
    registry.counter("alpha", {{"gpu", "0"}});

    const auto counters = registry.counters();
    ASSERT_EQ(counters.size(), 3u);
    EXPECT_EQ(counters[0].first.first, "alpha");
    EXPECT_EQ(counters[0].first.second.render(), "{gpu=0}");
    EXPECT_EQ(counters[1].first.first, "alpha");
    EXPECT_EQ(counters[1].first.second.render(), "{gpu=1}");
    EXPECT_EQ(counters[2].first.first, "zeta");
}

TEST(Span, NestsWithinAThreadAndRecordsOnClose)
{
    MetricRegistry registry;
    {
        Span outer(&registry, "phase.outer");
        EXPECT_EQ(outer.depth(), 0);
        {
            Span inner(&registry, "phase.inner");
            EXPECT_EQ(inner.depth(), 1);
        }
        Span sibling(&registry, "phase.sibling");
        EXPECT_EQ(sibling.depth(), 1);
    }
    Span after(&registry, "phase.after");
    EXPECT_EQ(after.depth(), 0); // depth unwound after the scope

    // Three of the four spans have closed at this point.
    EXPECT_EQ(registry.spanRecords().size(), 3u);
}

TEST(Span, NullRegistryIsANoOp)
{
    Span span(nullptr, "ignored");
    span.annotateSim(0.0, 1.0);
    EXPECT_EQ(span.depth(), 0);
}

TEST(Span, DepthIsPerThreadUnderThePool)
{
    MetricRegistry registry;
    ThreadPool pool(2);
    {
        Span outer(&registry, "pool.outer");
        const auto depths =
            pool.parallelMap<int>(8, [&](std::size_t) {
                Span task(&registry, "pool.task");
                return task.depth();
            });
        // Depth is thread-local: tasks picked up by the calling
        // thread nest under the outer span (depth 1), tasks on pool
        // workers are outermost on their thread (depth 0).
        for (int depth : depths) {
            EXPECT_GE(depth, 0);
            EXPECT_LE(depth, 1);
        }
    }
    // Without an open scope anywhere, every task is outermost.
    const auto depths = pool.parallelMap<int>(8, [&](std::size_t) {
        Span task(&registry, "pool.task2");
        return task.depth();
    });
    for (int depth : depths)
        EXPECT_EQ(depth, 0);
}

TEST(Snapshot, SimSpansAndWallOptIn)
{
    MetricRegistry registry;
    registry.recordSimSpan("train.iteration", {}, 1.0, 1.5);
    registry.recordSimSpan("train.iteration", {}, 2.0, 2.25);
    {
        Span wall_only(&registry, "plan.offline");
    }

    const Json snapshot = snapshotJson(registry);
    const Json &spans = snapshot.at("spans");
    ASSERT_EQ(spans.size(), 2u);
    // Sorted by name: plan.offline before train.iteration.
    EXPECT_EQ(spans.at(std::size_t{0}).at("name").asString(),
              "plan.offline");
    EXPECT_TRUE(
        spans.at(std::size_t{0}).at("simSeconds").isNull());
    // No wallSeconds member in the deterministic snapshot.
    EXPECT_EQ(spans.at(std::size_t{0}).find("wallSeconds"), nullptr);

    const Json &iteration = spans.at(std::size_t{1});
    EXPECT_EQ(iteration.at("name").asString(), "train.iteration");
    EXPECT_EQ(iteration.at("count").asDouble(), 2.0);
    EXPECT_DOUBLE_EQ(iteration.at("simSeconds").asDouble(), 0.75);
}

/** Record an identical workload through a pool of @p threads. */
std::string
snapshotForPoolSize(int threads)
{
    MetricRegistry registry;
    ThreadPool pool(threads);
    pool.parallelMap<int>(16, [&](std::size_t i) {
        const Labels labels{{"mod", std::to_string(i % 4)}};
        registry.counter("work.items", labels).inc();
        registry.gauge("work.max_index", labels)
            .max(static_cast<double>(i));
        Span outer(&registry, "work.outer", labels);
        Span inner(&registry, "work.inner", labels);
        inner.annotateSim(static_cast<double>(i),
                          static_cast<double>(i) + 0.5);
        return 0;
    });
    return snapshotJson(registry).dump(2);
}

TEST(Snapshot, ByteIdenticalAcrossThreadCounts)
{
    const std::string serial = snapshotForPoolSize(1);
    EXPECT_EQ(snapshotForPoolSize(4), serial);
    EXPECT_EQ(snapshotForPoolSize(8), serial);
    // Sanity: the workload actually recorded something.
    EXPECT_NE(serial.find("work.items"), std::string::npos);
}

TEST(ObsGolden, TinyRunSnapshotMatchesGoldenFile)
{
    MetricRegistry registry;
    core::SystemConfig config;
    config.system = core::System::Rap;
    config.gpuCount = 2;
    config.batchPerGpu = 1024;
    config.iterations = 4;
    config.warmup = 1;
    config.metrics = &registry;
    config.metricsScope = "golden";
    core::RunRequest(config).run(preproc::makePlan(0));

    const std::string snapshot = snapshotJson(registry).dump(2) + "\n";
    const std::string golden_path =
        std::string(RAP_TESTS_DIR) + "/golden/metrics_tiny.json";

    if (std::getenv("RAP_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(golden_path);
        ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
        out << snapshot;
        GTEST_SKIP() << "golden file regenerated";
    }

    std::ifstream in(golden_path);
    ASSERT_TRUE(in.good())
        << "missing golden file " << golden_path
        << " (regenerate with RAP_REGEN_GOLDEN=1)";
    std::ostringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(snapshot, expected.str())
        << "metrics snapshot drifted from the golden file; if the "
           "change is intentional, regenerate with RAP_REGEN_GOLDEN=1";
}

} // namespace
} // namespace rap::obs
