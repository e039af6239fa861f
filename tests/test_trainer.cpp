/**
 * @file
 * Integration tests for the DLRM training driver on the simulator.
 */

#include <gtest/gtest.h>

#include "dlrm/trainer.hpp"

namespace rap::dlrm {
namespace {

struct Fixture
{
    explicit Fixture(int gpus)
        : schema(data::makePresetSchema(
              data::DatasetPreset::CriteoKaggle)),
          config(makeDlrmConfig(data::DatasetPreset::CriteoKaggle,
                                schema)),
          sharding(EmbeddingSharding::balanced(schema, gpus)),
          cluster(sim::dgxA100Spec(gpus))
    {
    }
    data::Schema schema;
    DlrmConfig config;
    EmbeddingSharding sharding;
    sim::Cluster cluster;
};

TEST(Trainer, RunsIterationsToCompletion)
{
    Fixture f(2);
    TrainingDriver driver(f.cluster, f.config, f.sharding);
    driver.pushIterations(4);
    f.cluster.run();
    EXPECT_EQ(driver.iterationsPushed(), 4);
    for (int g = 0; g < 2; ++g) {
        for (int i = 0; i < 4; ++i) {
            EXPECT_TRUE(driver.iterationSpan(g, i).valid());
            EXPECT_TRUE(driver.iterEnd(g, i)->fired());
        }
    }
}

TEST(Trainer, IterationLatencyInPlausibleRange)
{
    Fixture f(4);
    TrainingDriver driver(f.cluster, f.config, f.sharding);
    driver.pushIterations(5);
    f.cluster.run();
    const Seconds latency = driver.avgIterationLatency();
    EXPECT_GT(latency, 1e-3);
    EXPECT_LT(latency, 50e-3);
}

TEST(Trainer, OpSpansTileTheIteration)
{
    Fixture f(2);
    TrainingDriver driver(f.cluster, f.config, f.sharding);
    driver.pushIterations(3);
    f.cluster.run();
    const auto &ops = driver.ops(0);
    for (int i = 0; i < 3; ++i) {
        Seconds prev_end = driver.iterationSpan(0, i).start;
        for (std::size_t k = 0; k < ops.size(); ++k) {
            const auto &span = driver.opSpan(0, i, k);
            ASSERT_TRUE(span.valid()) << ops[k].name;
            EXPECT_GE(span.start, prev_end - 1e-9);
            prev_end = span.end;
        }
        EXPECT_NEAR(prev_end, driver.iterationSpan(0, i).end, 1e-9);
    }
}

TEST(Trainer, OpStartEventsFireAtSpanStart)
{
    Fixture f(2);
    TrainingDriver driver(f.cluster, f.config, f.sharding);
    driver.pushIterations(2);
    f.cluster.run();
    for (std::size_t k = 0; k < driver.ops(0).size(); ++k) {
        const auto event = driver.opStart(0, 1, k);
        ASSERT_TRUE(event->fired());
        EXPECT_NEAR(event->fireTime(), driver.opSpan(0, 1, k).start,
                    1e-9);
    }
}

TEST(Trainer, GpusStayInLockstepViaCollectives)
{
    Fixture f(4);
    TrainingDriver driver(f.cluster, f.config, f.sharding);
    driver.pushIterations(3);
    f.cluster.run();
    // The all-to-all forces per-iteration convergence across GPUs.
    for (int i = 0; i < 3; ++i) {
        const Seconds end0 = driver.iterationSpan(0, i).end;
        for (int g = 1; g < 4; ++g) {
            EXPECT_NEAR(driver.iterationSpan(g, i).end, end0,
                        0.2 * end0);
        }
    }
}

TEST(Trainer, InputGateDelaysIteration)
{
    Fixture f(2);
    TrainingDriver driver(f.cluster, f.config, f.sharding);
    auto gate = sim::makeEvent();
    driver.setInputGate([&](int, int iter) {
        return iter == 0 ? gate : nullptr;
    });
    driver.pushIterations(2);
    const Seconds release = 5e-3;
    f.cluster.engine().schedule(release, [&] {
        gate->fire(f.cluster.engine());
    });
    f.cluster.run();
    EXPECT_GE(driver.iterationSpan(0, 0).start, release - 1e-9);
}

TEST(Trainer, AvgOpDurationMatchesSpans)
{
    Fixture f(2);
    TrainingDriver driver(f.cluster, f.config, f.sharding);
    driver.pushIterations(4);
    f.cluster.run();
    const Seconds avg = driver.avgOpDuration(0, 4); // top_mlp_fwd
    EXPECT_GT(avg, 0.0);
    // Consistent with the exclusive latency of the kernel (no co-run).
    EXPECT_NEAR(avg, driver.ops(0)[4].kernel.exclusiveLatency, 0.3 * avg);
}

TEST(Trainer, MoreGpusGiveMoreGlobalThroughput)
{
    Seconds lat2, lat8;
    {
        Fixture f(2);
        TrainingDriver driver(f.cluster, f.config, f.sharding);
        driver.pushIterations(4);
        f.cluster.run();
        lat2 = driver.avgIterationLatency();
    }
    {
        Fixture f(8);
        TrainingDriver driver(f.cluster, f.config, f.sharding);
        driver.pushIterations(4);
        f.cluster.run();
        lat8 = driver.avgIterationLatency();
    }
    const double tput2 = 2.0 * 4096 / lat2;
    const double tput8 = 8.0 * 4096 / lat8;
    EXPECT_GT(tput8, 2.0 * tput2); // scales, if sublinearly
}

TEST(TrainerDeath, MismatchedShardingPanics)
{
    Fixture f(2);
    const auto bad = EmbeddingSharding::balanced(f.schema, 4);
    EXPECT_DEATH(TrainingDriver(f.cluster, f.config, bad),
                 "does not match");
}

} // namespace
} // namespace rap::dlrm
