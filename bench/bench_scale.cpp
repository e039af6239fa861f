/**
 * @file
 * Parallel-engine scaling sweep: synthetic 64/512/2048-GPU fleets of
 * migrating kernel chains, PHOLD-style.
 *
 * Each device runs a handful of chains. A chain launches one synthetic
 * kernel on its current device; on completion it hops to a random
 * neighbour by scheduling the arrival one fabric latency ahead — a
 * cross-zone send in the partitioned engine (sim/engine.hpp). The
 * fabric latency of the synthetic spec doubles as the conservative
 * lookahead, so every hop lands exactly one window downstream.
 *
 * The chain carries its Rng by value, so the kernel-latency and
 * neighbour draws are a function of the chain alone — independent of
 * zone interleaving. Everything printed to stdout, and everything in
 * `--metrics` / `--report`, is simulation-derived and byte-identical
 * at any `--engine-jobs` value; the CI determinism job diffs exactly
 * that. Wall-clock goes to stderr and `--bench-json` only (the CI
 * perf-baseline job's gate input — see tools/bench_gate.cpp).
 *
 * Flags beyond the common set (bench_common.hpp):
 *
 *   --engine-jobs N  DES worker threads per partitioned cluster
 *                    (0 = all hardware threads; default 1)
 *   --report PATH    rap.scale.v1 JSON artifact (per-size stats)
 *   --reps N         repeat each size N times, report the fastest wall
 *                    clock (simulation stats are identical every rep)
 *   --zones N        time zones per cluster (0 = one per device)
 */

#include <atomic>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "sim/cluster.hpp"
#include "sim/kernel.hpp"

namespace {

using namespace rap;

/** Deterministic per-size simulation results (wall clock separate). */
struct ScalePoint
{
    int gpus = 0;
    int zones = 0;
    std::uint64_t chains = 0;
    std::uint64_t kernelsRetired = 0;
    std::uint64_t events = 0;
    std::uint64_t crossZone = 0;
    std::uint64_t windows = 0;
    Seconds simTime = 0.0;
    /** FNV-1a over per-device counters: cheap order-sensitive digest. */
    std::uint64_t checksum = 0;
    double wallMs = 0.0;
};

/** One migrating chain; its whole state travels between zones. */
struct Chain
{
    Rng rng;
    int hopsLeft = 0;
};

/**
 * Owns one cluster run: streams, chain stepping, completion counting.
 * Chain callbacks execute concurrently on zone workers, so the driver
 * itself is read-only during the run; all mutable state is either
 * carried inside the Chain (by value) or device-local.
 */
class ChainDriver
{
  public:
    ChainDriver(sim::Cluster &cluster, Seconds hop_latency)
        : cluster_(cluster), hopLatency_(hop_latency)
    {
        streams_.reserve(static_cast<std::size_t>(cluster.gpuCount()));
        for (int d = 0; d < cluster.gpuCount(); ++d) {
            auto &dev = cluster.device(d);
            // Scale runs keep memory bounded by live state only: no
            // utilisation segments, no per-kernel records. Device
            // counters (retired, stall) are unaffected.
            dev.trace().setRecordSegments(false);
            dev.trace().setRecordKernels(false);
            streams_.push_back(&dev.newStream("chains"));
        }
    }

    /** Seed @p chain to start on @p dev at @p start (pre-run only). */
    void
    seed(int dev, Seconds start, Chain chain)
    {
        cluster_.engine().schedule(
            start, cluster_.deviceZone(dev),
            [this, dev, chain = std::move(chain)]() mutable {
                step(dev, std::move(chain));
            });
    }

    std::uint64_t finished() const
    {
        return finished_.load(std::memory_order_relaxed);
    }

  private:
    /** Launch the chain's next kernel on @p dev. */
    void
    step(int dev, Chain chain)
    {
        // 20-80us of work per hop: a few window-widths, so zones stay
        // busy without the queue depth growing.
        const Seconds latency = chain.rng.uniform(20e-6, 80e-6);
        const sim::ResourceDemand demand{
            chain.rng.uniform(0.02, 0.06),
            chain.rng.uniform(0.02, 0.06)};
        cluster_.device(dev).launchKernel(
            *streams_[static_cast<std::size_t>(dev)],
            sim::KernelDesc::synthetic("hop", latency, demand),
            [this, dev, chain = std::move(chain)]() mutable {
                hop(dev, std::move(chain));
            });
    }

    /** Kernel done: retire the chain or migrate it to a neighbour. */
    void
    hop(int dev, Chain chain)
    {
        if (--chain.hopsLeft <= 0) {
            finished_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        const int gpus = cluster_.gpuCount();
        int nbr = static_cast<int>(chain.rng.uniformInt(0, gpus - 2));
        if (nbr >= dev)
            ++nbr; // uniform over the *other* devices
        auto &engine = cluster_.engine();
        // One fabric latency ahead == exactly the engine's lookahead:
        // the soonest a conservative cross-zone send may land.
        engine.schedule(
            engine.now() + hopLatency_, cluster_.deviceZone(nbr),
            [this, nbr, chain = std::move(chain)]() mutable {
                step(nbr, std::move(chain));
            });
    }

    sim::Cluster &cluster_;
    Seconds hopLatency_;
    std::vector<sim::Stream *> streams_;
    std::atomic<std::uint64_t> finished_{0};
};

/**
 * Synthetic fleet spec: RDMA-class fabric latency on every link so
 * the conservative lookahead (min interconnect latency) is wide
 * enough for each window to carry real work. Kernel-time constants
 * stay A100-like.
 */
sim::ClusterSpec
scaleSpec(int gpus)
{
    auto spec = sim::dgxA100Spec(8);
    spec.gpuCount = gpus;
    spec.nvlinkLatency = 25e-6; // fabric hop == lookahead
    spec.pcieLatency = 40e-6;   // keep min() on the fabric latency
    return spec;
}

std::uint64_t
fnv1a(std::uint64_t hash, std::uint64_t value)
{
    for (int byte = 0; byte < 8; ++byte) {
        hash ^= (value >> (8 * byte)) & 0xffULL;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/** Run one sweep point @p reps times; stats + fastest wall clock. */
ScalePoint
runPoint(int gpus, int zones_flag, int engine_jobs, int chains_per_gpu,
         int hops, int reps, obs::MetricRegistry *metrics)
{
    ScalePoint point;
    point.gpus = gpus;
    for (int rep = 0; rep < reps; ++rep) {
        sim::Cluster cluster(scaleSpec(gpus));
        cluster.partitionZones(zones_flag, engine_jobs);
        ChainDriver driver(cluster,
                           cluster.spec().nvlinkLatency);
        std::uint64_t chains = 0;
        for (int d = 0; d < gpus; ++d) {
            for (int c = 0; c < chains_per_gpu; ++c) {
                Chain chain;
                chain.rng = Rng(0x5ca1eULL ^
                                (static_cast<std::uint64_t>(d) << 20) ^
                                static_cast<std::uint64_t>(c));
                chain.hopsLeft = hops;
                // Stagger starts inside the first window so launch
                // bursts don't all collide on one timestamp.
                const Seconds start =
                    1e-6 + 1e-7 * static_cast<double>(c) +
                    1e-9 * static_cast<double>(d % 64);
                driver.seed(d, start, std::move(chain));
                ++chains;
            }
        }

        bench::WallTimer timer;
        cluster.run();
        const double wall_ms = timer.elapsedMs();

        RAP_ASSERT(driver.finished() == chains,
                   "chains lost: ", driver.finished(), " of ", chains,
                   " finished");
        auto &engine = cluster.engine();
        std::uint64_t retired = 0;
        std::uint64_t checksum = 0xcbf29ce484222325ULL;
        for (int d = 0; d < gpus; ++d) {
            const auto &dev = cluster.device(d);
            retired += dev.kernelsRetired();
            checksum = fnv1a(checksum, dev.kernelsRetired());
            checksum = fnv1a(checksum, dev.kernelsLaunched());
        }
        if (rep == 0) {
            point.zones = engine.zoneCount();
            point.chains = chains;
            point.kernelsRetired = retired;
            point.events = engine.eventsExecuted();
            point.crossZone = engine.crossZoneEvents();
            point.windows = engine.windowsExecuted();
            point.simTime = engine.now();
            point.checksum = checksum;
            point.wallMs = wall_ms;
            if (metrics != nullptr) {
                cluster.exportMetrics(
                    *metrics,
                    obs::Labels{
                        {"run", "gpu" + std::to_string(gpus)}});
            }
        } else {
            RAP_ASSERT(checksum == point.checksum,
                       "rep ", rep, " diverged from rep 0");
            point.wallMs = std::min(point.wallMs, wall_ms);
        }
    }
    return point;
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

} // namespace

int
main(int argc, char **argv)
{
    bench::ArgParser args(
        "bench_scale",
        "synthetic thousand-GPU scaling sweep for the parallel engine");
    const std::string &report_path = args.addString(
        "--report", "", "rap.scale.v1 JSON output path (CI diffs this)");
    const int &reps =
        args.addInt("--reps", 1,
                    "repetitions per size; fastest wall clock wins");
    const int &zones_flag = args.addInt(
        "--zones", 0, "time zones per cluster (0 = one per device)");
    const int &jobs_flag = args.addInt(
        "--engine-jobs", 1,
        "DES worker threads per partitioned cluster "
        "(0 = all hardware threads; results byte-identical)");
    args.parse(argc, argv);
    const bool tiny = args.tiny();
    const int engine_jobs =
        jobs_flag <= 0 ? ThreadPool::hardwareThreads() : jobs_flag;
    obs::MetricRegistry registry;
    obs::MetricRegistry *metrics =
        args.metricsPath().empty() ? nullptr : &registry;

    const std::vector<int> sizes =
        tiny ? std::vector<int>{16, 64} : std::vector<int>{64, 512, 2048};
    const int chains_per_gpu = tiny ? 2 : 4;

    std::cout << "=== Parallel-engine scaling: migrating kernel chains "
                 "===\n\n";

    AsciiTable table({"gpus", "zones", "chains", "kernels", "events",
                      "cross-zone", "windows", "sim time", "checksum"});
    std::vector<ScalePoint> points;
    std::vector<bench::BenchTiming> timings;
    for (const int gpus : sizes) {
        const int hops = tiny ? 24 : (gpus >= 2048 ? 48 : 96);
        const auto point = runPoint(gpus, zones_flag, engine_jobs,
                                    chains_per_gpu, hops,
                                    std::max(1, reps), metrics);
        std::cerr << "[wall] scale_gpu" << gpus << " "
                  << AsciiTable::num(point.wallMs, 1) << " ms ("
                  << point.events << " events, engine jobs "
                  << engine_jobs << ")\n";
        table.addRow({std::to_string(point.gpus),
                      std::to_string(point.zones),
                      std::to_string(point.chains),
                      std::to_string(point.kernelsRetired),
                      std::to_string(point.events),
                      std::to_string(point.crossZone),
                      std::to_string(point.windows),
                      formatSeconds(point.simTime),
                      hex(point.checksum)});
        timings.push_back({"scale_gpu" + std::to_string(gpus),
                           point.wallMs, point.events});
        points.push_back(point);
    }
    std::cout << table.render() << "\n";
    std::cout << "results are byte-identical at any --engine-jobs "
                 "value; wall clock is on stderr / --bench-json\n";

    if (!report_path.empty()) {
        Json artifact = Json::object();
        artifact.set("schema", "rap.scale.v1");
        Json list = Json::array();
        for (const auto &point : points) {
            Json entry = Json::object();
            entry.set("gpus", point.gpus);
            entry.set("zones", point.zones);
            entry.set("chains", point.chains);
            entry.set("kernels_retired", point.kernelsRetired);
            entry.set("events", point.events);
            entry.set("cross_zone_events", point.crossZone);
            entry.set("windows", point.windows);
            entry.set("sim_time_seconds", point.simTime);
            entry.set("checksum", hex(point.checksum));
            list.push(std::move(entry));
        }
        artifact.set("points", std::move(list));
        writeJsonFile(artifact, report_path);
    }
    bench::maybeWriteMetrics(args, registry);
    bench::maybeWriteBenchJson(args, timings);
    return 0;
}
