/**
 * @file
 * Storage-chaos property tests (SLOW). Every test here damages a
 * durable file on purpose and demands the recovery trichotomy:
 * byte-identical recovery of a valid prefix, a structured refusal
 * naming the damage, or flagged in-memory degradation. What is never
 * allowed is the fourth outcome — an open that succeeds with records
 * that differ from what was committed.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/io.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "ctrl/catalog.hpp"
#include "ctrl/diff.hpp"
#include "ctrl/wal.hpp"
#include "fleet/fleet.hpp"
#include "obs/metrics.hpp"

namespace rap {
namespace {

namespace fs = std::filesystem;

std::string
freshDir(const std::string &name)
{
    const fs::path dir =
        fs::temp_directory_path() / ("rap_test_chaos." + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

/** Overwrite @p path with @p bytes (restores a pristine WAL). */
void
writeRaw(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << path;
    out.write(bytes.data(),
              static_cast<std::streamoff>(bytes.size()));
}

Json
makeGenesis(int job_count)
{
    Json jobs = Json::array();
    for (int j = 0; j < job_count; ++j) {
        Json spec = Json::object();
        spec.set("id", Json(j));
        jobs.push(std::move(spec));
    }
    Json genesis = Json::object();
    genesis.set("kind", Json("genesis"));
    genesis.set("jobs", std::move(jobs));
    return genesis;
}

Json
makeFrame(int frame, const char *op_name, int job)
{
    Json op = Json::object();
    op.set("op", Json(op_name));
    op.set("job", Json(job));
    Json ops = Json::array();
    ops.push(std::move(op));
    Json txn = Json::object();
    txn.set("kind", Json("frame"));
    txn.set("frame", Json(frame));
    txn.set("time", Json(0.25 * (frame + 1)));
    txn.set("ops", std::move(ops));
    return txn;
}

/** Build a catalog with @p frames committed frames; return its dir. */
std::string
buildCatalog(const std::string &name, int frames)
{
    const std::string dir = freshDir(name);
    ctrl::CatalogOptions options;
    options.dir = dir;
    auto catalog = ctrl::Catalog::open(options);
    catalog->commit(makeGenesis(2));
    for (int f = 0; f < frames; ++f) {
        catalog->commit(makeFrame(
            f, f % 2 == 0 ? "admit" : "finish", f % 2));
    }
    return dir;
}

/**
 * The core property: mutate a valid WAL with seeded random damage —
 * byte flips and prefix truncations — and assert that every open
 * lands in the trichotomy. "Silent divergence" here would be an open
 * that succeeds but whose recovered records are not a byte-identical
 * prefix of the committed history.
 */
TEST(WalMutationProperty, EveryDamagedOpenLandsInTheTrichotomy)
{
    const std::string dir = buildCatalog("wal_mutation", 7);
    const std::string wal_path = ctrl::Catalog::walPath(dir);

    std::string pristine;
    ASSERT_TRUE(
        io::readFileBytes(nullptr, wal_path, &pristine).ok());
    const auto reference = ctrl::readWal(wal_path);
    ASSERT_FALSE(reference.damaged());
    ASSERT_EQ(reference.records.size(), 8u); // genesis + 7 frames

    // Checks that @p catalog holds a byte-identical prefix of the
    // committed history — the "no silent divergence" invariant.
    const auto expectPrefix = [&](const ctrl::Catalog &catalog) {
        EXPECT_LE(catalog.state().lastLsn, reference.records.size());
        for (const auto &[lsn, payload] : catalog.recoveredTail()) {
            ASSERT_GE(lsn, 1u);
            ASSERT_LE(lsn, reference.records.size());
            EXPECT_EQ(payload, reference.records[lsn - 1])
                << "recovered lsn " << lsn
                << " diverges from the committed record";
        }
    };

    // Every frame boundary is a byte offset at which a crash could
    // cleanly have cut the log (no torn tail at all).
    std::vector<std::uint64_t> boundaries{0};
    for (const auto &frame : reference.frames) {
        boundaries.push_back(frame.offset + ctrl::kWalFrameHeaderBytes +
                             frame.length);
    }

    Rng rng(0xc0ffee5eedULL);
    int refused = 0, truncated = 0, clean = 0;
    for (int iteration = 0; iteration < 256; ++iteration) {
        SCOPED_TRACE("iteration " + std::to_string(iteration));
        writeRaw(wal_path, pristine);
        switch (rng.uniformInt(0, 2)) {
        case 0: // bit rot somewhere in the log
            io::flipByteAt(
                wal_path,
                static_cast<std::uint64_t>(rng.uniformInt(
                    0,
                    static_cast<std::int64_t>(pristine.size()) - 1)),
                static_cast<unsigned char>(
                    rng.uniformInt(1, 255)));
            break;
        case 1: // crash mid-write: an arbitrary prefix survives
            io::truncateFileTo(
                wal_path,
                static_cast<std::uint64_t>(rng.uniformInt(
                    0,
                    static_cast<std::int64_t>(pristine.size()) - 1)));
            break;
        default: // crash between frames: a clean prefix survives
            io::truncateFileTo(
                wal_path,
                boundaries[static_cast<std::size_t>(rng.uniformInt(
                    0,
                    static_cast<std::int64_t>(boundaries.size()) -
                        1))]);
            break;
        }

        ctrl::CatalogOptions options;
        options.dir = dir;
        std::string error;
        auto catalog = ctrl::Catalog::tryOpen(options, &error);
        if (catalog == nullptr) {
            // Structured refusal: the error names the damage, and an
            // explicit salvage open still recovers the valid prefix.
            EXPECT_NE(error.find("corrupt"), std::string::npos)
                << error;
            ++refused;
            ctrl::CatalogOptions salvage;
            salvage.dir = dir;
            salvage.salvageCorruptTail = true;
            std::string salvage_error;
            auto salvaged =
                ctrl::Catalog::tryOpen(salvage, &salvage_error);
            ASSERT_NE(salvaged, nullptr) << salvage_error;
            EXPECT_TRUE(salvaged->salvagedCorruptTail());
            expectPrefix(*salvaged);
            continue;
        }
        expectPrefix(*catalog);
        if (catalog->truncatedTornTail())
            ++truncated;
        else
            ++clean;
    }
    // The sweep must actually exercise all three branches.
    EXPECT_GT(refused, 0);
    EXPECT_GT(truncated, 0);
    EXPECT_GT(clean, 0);
}

TEST(Compaction, EnospcMidCompactionKeepsTheOldSnapshot)
{
    // Session 1: a snapshot plus a WAL tail, the state to protect.
    const std::string dir = freshDir("enospc_compaction");
    ctrl::CatalogState want;
    {
        ctrl::CatalogOptions options;
        options.dir = dir;
        auto catalog = ctrl::Catalog::open(options);
        catalog->commit(makeGenesis(2));
        catalog->commit(makeFrame(0, "admit", 0));
        catalog->compact();
        catalog->commit(makeFrame(1, "admit", 1));
        catalog->commit(makeFrame(2, "finish", 0));
        want = catalog->state();
    }
    const std::string snapshot_path =
        ctrl::Catalog::snapshotPath(dir);
    std::string snapshot_before;
    ASSERT_TRUE(
        io::readFileBytes(nullptr, snapshot_path, &snapshot_before)
            .ok());
    const std::uint64_t wal_before =
        io::fileSizeBytes(ctrl::Catalog::walPath(dir));
    ASSERT_GT(wal_before, 0u);

    // Session 2: the disk fills immediately; the compaction's temp
    // write hits ENOSPC and the attempt is abandoned — old snapshot
    // and WAL untouched, no degradation (commits still work).
    {
        io::IoFaultSchedule schedule;
        schedule.enospcAfterBytes = 16;
        io::IoContext io(schedule);
        obs::MetricRegistry metrics;
        ctrl::CatalogOptions options;
        options.dir = dir;
        options.io = &io;
        options.metrics = &metrics;
        std::string error;
        auto catalog = ctrl::Catalog::tryOpen(options, &error);
        ASSERT_NE(catalog, nullptr) << error;
        catalog->compact();
        EXPECT_EQ(metrics.counter("ctrl.snapshot.failed").value(),
                  1u);
        EXPECT_GT(metrics.counter("ctrl.io.gave_up").value(), 0u);
        EXPECT_FALSE(catalog->degraded());
        EXPECT_TRUE(
            ctrl::diffCatalogStates(catalog->state(), want).empty());
    }
    std::string snapshot_after;
    ASSERT_TRUE(
        io::readFileBytes(nullptr, snapshot_path, &snapshot_after)
            .ok());
    EXPECT_EQ(snapshot_after, snapshot_before);
    EXPECT_EQ(io::fileSizeBytes(ctrl::Catalog::walPath(dir)),
              wal_before);
    // No leftover temp file from the abandoned attempt.
    for (const auto &entry : fs::directory_iterator(dir)) {
        EXPECT_EQ(entry.path().extension().string().find("tmp"),
                  std::string::npos)
            << entry.path();
    }

    // Session 3: a healthy reopen replays to the identical state.
    ctrl::CatalogOptions options;
    options.dir = dir;
    auto catalog = ctrl::Catalog::open(options);
    EXPECT_TRUE(
        ctrl::diffCatalogStates(catalog->state(), want).empty());
}

TEST(DegradedFleet, RunFinishesWithTheFlagAndIdenticalNumbers)
{
    fleet::ArrivalTraceOptions trace_options;
    trace_options.tiny = true;
    trace_options.jobCount = 2;
    trace_options.meanInterarrival = 0.01;
    trace_options.seed = 0xdeadd15cULL;
    const auto trace = fleet::makeArrivalTrace(trace_options);

    // Reference: the same trace through a healthy catalog.
    ctrl::CatalogOptions healthy_options;
    healthy_options.dir = freshDir("degraded_ref");
    const auto healthy = ctrl::Catalog::open(healthy_options);
    const std::string want =
        fleet::FleetRequest(trace)
            .policy(fleet::PlacementPolicy::ExclusiveFirstFit)
            .catalog(healthy.get())
            .run()
            .toJson()
            .dump(2);

    // The same run over a catalog whose disk refuses every write.
    io::IoFaultSchedule schedule;
    schedule.transientEioRate = 1.0;
    schedule.transientEioBurst = 1 << 20;
    io::IoContext io(schedule);
    obs::MetricRegistry metrics;
    ctrl::CatalogOptions options;
    options.dir = freshDir("degraded_run");
    options.io = &io;
    options.metrics = &metrics;
    std::string error;
    auto catalog = ctrl::Catalog::tryOpen(options, &error);
    ASSERT_NE(catalog, nullptr) << error;

    auto report = fleet::FleetRequest(trace)
                      .policy(fleet::PlacementPolicy::ExclusiveFirstFit)
                      .catalog(catalog.get())
                      .run();
    EXPECT_TRUE(catalog->degraded());
    EXPECT_TRUE(report.catalogDegraded);
    EXPECT_EQ(metrics.counter("ctrl.catalog.degraded").value(), 1u);
    EXPECT_GT(metrics.counter("ctrl.io.gave_up").value(), 0u);

    // Flag-normalized equality: the numbers are byte-identical, the
    // only difference is the degradation flag itself.
    report.catalogDegraded = false;
    EXPECT_EQ(report.toJson().dump(2), want);
}

} // namespace
} // namespace rap
