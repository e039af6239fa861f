/**
 * @file
 * Durable control-plane tests: WAL framing and torn-tail scanning,
 * catalog recovery (snapshot + WAL replay, crash-mid-compaction,
 * double-open refusal), and the resume-determinism sweep — kill the
 * fleet run at every committed frame, resume, and demand a
 * byte-identical FleetReport.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/io.hpp"
#include "common/json.hpp"
#include "ctrl/catalog.hpp"
#include "ctrl/diff.hpp"
#include "ctrl/wal.hpp"
#include "fleet/fleet.hpp"
#include "obs/metrics.hpp"

namespace rap {
namespace {

namespace fs = std::filesystem;

/** A clean scratch directory under the system temp root. */
std::string
freshDir(const std::string &name)
{
    const fs::path dir =
        fs::temp_directory_path() / ("rap_test_ctrl." + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

/** Default catalog options over @p dir. */
ctrl::CatalogOptions
catalogAt(const std::string &dir)
{
    ctrl::CatalogOptions options;
    options.dir = dir;
    return options;
}

/** Flip one payload byte in place (checksums must catch this). */
void
corruptByteAt(const std::string &path, std::uint64_t offset)
{
    std::fstream file(path,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good()) << path;
    file.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    file.seekp(static_cast<std::streamoff>(offset));
    file.write(&byte, 1);
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
makeOp(const char *name, int job)
{
    Json op = Json::object();
    op.set("op", Json(name));
    op.set("job", Json(job));
    return op;
}

Json
makeFrame(int frame, std::vector<Json> ops)
{
    Json array = Json::array();
    for (Json &op : ops)
        array.push(std::move(op));
    Json txn = Json::object();
    txn.set("kind", Json("frame"));
    txn.set("frame", Json(frame));
    txn.set("time", Json(0.25 * (frame + 1)));
    txn.set("ops", std::move(array));
    return txn;
}

// ------------------------------------------------------ WAL framing

TEST(Wal, RoundTripsFramedRecords)
{
    const std::string dir = freshDir("wal_roundtrip");
    const std::string path = dir + "/wal.log";
    const std::vector<std::string> payloads = {
        "{\"a\":1}", "", std::string(300, 'x'), "tail record"};

    std::uint64_t expected_bytes = 0;
    {
        ctrl::WalWriter writer(path, 0);
        for (const auto &payload : payloads) {
            EXPECT_TRUE(writer.append(payload).ok());
            expected_bytes +=
                ctrl::kWalFrameHeaderBytes + payload.size();
            EXPECT_EQ(writer.sizeBytes(), expected_bytes);
        }
    }

    const auto result = ctrl::readWal(path);
    EXPECT_EQ(result.records, payloads);
    EXPECT_EQ(result.validBytes, expected_bytes);
    EXPECT_FALSE(result.tornTail);

    // A missing file is an empty log, not an error.
    const auto missing = ctrl::readWal(dir + "/absent.log");
    EXPECT_TRUE(missing.records.empty());
    EXPECT_EQ(missing.validBytes, 0u);
    EXPECT_FALSE(missing.tornTail);
}

TEST(Wal, TornFinalRecordKeepsThePrefix)
{
    const std::string dir = freshDir("wal_torn");
    const std::string path = dir + "/wal.log";
    {
        ctrl::WalWriter writer(path, 0);
        EXPECT_TRUE(writer.append("first record payload").ok());
        EXPECT_TRUE(writer.append("second record payload").ok());
        EXPECT_TRUE(writer.append("third record payload").ok());
    }
    const auto intact = ctrl::readWal(path);
    ASSERT_EQ(intact.records.size(), 3u);

    // Cut into the last payload: the frame is torn, the prefix whole.
    fs::resize_file(path, fs::file_size(path) - 5);
    const auto torn = ctrl::readWal(path);
    ASSERT_EQ(torn.records.size(), 2u);
    EXPECT_EQ(torn.records[1], "second record payload");
    EXPECT_TRUE(torn.tornTail);
    EXPECT_FALSE(torn.corruptMidLog);
    EXPECT_EQ(torn.badFrameIndex, 2u);
    EXPECT_EQ(torn.badFrameOffset, torn.validBytes);

    // Cut into the last *header*: same verdict.
    fs::resize_file(path,
                    torn.validBytes + ctrl::kWalFrameHeaderBytes - 3);
    const auto torn_header = ctrl::readWal(path);
    EXPECT_EQ(torn_header.records.size(), 2u);
    EXPECT_EQ(torn_header.validBytes, torn.validBytes);
    EXPECT_TRUE(torn_header.tornTail);

    // Re-opening the writer at validBytes drops the tail for good.
    {
        ctrl::WalWriter writer(path, torn.validBytes);
        EXPECT_TRUE(writer.append("replacement third").ok());
    }
    const auto healed = ctrl::readWal(path);
    ASSERT_EQ(healed.records.size(), 3u);
    EXPECT_EQ(healed.records[2], "replacement third");
    EXPECT_FALSE(healed.tornTail);
}

TEST(Wal, MidStreamCorruptionIsNotATornTail)
{
    const std::string dir = freshDir("wal_corrupt");
    const std::string path = dir + "/wal.log";
    const std::string first = "first record payload";
    {
        ctrl::WalWriter writer(path, 0);
        EXPECT_TRUE(writer.append(first).ok());
        EXPECT_TRUE(writer.append("second record payload").ok());
        EXPECT_TRUE(writer.append("third record payload").ok());
    }
    // Flip a byte inside the second record's payload: the scan must
    // stop there — a bad checksum says nothing about what follows —
    // and the verdict is corruption, NOT a truncatable torn tail:
    // the damaged frame is fully present, so no crash produced it.
    corruptByteAt(path, ctrl::kWalFrameHeaderBytes + first.size() +
                            ctrl::kWalFrameHeaderBytes + 2);
    const auto result = ctrl::readWal(path);
    ASSERT_EQ(result.records.size(), 1u);
    EXPECT_EQ(result.records[0], first);
    EXPECT_EQ(result.validBytes,
              ctrl::kWalFrameHeaderBytes + first.size());
    EXPECT_FALSE(result.tornTail);
    EXPECT_TRUE(result.corruptMidLog);
    EXPECT_EQ(result.badFrameIndex, 1u);
    EXPECT_EQ(result.badFrameOffset, result.validBytes);
    EXPECT_NE(result.badReason.find("checksum"), std::string::npos)
        << result.badReason;
}

TEST(Wal, ScanReportsPerFrameHealth)
{
    const std::string dir = freshDir("wal_scan");
    const std::string path = dir + "/wal.log";
    {
        ctrl::WalWriter writer(path, 0);
        EXPECT_TRUE(writer.append("alpha").ok());
        EXPECT_TRUE(writer.append("beta-beta").ok());
    }
    const auto clean = ctrl::readWal(path);
    ASSERT_EQ(clean.frames.size(), 2u);
    EXPECT_EQ(clean.frames[0].offset, 0u);
    EXPECT_EQ(clean.frames[0].length, 5u);
    EXPECT_TRUE(clean.frames[0].complete);
    EXPECT_TRUE(clean.frames[0].crcOk);
    EXPECT_EQ(clean.frames[1].offset,
              ctrl::kWalFrameHeaderBytes + 5);
    EXPECT_EQ(clean.frames[1].length, 9u);

    // A bit flip in the second payload: frame 1 scans complete with
    // a failed checksum, and the bad-frame fields point straight at
    // it (what `catalog_dump --scan` renders for an operator).
    corruptByteAt(path, ctrl::kWalFrameHeaderBytes + 5 +
                            ctrl::kWalFrameHeaderBytes + 1);
    const auto damaged = ctrl::readWal(path);
    ASSERT_EQ(damaged.frames.size(), 2u);
    EXPECT_TRUE(damaged.frames[1].complete);
    EXPECT_FALSE(damaged.frames[1].crcOk);
    EXPECT_TRUE(damaged.corruptMidLog);

    // An implausible length field is corruption too — a torn write
    // can shorten a frame, never inflate its length beyond the cap.
    {
        ctrl::WalWriter rewrite(path, 0);
        EXPECT_TRUE(rewrite.append("alpha").ok());
    }
    corruptByteAt(path, 3); // high byte of the length field
    const auto implausible = ctrl::readWal(path);
    EXPECT_TRUE(implausible.corruptMidLog);
    EXPECT_FALSE(implausible.tornTail);
    EXPECT_NE(implausible.badReason.find("length"),
              std::string::npos)
        << implausible.badReason;
}

// ------------------------------------------------- catalog recovery

TEST(Catalog, CommitsReplayOnReopen)
{
    const std::string dir = freshDir("catalog_replay");
    ctrl::CatalogOptions options;
    options.dir = dir;
    {
        auto catalog = ctrl::Catalog::open(options);
        EXPECT_EQ(catalog->commit(makeGenesis(2)), 1u);
        EXPECT_EQ(catalog->commit(makeFrame(
                      0, {makeOp("admit", 0), makeOp("admit", 1)})),
                  2u);
        Json seal = Json::object();
        seal.set("op", Json("seal"));
        seal.set("job", Json(0));
        Json manifest = Json::object();
        manifest.set("fraction", Json(0.5));
        seal.set("manifest", std::move(manifest));
        EXPECT_EQ(catalog->commit(makeFrame(
                      1, {std::move(seal), makeOp("finish", 0)})),
                  3u);
    }

    auto catalog = ctrl::Catalog::open(options);
    const auto &state = catalog->state();
    EXPECT_TRUE(state.hasGenesis());
    EXPECT_EQ(state.lastLsn, 3u);
    EXPECT_EQ(state.framesCommitted, 2u);
    ASSERT_EQ(state.jobs.size(), 2u);
    EXPECT_EQ(state.jobs.at(0).at("status").asString(), "finished");
    EXPECT_EQ(state.jobs.at(1).at("status").asString(), "queued");
    ASSERT_EQ(state.manifests.size(), 1u);
    EXPECT_DOUBLE_EQ(state.manifests[0].at("fraction").asDouble(),
                     0.5);
    // The whole tail is recoverable for byte-verification, and each
    // record is exactly what serializeTransaction would emit.
    ASSERT_EQ(catalog->recoveredTail().size(), 3u);
    EXPECT_EQ(catalog->recoveredTail().at(1),
              ctrl::Catalog::serializeTransaction(makeGenesis(2), 1));
    EXPECT_FALSE(catalog->truncatedTornTail());
    // Appends continue from the recovered LSN.
    EXPECT_EQ(catalog->commit(makeFrame(2, {makeOp("finish", 1)})),
              4u);
}

TEST(Catalog, TornTailIsTruncatedOnOpenButNotReadOnly)
{
    const std::string dir = freshDir("catalog_torn");
    ctrl::CatalogOptions options;
    options.dir = dir;
    {
        auto catalog = ctrl::Catalog::open(options);
        catalog->commit(makeGenesis(1));
        catalog->commit(makeFrame(0, {makeOp("admit", 0)}));
        catalog->commit(makeFrame(1, {makeOp("finish", 0)}));
    }
    const std::string wal = ctrl::Catalog::walPath(dir);
    const auto full_size = fs::file_size(wal);
    fs::resize_file(wal, full_size - 3);

    // Read-only open reports the tear but leaves the file alone.
    {
        auto read_only = options;
        read_only.readOnly = true;
        auto catalog = ctrl::Catalog::tryOpen(read_only);
        ASSERT_NE(catalog, nullptr);
        EXPECT_TRUE(catalog->truncatedTornTail());
        EXPECT_EQ(catalog->state().lastLsn, 2u);
        EXPECT_EQ(fs::file_size(wal), full_size - 3);
    }

    // A writable open truncates the tear and commits past it: the
    // interrupted record is gone, everything before it intact.
    auto catalog = ctrl::Catalog::open(options);
    EXPECT_TRUE(catalog->truncatedTornTail());
    EXPECT_EQ(catalog->state().lastLsn, 2u);
    EXPECT_EQ(catalog->state().jobs.at(0).at("status").asString(),
              "queued");
    EXPECT_EQ(catalog->commit(makeFrame(1, {makeOp("finish", 0)})),
              3u);
    const auto healed = ctrl::readWal(wal);
    EXPECT_EQ(healed.records.size(), 3u);
    EXPECT_FALSE(healed.tornTail);
}

TEST(Catalog, CrashMidCompactionSkipsStaleWalRecords)
{
    const std::string dir = freshDir("catalog_midcompact");
    ctrl::CatalogOptions options;
    options.dir = dir;
    const std::string wal = ctrl::Catalog::walPath(dir);
    std::string stale_wal_bytes;
    {
        auto catalog = ctrl::Catalog::open(options);
        catalog->commit(makeGenesis(1));
        catalog->commit(makeFrame(0, {makeOp("admit", 0)}));
        catalog->commit(makeFrame(1, {makeOp("finish", 0)}));
        {
            std::ifstream in(wal, std::ios::binary);
            std::ostringstream bytes;
            bytes << in.rdbuf();
            stale_wal_bytes = bytes.str();
        }
        catalog->compact(); // snapshot written, WAL reset
    }
    // Re-instate the pre-compaction WAL: exactly the on-disk picture
    // a crash between the snapshot rename and the WAL reset leaves.
    {
        std::ofstream out(wal, std::ios::binary | std::ios::trunc);
        out << stale_wal_bytes;
    }
    ASSERT_TRUE(fs::exists(ctrl::Catalog::snapshotPath(dir)));

    auto catalog = ctrl::Catalog::open(options);
    const auto &state = catalog->state();
    // Every stale record was skipped by LSN, none double-applied.
    EXPECT_EQ(state.lastLsn, 3u);
    EXPECT_EQ(state.framesCommitted, 2u);
    EXPECT_TRUE(state.hasGenesis());
    EXPECT_EQ(state.jobs.at(0).at("status").asString(), "finished");
    EXPECT_TRUE(catalog->recoveredTail().empty());
    EXPECT_EQ(catalog->commit(makeFrame(2, {makeOp("admit", 0)})),
              4u);
}

TEST(Catalog, AutoCompactionPreservesStateAcrossReopen)
{
    const std::string dir = freshDir("catalog_autocompact");
    ctrl::CatalogOptions options;
    options.dir = dir;
    options.compactEvery = 2;
    {
        auto catalog = ctrl::Catalog::open(options);
        catalog->commit(makeGenesis(2));
        catalog->commit(makeFrame(0, {makeOp("admit", 0)}));
        // Compaction just fired; this lands in the fresh WAL.
        catalog->commit(makeFrame(1, {makeOp("admit", 1)}));
    }
    auto catalog = ctrl::Catalog::open(options);
    EXPECT_EQ(catalog->state().lastLsn, 3u);
    EXPECT_EQ(catalog->state().framesCommitted, 2u);
    EXPECT_EQ(catalog->state().jobs.at(1).at("status").asString(),
              "queued");
    // Only the post-compaction record needed replaying.
    EXPECT_EQ(catalog->recoveredTail().size(), 1u);
}

TEST(Catalog, SecondWriterIsRefusedWhileTheFirstLives)
{
    const std::string dir = freshDir("catalog_lock");
    ctrl::CatalogOptions options;
    options.dir = dir;
    auto first = ctrl::Catalog::open(options);
    ASSERT_NE(first, nullptr);

    std::string error;
    auto second = ctrl::Catalog::tryOpen(options, &error);
    EXPECT_EQ(second, nullptr);
    EXPECT_NE(error.find("already open"), std::string::npos) << error;

    // Read-only inspection is allowed beside the live writer...
    auto read_only = options;
    read_only.readOnly = true;
    EXPECT_NE(ctrl::Catalog::tryOpen(read_only), nullptr);

    // ...and the lock dies with its holder.
    first.reset();
    EXPECT_NE(ctrl::Catalog::tryOpen(options, &error), nullptr);
}

TEST(Catalog, BadOptionsAreRefusedWithTheFieldNamed)
{
    auto options = catalogAt(freshDir("catalog_bad_compact"));
    options.compactEvery = -1;
    std::string error;
    EXPECT_EQ(ctrl::Catalog::tryOpen(options, &error), nullptr);
    EXPECT_NE(error.find("compactEvery"), std::string::npos) << error;

    EXPECT_EQ(ctrl::Catalog::tryOpen(catalogAt(""), &error), nullptr);
    EXPECT_NE(error.find("dir"), std::string::npos) << error;
}

TEST(Catalog, CorruptTailIsRefusedUnlessSalvaged)
{
    const std::string dir = freshDir("catalog_corrupt");
    ctrl::CatalogOptions options;
    options.dir = dir;
    {
        auto catalog = ctrl::Catalog::open(options);
        catalog->commit(makeGenesis(1));
        catalog->commit(makeFrame(0, {makeOp("admit", 0)}));
        catalog->commit(makeFrame(1, {makeOp("finish", 0)}));
    }
    const std::string wal = ctrl::Catalog::walPath(dir);
    // Rot a byte in the *last* record's payload: a complete frame
    // with a bad checksum, not a crash artifact.
    corruptByteAt(wal, fs::file_size(wal) - 4);

    // Default open refuses with a structured message naming the
    // frame — truncating silently would throw away a commit.
    std::string error;
    EXPECT_EQ(ctrl::Catalog::tryOpen(options, &error), nullptr);
    EXPECT_NE(error.find("corrupt at frame 2"), std::string::npos)
        << error;
    EXPECT_NE(error.find("salvage"), std::string::npos) << error;

    // Salvage mode is the explicit operator decision: keep the valid
    // prefix, drop the damage, flag that it happened.
    auto salvage = options;
    salvage.salvageCorruptTail = true;
    auto catalog = ctrl::Catalog::tryOpen(salvage, &error);
    ASSERT_NE(catalog, nullptr) << error;
    EXPECT_TRUE(catalog->salvagedCorruptTail());
    EXPECT_EQ(catalog->state().lastLsn, 2u);
    EXPECT_EQ(catalog->state().jobs.at(0).at("status").asString(),
              "queued");
    // The salvaged writer continues from the valid prefix.
    EXPECT_EQ(catalog->commit(makeFrame(1, {makeOp("finish", 0)})),
              3u);
    catalog.reset();
    EXPECT_NE(ctrl::Catalog::tryOpen(options, &error), nullptr)
        << error;
}

TEST(Catalog, DuplicatedTailFrameIsSkippedOnlyWhenIdentical)
{
    const std::string dir = freshDir("catalog_dup");
    ctrl::CatalogOptions options;
    options.dir = dir;
    {
        auto catalog = ctrl::Catalog::open(options);
        catalog->commit(makeGenesis(1));
        catalog->commit(makeFrame(0, {makeOp("admit", 0)}));
    }
    const std::string wal = ctrl::Catalog::walPath(dir);
    const auto scan = ctrl::readWal(wal);
    ASSERT_EQ(scan.frames.size(), 2u);
    const auto tail_bytes =
        fs::file_size(wal) - scan.frames[1].offset;
    ASSERT_TRUE(io::duplicateTailBytes(wal, tail_bytes));

    // A byte-identical echo of the final frame (a replayed sector)
    // replays once and is otherwise ignored.
    {
        std::string error;
        auto catalog = ctrl::Catalog::tryOpen(options, &error);
        ASSERT_NE(catalog, nullptr) << error;
        EXPECT_EQ(catalog->state().lastLsn, 2u);
        EXPECT_EQ(catalog->recoveredTail().size(), 2u);
    }

    // A *different* payload under an already-seen LSN is two
    // histories for one record: structured refusal, never a guess.
    corruptByteAt(wal, fs::file_size(wal) - 2);
    // Fix up the duplicate's CRC so the frame itself scans valid.
    {
        const auto rescan = ctrl::readWal(wal);
        ASSERT_TRUE(rescan.corruptMidLog); // CRC caught the edit
    }
    // With a bad CRC it reads as corruption; that refusal is already
    // covered above. Rewrite the duplicate as a *valid* frame with
    // a conflicting payload instead.
    fs::resize_file(wal, scan.validBytes);
    {
        ctrl::WalWriter writer(wal, scan.validBytes);
        Json txn = makeFrame(0, {makeOp("finish", 0)});
        EXPECT_TRUE(
            writer
                .append(ctrl::Catalog::serializeTransaction(txn, 2))
                .ok());
    }
    std::string error;
    EXPECT_EQ(ctrl::Catalog::tryOpen(options, &error), nullptr);
    EXPECT_NE(error.find("two histories"), std::string::npos)
        << error;
}

TEST(Catalog, DiskDeathDegradesInsteadOfAborting)
{
    const std::string dir = freshDir("catalog_degraded");
    obs::MetricRegistry metrics;
    // Every write fails transient EIO forever: the retry budget is
    // finite, so the first commit exhausts it and the catalog drops
    // to flagged in-memory mode.
    io::IoFaultSchedule schedule;
    schedule.transientEioRate = 1.0;
    schedule.transientEioBurst = 1 << 20;
    io::IoContext io(schedule);

    ctrl::CatalogOptions options;
    options.dir = dir;
    options.io = &io;
    options.metrics = &metrics;
    std::string error;
    auto catalog = ctrl::Catalog::tryOpen(options, &error);
    ASSERT_NE(catalog, nullptr) << error;

    EXPECT_EQ(catalog->commit(makeGenesis(1)), 1u);
    EXPECT_TRUE(catalog->degraded());
    // Commits keep applying in memory — flagged, not silent.
    EXPECT_EQ(catalog->commit(makeFrame(0, {makeOp("admit", 0)})),
              2u);
    EXPECT_EQ(catalog->state().lastLsn, 2u);
    EXPECT_EQ(catalog->state().jobs.at(0).at("status").asString(),
              "queued");
    EXPECT_EQ(metrics.counter("ctrl.catalog.degraded").value(), 1u);
    EXPECT_GT(metrics.counter("ctrl.io.gave_up").value(), 0u);
    EXPECT_GT(metrics.counter("ctrl.io.retries").value(), 0u);
    // Nothing claims durability: the WAL holds no committed record.
    const auto scan = ctrl::readWal(ctrl::Catalog::walPath(dir));
    EXPECT_TRUE(scan.records.empty());
}

// ----------------------------------------------- structural diff

/** A small hand-built state for the diff golden test. */
ctrl::CatalogState
makeDiffState(bool right)
{
    ctrl::CatalogState state;
    state.genesis = makeGenesis(right ? 3 : 2);
    state.lastLsn = right ? 9 : 7;
    state.framesCommitted = right ? 8 : 6;
    Json running = Json::object();
    running.set("status", Json("running"));
    Json finished = Json::object();
    finished.set("status", Json("finished"));
    state.jobs[0] = right ? finished : running;
    state.jobs[1] = running;
    if (right)
        state.jobs[2] = running;
    else
        state.placements[1] = Json::parse(
            R"({"placement": {"gpuIds": [0]}})");
    Json manifest = Json::object();
    manifest.set("fraction", Json(0.5));
    state.manifests.push_back(manifest);
    if (right) {
        Json second = Json::object();
        second.set("fraction", Json(1.0));
        state.manifests.push_back(std::move(second));
    }
    return state;
}

TEST(CatalogDiff, IdenticalStatesRenderEmpty)
{
    const ctrl::CatalogState state = makeDiffState(false);
    EXPECT_EQ(ctrl::diffCatalogStates(state, state), "");
}

TEST(CatalogDiff, ReportMatchesGoldenFile)
{
    const std::string report = ctrl::diffCatalogStates(
        makeDiffState(false), makeDiffState(true));
    const std::string golden_path =
        std::string(RAP_TESTS_DIR) + "/golden/catalog_diff.txt";

    if (std::getenv("RAP_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(golden_path);
        ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
        out << report;
        GTEST_SKIP() << "golden file regenerated";
    }

    std::ifstream in(golden_path);
    ASSERT_TRUE(in.good())
        << "missing golden file " << golden_path
        << " (regenerate with RAP_REGEN_GOLDEN=1)";
    std::ostringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(report, expected.str())
        << "catalog diff drifted from the golden file; if the change "
           "is intentional, regenerate with RAP_REGEN_GOLDEN=1";
}

// ------------------------------------------- resume determinism

TEST(FleetResume, KillAtEveryFrameResumesByteIdentical)
{
    fleet::ArrivalTraceOptions trace_options;
    trace_options.tiny = true;
    trace_options.jobCount = 3;
    trace_options.meanInterarrival = 0.01;
    trace_options.seed = 0x7e577e5703ULL;
    auto trace = fleet::makeArrivalTrace(trace_options);
    // Job 0 checkpoints and gets preempted mid-run, so the sweep
    // crosses admit, place, seal, fault, preempt, and finish frames.
    trace[0].gpusRequested = 1;
    trace[0].planId = 0;
    trace[0].iterations = 8;
    trace[0].checkpointInterval = 1;

    const auto healthy =
        fleet::FleetRequest(trace)
            .policy(fleet::PlacementPolicy::ExclusiveFirstFit)
            .run();
    const auto fault = sim::FaultEvent::smDegrade(
        healthy.jobs[0].lastGpus.at(0),
        healthy.jobs[0].firstStart +
            0.4 * healthy.jobs[0].serviceTime,
        0.5);

    // The uninterrupted catalog run is the byte-for-byte reference.
    const std::string ref_dir = freshDir("resume_ref");
    std::string want;
    {
        const auto catalog = ctrl::Catalog::open(catalogAt(ref_dir));
        fleet::FleetRequest request(trace);
        request.policy(fleet::PlacementPolicy::ExclusiveFirstFit)
            .addFault(fault)
            .catalog(catalog.get());
        want = request.run().toJson().dump(2);
        EXPECT_FALSE(request.stopped());
    }
    ASSERT_GE(healthy.toJson().dump(2).size(), 1u);

    std::uint64_t total_frames = 0;
    {
        ctrl::CatalogOptions ref_options;
        ref_options.dir = ref_dir;
        ref_options.readOnly = true;
        auto catalog = ctrl::Catalog::tryOpen(ref_options);
        ASSERT_NE(catalog, nullptr);
        total_frames = catalog->state().framesCommitted;
    }
    ASSERT_GE(total_frames, 7u)
        << "the sweep needs a multi-frame run to mean anything";

    for (std::uint64_t n = 1; n < total_frames; ++n) {
        SCOPED_TRACE("kill after frame " + std::to_string(n));
        const std::string dir =
            freshDir("resume_kill_" + std::to_string(n));
        {
            // Abandon stands in for SIGKILL: commits are
            // write-through before they apply, so stopping the loop
            // leaves the same catalog a dead process would.
            const auto catalog = ctrl::Catalog::open(catalogAt(dir));
            fleet::FleetRequest request(trace);
            request.policy(fleet::PlacementPolicy::ExclusiveFirstFit)
                .addFault(fault)
                .catalog(catalog.get())
                .stopAfterEvents(static_cast<std::int64_t>(n),
                                 fleet::StopMode::Abandon);
            request.run();
            ASSERT_TRUE(request.stopped());
        }
        const auto resumed =
            fleet::resumeFleet(*ctrl::Catalog::open(catalogAt(dir)));
        EXPECT_EQ(resumed.toJson().dump(2), want);
    }
}

TEST(FleetResume, ResumingAFinishedRunReproducesTheReport)
{
    fleet::ArrivalTraceOptions trace_options;
    trace_options.tiny = true;
    trace_options.jobCount = 2;
    trace_options.meanInterarrival = 0.01;
    trace_options.seed = 0x7e577e5704ULL;

    const std::string dir = freshDir("resume_finished");
    std::string want;
    {
        const auto catalog = ctrl::Catalog::open(catalogAt(dir));
        fleet::FleetRequest request(trace_options);
        request.policy(fleet::PlacementPolicy::RapShared)
            .catalog(catalog.get());
        want = request.run().toJson().dump(2);
    }
    // Nothing left to re-execute live: the whole run byte-verifies
    // against the recovered tail and the report comes out identical.
    EXPECT_EQ(fleet::resumeFleet(*ctrl::Catalog::open(catalogAt(dir)))
                  .toJson()
                  .dump(2),
              want);
}

/**
 * Commit the genesis record of a valid two-job fleet run, after
 * @p corrupt edited it, to a fresh catalog at @p dir.
 */
void
commitGenesis(const std::string &dir,
              const std::function<void(Json &)> &corrupt)
{
    fleet::ArrivalTraceOptions trace_options;
    trace_options.tiny = true;
    trace_options.jobCount = 2;
    Json jobs = Json::array();
    for (const auto &spec : fleet::makeArrivalTrace(trace_options))
        jobs.push(spec.toJson());
    Json genesis = Json::object();
    genesis.set("kind", Json("genesis"));
    genesis.set("config",
                fleet::fleetOptionsToJson(fleet::FleetOptions{}));
    genesis.set("jobs", std::move(jobs));
    corrupt(genesis);
    ctrl::CatalogOptions options;
    options.dir = dir;
    ctrl::Catalog::open(options)->commit(genesis);
}

TEST(FleetResumeDeathTest, InvalidGenesisFailsValidationOnResume)
{
    // Input read back from disk is checked like a fresh request: the
    // resume dies with the structured error naming the field, not an
    // assert deep inside the scheduler.
    ctrl::CatalogOptions overhead;
    overhead.dir = freshDir("resume_bad_overhead");
    commitGenesis(overhead.dir, [](Json &genesis) {
        Json config = genesis.at("config");
        config.set("restartOverhead", Json(-1.0));
        genesis.set("config", std::move(config));
    });
    EXPECT_EXIT(fleet::resumeFleet(*ctrl::Catalog::open(overhead)),
                testing::ExitedWithCode(1),
                "restartOverhead: must be finite and non-negative");

    ctrl::CatalogOptions sparse;
    sparse.dir = freshDir("resume_sparse_ids");
    commitGenesis(sparse.dir, [](Json &genesis) {
        Json jobs = Json::array();
        for (const Json &spec : genesis.at("jobs").elements()) {
            Json renumbered = spec;
            renumbered.set("id", Json(2 * jobs.size() + 1));
            jobs.push(std::move(renumbered));
        }
        genesis.set("jobs", std::move(jobs));
    });
    EXPECT_EXIT(fleet::resumeFleet(*ctrl::Catalog::open(sparse)),
                testing::ExitedWithCode(1),
                "jobs\\[0\\]\\.id: job ids must be dense");
}

TEST(FleetResumeDeathTest, GenesisFieldFromAnotherBuildIsNamed)
{
    // A catalog from a build whose options carried a field this build
    // no longer has (an earlier build recorded a DES worker count
    // here): the resume names the field that does not round-trip
    // rather than asserting on the genesis bytes.
    ctrl::CatalogOptions legacy;
    legacy.dir = freshDir("resume_legacy_field");
    commitGenesis(legacy.dir, [](Json &genesis) {
        Json config = genesis.at("config");
        config.set("retiredKnob", Json(1));
        genesis.set("config", std::move(config));
    });
    EXPECT_EXIT(fleet::resumeFleet(*ctrl::Catalog::open(legacy)),
                testing::ExitedWithCode(1),
                "config\\.retiredKnob does not round-trip");
}

} // namespace
} // namespace rap
