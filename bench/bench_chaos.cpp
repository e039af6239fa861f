/**
 * @file
 * Storage-chaos soak (DESIGN.md §15): sweep seeded fault schedules
 * across catalog commit points × fault kinds and assert the recovery
 * trichotomy on every case —
 *
 *  - byte-identical recovery: the resumed FleetReport equals the
 *    uninterrupted run's, byte for byte;
 *  - structured refusal: mid-log corruption fails the open with a
 *    message naming the bad frame, and an explicit salvage reopen
 *    still resumes byte-identically from the valid prefix;
 *  - flagged degradation: a disk that dies past the retry budget
 *    drops the catalog to in-memory mode, the run completes, and the
 *    report differs from the reference only in its degradation flag.
 *
 * Phase A damages catalogs at rest (crash-tail mutations after an
 * abandoned run at every commit point); phase B injects live faults
 * (EINTR storms, short writes, transient and permanent EIO, flaky
 * fsync, a filling disk) under the full fleet run. Anything outside
 * the trichotomy — above all an open that succeeds with different
 * bytes — prints DIVERGED and fails the process.
 *
 * Stdout is deterministic: the same seed produces the same table for
 * any --jobs, which the storage_chaos ctest diffs. Catalogs go under
 * the system temp root (TMPDIR). The bench writes no metrics, so
 * --metrics is an unknown flag.
 */

#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/io.hpp"
#include "common/log.hpp"
#include "common/table.hpp"
#include "ctrl/catalog.hpp"
#include "ctrl/wal.hpp"
#include "fleet/fleet.hpp"

namespace {

using namespace rap;
namespace fs = std::filesystem;

/** A clean scratch directory under the system temp root. */
std::string
freshDir(const std::string &name)
{
    const fs::path dir =
        fs::temp_directory_path() / ("rap_bench_chaos." + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

/** At-rest damage applied to the killed catalog's WAL tail. */
enum class TailDamage
{
    None,    // plain kill: complete frames only
    Torn,    // final frame cut short (power cut mid-write)
    BitFlip, // payload bit rot in the final frame
    DupTail, // final frame bytes appended twice (replayed write)
};

const char *
damageName(TailDamage damage)
{
    switch (damage) {
    case TailDamage::None:
        return "kill";
    case TailDamage::Torn:
        return "torn";
    case TailDamage::BitFlip:
        return "flip";
    default:
        return "dup";
    }
}

void
applyDamage(const std::string &wal_path, TailDamage damage)
{
    const auto scan = ctrl::readWal(wal_path);
    RAP_ASSERT(!scan.frames.empty(), "empty WAL at ", wal_path);
    const auto &last = scan.frames.back();
    const std::uint64_t frame_bytes =
        ctrl::kWalFrameHeaderBytes + last.length;
    switch (damage) {
    case TailDamage::None:
        break;
    case TailDamage::Torn:
        io::truncateFileTo(wal_path, io::fileSizeBytes(wal_path) - 3);
        break;
    case TailDamage::BitFlip:
        io::flipByteAt(wal_path,
                       last.offset + ctrl::kWalFrameHeaderBytes);
        break;
    case TailDamage::DupTail:
        io::duplicateTailBytes(wal_path, frame_bytes);
        break;
    }
}

/** A live-injection arm for phase B. */
struct LiveFault
{
    const char *key;
    io::IoFaultSchedule schedule;
    bool expectDegraded;
    /** fsync inside every commit (the flaky-fsync arm needs it). */
    bool fsyncOnCommit = false;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::ArgParser args(
        "bench_chaos",
        "storage-fault soak: crash-tail mutations and live fault "
        "injection across the durable fleet catalog, asserting "
        "byte-identical recovery, structured refusal, or flagged "
        "degradation on every case",
        bench::ArgParser::Metrics::None);
    int &seed = args.addInt("--seed", 7, "fault-schedule RNG seed");
    args.parse(argc, argv);
    ThreadPool pool(args.jobThreads());
    const bool tiny = args.tiny();

    fleet::ArrivalTraceOptions trace_options;
    trace_options.tiny = tiny;
    trace_options.jobCount = tiny ? 3 : 6;
    trace_options.meanInterarrival = 0.01;
    trace_options.seed = 0xc4a05ULL + static_cast<unsigned>(seed);
    const auto trace = fleet::makeArrivalTrace(trace_options);

    // One run over a fresh catalog at @p dir; a positive @p stop_after
    // abandons it after that many committed frames.
    const auto runWithCatalogDir = [&](const std::string &dir,
                                       std::int64_t stop_after) {
        ctrl::CatalogOptions options;
        options.dir = dir;
        const auto catalog = ctrl::Catalog::open(options);
        fleet::FleetRequest request(trace);
        request.policy(fleet::PlacementPolicy::ExclusiveFirstFit)
            .catalog(catalog.get());
        if (stop_after > 0)
            request.stopAfterEvents(stop_after, fleet::StopMode::Abandon);
        auto report = request.run();
        RAP_ASSERT(stop_after == 0 || request.stopped(), "stop point ",
                   stop_after, " beyond the run");
        return report;
    };

    // The uninterrupted catalog run is the byte-for-byte reference.
    const std::string ref_dir = freshDir("ref");
    const std::string want =
        runWithCatalogDir(ref_dir, 0).toJson().dump(2);

    std::uint64_t total_frames = 0;
    {
        ctrl::CatalogOptions options;
        options.dir = ref_dir;
        options.readOnly = true;
        auto catalog = ctrl::Catalog::tryOpen(options);
        RAP_ASSERT(catalog != nullptr, "cannot reopen ", ref_dir);
        total_frames = catalog->state().framesCommitted;
    }
    std::cout << "=== Storage-chaos soak (" << trace.size()
              << " jobs, " << total_frames
              << " committed frames, seed " << seed << ") ===\n\n";

    bool failed = false;
    const auto verdict = [&](const std::string &got) {
        if (got == want)
            return std::string("byte-identical");
        failed = true;
        return std::string("DIVERGED");
    };

    // ---- Phase A: crash-tail damage at every commit point --------
    //
    // Abandon at frame n stands in for SIGKILL (commits are
    // write-through), then the WAL tail is damaged at rest. Damage
    // kinds that can destroy the genesis record start at frame 2.
    AsciiTable tail_table({"case", "open", "resume"});
    const std::vector<TailDamage> damages{
        TailDamage::None, TailDamage::Torn, TailDamage::BitFlip,
        TailDamage::DupTail};
    // --tiny sweeps every commit point; the full run strides so the
    // soak stays tractable while still crossing the whole log.
    const std::uint64_t stride =
        tiny ? 1 : std::max<std::uint64_t>(1, total_frames / 12);
    for (std::uint64_t n = 1; n < total_frames; n += stride) {
        for (const TailDamage damage : damages) {
            if (damage != TailDamage::None && n < 2)
                continue;
            const std::string name = std::string(damageName(damage)) +
                                     "@" + std::to_string(n);
            const std::string dir = freshDir("tail_" + name);
            runWithCatalogDir(dir, static_cast<std::int64_t>(n));
            applyDamage(ctrl::Catalog::walPath(dir), damage);

            ctrl::CatalogOptions options;
            options.dir = dir;
            std::string error;
            auto catalog = ctrl::Catalog::tryOpen(options, &error);
            std::string open_outcome;
            if (catalog == nullptr) {
                // Structured refusal; an explicit salvage keeps the
                // valid prefix and the resume replays the rest live.
                RAP_ASSERT(error.find("corrupt") != std::string::npos,
                           "unstructured refusal: ", error);
                ctrl::CatalogOptions salvage;
                salvage.dir = dir;
                salvage.salvageCorruptTail = true;
                catalog = ctrl::Catalog::tryOpen(salvage, &error);
                RAP_ASSERT(catalog != nullptr,
                           "salvage open failed: ", error);
                open_outcome = "refused, salvaged";
            } else if (catalog->truncatedTornTail()) {
                open_outcome = "torn tail truncated";
            } else {
                open_outcome = "clean";
            }
            const auto resumed = fleet::resumeFleet(*catalog, &pool);
            tail_table.addRow({name, open_outcome,
                               verdict(resumed.toJson().dump(2))});
        }
    }
    std::cout << "-- phase A: crash-tail damage --\n"
              << tail_table.render() << "\n";

    // ---- Phase B: live fault injection under the full run --------
    //
    // Transient schedules must ride the retry budget to a clean,
    // fully durable run; terminal ones must finish flagged-degraded
    // with numbers identical to the reference.
    std::vector<LiveFault> live;
    {
        LiveFault f{"eintr-storm", {}, false};
        f.schedule.eintrRate = 0.4;
        f.schedule.eintrBurst = 3;
        live.push_back(f);
    }
    {
        LiveFault f{"short-writes", {}, false};
        f.schedule.shortWriteRate = 0.6;
        live.push_back(f);
    }
    {
        LiveFault f{"transient-eio", {}, false};
        f.schedule.transientEioRate = 0.25;
        f.schedule.transientEioBurst = 2;
        live.push_back(f);
    }
    {
        LiveFault f{"flaky-fsync", {}, false};
        f.schedule.syncFailRate = 0.3;
        f.schedule.syncFailBurst = 2;
        f.fsyncOnCommit = true;
        live.push_back(f);
    }
    {
        LiveFault f{"disk-death", {}, true};
        f.schedule.transientEioRate = 1.0;
        f.schedule.transientEioBurst = 1 << 20;
        live.push_back(f);
    }
    {
        LiveFault f{"disk-full", {}, true};
        f.schedule.enospcAfterBytes = 512;
        live.push_back(f);
    }

    // armAfterOps moves the failure onset across commit points: a
    // disk that was always dead, one that dies mid-run, one that
    // dies near the end. One io op ≈ one commit, so the commit count
    // sets the scale.
    const std::vector<std::uint64_t> arm_points{0, total_frames / 2,
                                                total_frames};
    AsciiTable live_table(
        {"fault", "arm", "outcome", "retries", "gave_up", "report"});
    int case_index = 0;
    for (const auto &fault : live) {
        for (const std::uint64_t arm : arm_points) {
            io::IoFaultSchedule schedule = fault.schedule;
            schedule.armAfterOps = arm;
            schedule.seed += static_cast<std::uint64_t>(seed) * 1001 +
                             static_cast<std::uint64_t>(++case_index);
            io::IoContext io(schedule);

            ctrl::CatalogOptions options;
            options.dir = freshDir(std::string("live_") + fault.key +
                                   "_" + std::to_string(arm));
            options.io = &io;
            options.fsyncOnCommit = fault.fsyncOnCommit;
            options.retry.maxAttempts = 12;
            std::string error;
            auto catalog = ctrl::Catalog::tryOpen(options, &error);
            RAP_ASSERT(catalog != nullptr, "open failed: ", error);

            auto report =
                fleet::FleetRequest(trace)
                    .policy(fleet::PlacementPolicy::ExclusiveFirstFit)
                    .catalog(catalog.get())
                    .run();
            std::string outcome;
            if (catalog->degraded()) {
                outcome = "degraded";
                if (!fault.expectDegraded || !report.catalogDegraded) {
                    outcome = "UNEXPECTED degradation";
                    failed = true;
                }
                // Flag-normalized equality: only the flag may differ.
                report.catalogDegraded = false;
            } else {
                outcome = "clean";
                if (fault.expectDegraded) {
                    // A late arm point can leave the whole run inside
                    // the healthy window; that is a clean pass, not a
                    // failure of the trichotomy.
                    outcome = "clean (fault never hit)";
                }
            }
            const auto stats = catalog->ioStats();
            live_table.addRow({fault.key, std::to_string(arm),
                               outcome, std::to_string(stats.retries),
                               std::to_string(stats.gaveUp),
                               verdict(report.toJson().dump(2))});
        }
    }
    std::cout << "-- phase B: live fault injection --\n"
              << live_table.render() << "\n";

    std::cout << (failed
                      ? "VERDICT: silent divergence detected\n"
                      : "VERDICT: every case landed in the recovery "
                        "trichotomy, zero silent divergence\n");
    return failed ? 1 : 0;
}
