#include "ctrl/catalog.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace rap::ctrl {

namespace {

/** Bump a ctrl.* counter when a registry is attached. */
void
count(obs::MetricRegistry *metrics, const char *name,
      std::uint64_t delta = 1)
{
    if (metrics != nullptr && delta > 0)
        metrics->counter(name).inc(delta);
}

/** fsync a path (directory or file) so a rename is durable. */
void
syncPath(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return; // best effort: some filesystems refuse dir opens
    ::fsync(fd);
    ::close(fd);
}

/** Stamp schema + LSN first, caller members after (stamps dropped). */
Json
stampTransaction(const Json &transaction, std::uint64_t lsn)
{
    RAP_ASSERT(transaction.isObject(),
               "catalog transactions must be objects");
    Json stamped = Json::object();
    stamped.set("schema", Json(kCatalogSchema));
    stamped.set("lsn", Json(lsn));
    for (const auto &[key, value] : transaction.members()) {
        if (key != "schema" && key != "lsn")
            stamped.set(key, value);
    }
    return stamped;
}

} // namespace

std::string
Catalog::walPath(const std::string &dir)
{
    return dir + "/wal.log";
}

std::string
Catalog::snapshotPath(const std::string &dir)
{
    return dir + "/snapshot.json";
}

std::string
Catalog::lockPath(const std::string &dir)
{
    return dir + "/LOCK";
}

Catalog::Catalog(CatalogOptions options) : options_(std::move(options))
{
}

Catalog::~Catalog()
{
    wal_.reset();
    if (lockFd_ >= 0)
        ::close(lockFd_); // closing drops the flock
}

std::unique_ptr<Catalog>
Catalog::tryOpen(CatalogOptions options, std::string *error)
{
    const auto refuse = [error](std::string message) {
        if (error != nullptr)
            *error = std::move(message);
        return nullptr;
    };
    if (options.dir.empty())
        return refuse("dir: a catalog needs a directory");
    if (options.compactEvery < 0) {
        return refuse("compactEvery: must be >= 0 (0 = never), got " +
                      std::to_string(options.compactEvery));
    }
    std::error_code ec;
    std::filesystem::create_directories(options.dir, ec);
    if (ec) {
        return refuse("cannot create catalog directory '" + options.dir +
                      "': " + ec.message());
    }
    std::unique_ptr<Catalog> catalog(new Catalog(std::move(options)));
    if (!catalog->recover(error))
        return nullptr;
    return catalog;
}

std::unique_ptr<Catalog>
Catalog::open(CatalogOptions options)
{
    std::string error;
    auto catalog = tryOpen(std::move(options), &error);
    if (catalog == nullptr)
        RAP_FATAL("catalog open failed: ", error);
    return catalog;
}

bool
Catalog::recover(std::string *error)
{
    const auto fail = [error](std::string message) {
        if (error != nullptr)
            *error = std::move(message);
        return false;
    };
    if (!options_.readOnly) {
        // The kernel drops a flock when its holder dies — SIGKILL
        // included — so refusal here always means a *live* writer.
        lockFd_ = ::open(lockPath(options_.dir).c_str(),
                         O_RDWR | O_CREAT | O_CLOEXEC, 0644);
        if (lockFd_ < 0) {
            return fail("cannot open '" + lockPath(options_.dir) +
                        "': " + std::strerror(errno));
        }
        if (::flock(lockFd_, LOCK_EX | LOCK_NB) != 0) {
            ::close(lockFd_);
            lockFd_ = -1;
            return fail("catalog '" + options_.dir +
                        "' is already open (flock held)");
        }
    }

    const std::string snap_path = snapshotPath(options_.dir);
    if (std::filesystem::exists(snap_path)) {
        std::string raw;
        const auto read =
            io::readFileBytes(options_.io, snap_path, &raw);
        if (!read.ok())
            return fail("catalog snapshot unreadable: " +
                        read.error->message());
        std::string parse_error;
        const Json snapshot = Json::parse(raw, &parse_error);
        if (!snapshot.isObject()) {
            return fail("catalog snapshot '" + snap_path +
                        "' is not valid JSON: " + parse_error);
        }
        const Json *schema = snapshot.find("schema");
        if (schema == nullptr || schema->asString() != kCatalogSchema) {
            return fail("catalog snapshot '" + snap_path +
                        "' has wrong schema");
        }
        state_.lastLsn = static_cast<std::uint64_t>(
            snapshot.at("lastLsn").asDouble());
        state_.framesCommitted = static_cast<std::uint64_t>(
            snapshot.at("framesCommitted").asDouble());
        state_.genesis = snapshot.at("genesis");
        for (const Json &entry : snapshot.at("jobs").elements()) {
            state_.jobs[static_cast<int>(entry.at("id").asDouble())] =
                entry.at("record");
        }
        for (const Json &entry : snapshot.at("placements").elements()) {
            state_.placements[static_cast<int>(
                entry.at("id").asDouble())] = entry.at("record");
        }
        for (const Json &entry : snapshot.at("manifests").elements())
            state_.manifests.push_back(entry);
    }
    const std::uint64_t snapshot_lsn = state_.lastLsn;

    const auto wal = readWal(walPath(options_.dir), options_.io);
    if (wal.corruptMidLog) {
        if (!options_.salvageCorruptTail) {
            // Truncating here would silently discard every committed
            // record at and past the damage; make the operator choose.
            return fail(
                "catalog WAL '" + walPath(options_.dir) +
                "' is corrupt at frame " +
                std::to_string(wal.badFrameIndex) + " (offset " +
                std::to_string(wal.badFrameOffset) +
                "): " + wal.badReason +
                "; re-open with salvage to keep the " +
                std::to_string(wal.records.size()) +
                " records before it");
        }
        salvagedCorruptTail_ = true;
        logWarn("catalog WAL salvage: dropping frame ",
                wal.badFrameIndex, "+ at offset ", wal.badFrameOffset,
                " (", wal.badReason, "), keeping ",
                wal.records.size(), " records");
        count(options_.metrics, "ctrl.wal.salvaged");
    }
    std::uint64_t replayed = 0;
    for (const std::string &payload : wal.records) {
        std::string parse_error;
        const Json txn = Json::parse(payload, &parse_error);
        if (!txn.isObject()) {
            // The checksum passed, so this is not crash damage —
            // something else wrote garbage into the log.
            return fail("catalog WAL record " +
                        std::to_string(replayed) +
                        " is not valid JSON: " + parse_error);
        }
        const auto lsn =
            static_cast<std::uint64_t>(txn.at("lsn").asDouble());
        if (lsn <= snapshot_lsn) {
            // A compaction crashed between the snapshot rename and
            // the WAL reset: the snapshot already covers this record.
            continue;
        }
        if (lsn <= state_.lastLsn) {
            // A replayed write can duplicate the tail frame. A
            // byte-identical echo is harmless; anything else claims
            // two different histories for one LSN.
            const auto it = recoveredTail_.find(lsn);
            if (it != recoveredTail_.end() && it->second == payload) {
                count(options_.metrics, "ctrl.wal.duplicates_skipped");
                continue;
            }
            return fail("catalog WAL replays LSN " +
                        std::to_string(lsn) +
                        " with different bytes: two histories for "
                        "one record");
        }
        if (lsn != state_.lastLsn + 1) {
            return fail("catalog WAL gap: expected LSN " +
                        std::to_string(state_.lastLsn + 1) +
                        ", found " + std::to_string(lsn));
        }
        applyTransaction(txn);
        recoveredTail_[lsn] = payload;
        ++replayed;
    }
    count(options_.metrics, "ctrl.recovery.replayed", replayed);

    if (wal.tornTail) {
        truncatedTornTail_ = true;
        count(options_.metrics, "ctrl.wal.truncated_records");
    }
    if (!options_.readOnly) {
        // Re-opening the writer at validBytes drops the torn (or
        // explicitly salvaged) tail. When even that fails the disk is
        // already gone: come up degraded rather than not at all.
        std::string open_error;
        wal_ = WalWriter::tryOpen(walPath(options_.dir), wal.validBytes,
                                  options_.io, options_.retry,
                                  &open_error);
        if (wal_ == nullptr) {
            io::IoError synthetic;
            synthetic.op = io::IoOp::Open;
            synthetic.path = walPath(options_.dir);
            synthetic.errnum = EIO;
            logWarn("catalog WAL writer open failed: ", open_error);
            degrade(synthetic);
        }
    }
    return true;
}

std::string
Catalog::serializeTransaction(const Json &transaction,
                              std::uint64_t lsn)
{
    return stampTransaction(transaction, lsn).dump();
}

void
Catalog::degrade(const io::IoError &error)
{
    if (degraded_)
        return;
    degraded_ = true;
    logWarn("catalog '", options_.dir,
            "' entering degraded in-memory mode: ", error.message(),
            " — commits keep applying but are no longer durable");
    count(options_.metrics, "ctrl.catalog.degraded");
}

io::IoStats
Catalog::ioStats() const
{
    io::IoStats total = localIoStats_;
    if (wal_ != nullptr) {
        total.retries += wal_->ioStats().retries;
        total.gaveUp += wal_->ioStats().gaveUp;
        total.virtualBackoffSeconds +=
            wal_->ioStats().virtualBackoffSeconds;
    }
    return total;
}

void
Catalog::mirrorIoStats()
{
    const io::IoStats total = ioStats();
    count(options_.metrics, "ctrl.io.retries",
          total.retries - mirroredIoStats_.retries);
    count(options_.metrics, "ctrl.io.gave_up",
          total.gaveUp - mirroredIoStats_.gaveUp);
    mirroredIoStats_ = total;
}

std::uint64_t
Catalog::commit(Json transaction)
{
    RAP_ASSERT(!options_.readOnly,
               "commit on a read-only catalog");
    const std::uint64_t lsn = state_.lastLsn + 1;
    const Json stamped = stampTransaction(transaction, lsn);
    const std::string payload = stamped.dump();
    if (!degraded_) {
        auto status = wal_->append(payload);
        if (status.ok()) {
            count(options_.metrics, "ctrl.wal.appends");
            count(options_.metrics, "ctrl.wal.bytes",
                  payload.size() + kWalFrameHeaderBytes);
            if (options_.fsyncOnCommit) {
                status = wal_->sync();
                if (status.ok())
                    count(options_.metrics, "ctrl.wal.syncs");
            }
        }
        if (!status.ok())
            degrade(*status.error);
        mirrorIoStats();
    }
    // Durable first, applied second: a kill between the two loses
    // only the in-memory view, which recovery rebuilds from the log.
    applyTransaction(stamped);
    ++commitsSinceCompact_;
    if (!degraded_ && options_.compactEvery > 0 &&
        commitsSinceCompact_ >= options_.compactEvery) {
        compact();
    }
    return lsn;
}

void
Catalog::applyTransaction(const Json &txn)
{
    const auto lsn = static_cast<std::uint64_t>(txn.at("lsn").asDouble());
    const std::string &kind = txn.at("kind").asString();
    if (kind == "genesis") {
        RAP_ASSERT(!state_.hasGenesis(),
                   "catalog already has a genesis transaction");
        state_.genesis = txn;
        for (const Json &spec : txn.at("jobs").elements()) {
            Json record = Json::object();
            record.set("spec", spec);
            record.set("status", Json("submitted"));
            state_.jobs[static_cast<int>(spec.at("id").asDouble())] =
                std::move(record);
        }
    } else if (kind == "frame") {
        for (const Json &op : txn.at("ops").elements()) {
            const std::string &name = op.at("op").asString();
            if (name == "seal") {
                state_.manifests.push_back(op.at("manifest"));
                continue;
            }
            if (name == "fault")
                continue; // no per-job record
            const int job = static_cast<int>(op.at("job").asDouble());
            const auto it = state_.jobs.find(job);
            RAP_ASSERT(it != state_.jobs.end(),
                       "catalog op for unknown job ", job);
            if (name == "admit" || name == "preempt") {
                it->second.set("status", Json("queued"));
            } else if (name == "place") {
                it->second.set("status", Json("running"));
                state_.placements[job] = op;
            } else if (name == "finish") {
                it->second.set("status", Json("finished"));
            } else {
                RAP_FATAL("unknown catalog op '", name, "'");
            }
        }
        state_.framesCommitted = static_cast<std::uint64_t>(
                                     txn.at("frame").asDouble()) +
                                 1;
    } else {
        RAP_FATAL("unknown catalog transaction kind '", kind, "'");
    }
    state_.lastLsn = lsn;
}

Json
Catalog::snapshotJson() const
{
    Json snapshot = Json::object();
    snapshot.set("schema", Json(kCatalogSchema));
    snapshot.set("lastLsn", Json(state_.lastLsn));
    snapshot.set("framesCommitted", Json(state_.framesCommitted));
    snapshot.set("genesis", state_.genesis);
    Json jobs = Json::array();
    for (const auto &[id, record] : state_.jobs) {
        Json entry = Json::object();
        entry.set("id", Json(id));
        entry.set("record", record);
        jobs.push(std::move(entry));
    }
    snapshot.set("jobs", std::move(jobs));
    Json placements = Json::array();
    for (const auto &[id, record] : state_.placements) {
        Json entry = Json::object();
        entry.set("id", Json(id));
        entry.set("record", record);
        placements.push(std::move(entry));
    }
    snapshot.set("placements", std::move(placements));
    Json manifests = Json::array();
    for (const Json &manifest : state_.manifests)
        manifests.push(manifest);
    snapshot.set("manifests", std::move(manifests));
    return snapshot;
}

void
Catalog::compact()
{
    RAP_ASSERT(!options_.readOnly,
               "compact on a read-only catalog");
    if (degraded_)
        return; // nothing durable left to fold
    const std::string final_path = snapshotPath(options_.dir);
    const std::string tmp_path = final_path + ".tmp";
    // Write-temp, fsync, rename: the snapshot becomes visible
    // atomically, so recovery sees either the old or the new one —
    // never a half-written file. A failed write (disk full, say)
    // leaves the old snapshot and the full WAL untouched: compaction
    // is an optimisation, skipping it loses nothing.
    const auto abandon = [&](const io::IoStatus &status) {
        logWarn("catalog compaction abandoned: ",
                status.error->message(),
                " — keeping the old snapshot and the full WAL");
        std::error_code ec;
        std::filesystem::remove(tmp_path, ec);
        count(options_.metrics, "ctrl.snapshot.failed");
        commitsSinceCompact_ = 0; // retry after another interval
        mirrorIoStats();
    };
    {
        io::IoError open_error;
        auto tmp = io::openFile(options_.io, tmp_path,
                                io::OpenMode::Truncate, &open_error);
        if (tmp == nullptr) {
            abandon(io::IoStatus::fail(open_error));
            return;
        }
        const std::string body = snapshotJson().dump(2);
        auto status = io::writeFully(*tmp, body.data(), body.size(),
                                     options_.retry, &localIoStats_);
        if (status.ok())
            status = io::syncFully(*tmp, options_.retry,
                                   &localIoStats_);
        if (!status.ok()) {
            abandon(status);
            return;
        }
    }
    if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
        io::IoError rename_error;
        rename_error.op = io::IoOp::Write;
        rename_error.path = final_path;
        rename_error.errnum = errno;
        abandon(io::IoStatus::fail(rename_error));
        return;
    }
    syncPath(options_.dir);
    // The WAL reset comes last. A crash right before it leaves stale
    // records the next recovery skips by LSN (<= snapshot lastLsn);
    // a *failed* reset leaves the same stale records, equally benign.
    if (auto status = wal_->reset(); !status.ok()) {
        logWarn("catalog WAL reset after compaction failed: ",
                status.error->message(),
                " — stale records will be skipped by LSN on recovery");
    }
    commitsSinceCompact_ = 0;
    count(options_.metrics, "ctrl.snapshot.writes");
    mirrorIoStats();
}

} // namespace rap::ctrl
