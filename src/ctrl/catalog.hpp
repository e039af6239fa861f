/**
 * @file
 * The durable fleet catalog: a small transactional store over one
 * directory —
 *
 *   <dir>/wal.log        CRC-framed WAL of committed transactions
 *   <dir>/snapshot.json  periodic compaction of everything before it
 *   <dir>/LOCK           flock(2)-held while a process has it open
 *
 * Every transaction is one versioned `rap.catalog.v1` JSON payload
 * (common/json.hpp's deterministic writer). commit() appends the
 * framed record — fsync'ing when the fsync-on-commit knob is set —
 * *before* folding it into the in-memory CatalogState, so durable
 * state never lags applied state. Recovery-on-open loads the latest
 * snapshot, replays the WAL tail over it (records whose LSN the
 * snapshot already covers are skipped, which is what makes a crash
 * between the snapshot rename and the WAL reset harmless), and
 * truncates any torn trailing record.
 *
 * The state tracks three record families for the fleet layer: job
 * specs, placement decisions (with their envelope reservations), and
 * checkpoint manifests. The catalog itself is schema-agnostic beyond
 * the transaction envelope — apply() folds ops structurally.
 *
 * Failure semantics (the recovery trichotomy): every durable outcome
 * is one of
 *  - byte-identical recovery: a torn WAL tail is truncated and the
 *    valid prefix replayed, producing the exact pre-crash state;
 *  - a structured refusal: mid-log corruption (a complete frame with
 *    a bad checksum, a replay gap, a non-identical duplicate LSN)
 *    fails tryOpen with a message naming the first bad frame — unless
 *    salvageCorruptTail explicitly accepts the valid prefix;
 *  - flagged degradation: when the disk refuses writes past the retry
 *    budget at runtime, the catalog warns once, raises
 *    `ctrl.catalog.degraded`, stops writing, and keeps applying
 *    commits in memory so the fleet can finish its run.
 * Silent data loss is never on the menu.
 */

#ifndef RAP_CTRL_CATALOG_HPP
#define RAP_CTRL_CATALOG_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "ctrl/wal.hpp"

namespace rap::obs {
class MetricRegistry;
}

namespace rap::ctrl {

/** Schema token stamped on every catalog transaction and snapshot. */
inline constexpr const char *kCatalogSchema = "rap.catalog.v1";

/** Catalog configuration. */
struct CatalogOptions
{
    /** Directory holding wal.log / snapshot.json / LOCK. */
    std::string dir;
    /**
     * fsync the WAL inside every commit. Off by default: the benches
     * trade the sync for speed (a kernel crash can then lose the last
     * commits, a process kill cannot — writes reach the kernel before
     * commit returns either way).
     */
    bool fsyncOnCommit = false;
    /**
     * Compact into snapshot.json every N commits (0 = only when
     * compact() is called explicitly).
     */
    int compactEvery = 0;
    /**
     * Read-only open: no LOCK acquisition, no torn-tail truncation,
     * commit() refused. For inspection tools running against a
     * possibly-live catalog.
     */
    bool readOnly = false;
    /**
     * Accept a WAL whose tail is mid-log corrupt by truncating it to
     * the valid prefix. Off by default: corruption is refused with a
     * structured error, because truncating it silently would discard
     * committed records. Turning this on is the operator saying "I
     * know, keep what is readable".
     */
    bool salvageCorruptTail = false;
    /** Optional registry for the ctrl.* counters (non-owning). */
    obs::MetricRegistry *metrics = nullptr;
    /** Optional fault-injection context (non-owning; null = POSIX). */
    io::IoContext *io = nullptr;
    /** Retry budget for every durable write under the catalog. */
    io::IoRetryPolicy retry;
};

/** Replayed view of the record families the fleet layer persists. */
struct CatalogState
{
    /** The genesis transaction (run config + job specs); null before. */
    Json genesis;
    /** Latest record per job id: {"spec": ..., "status": ...}. */
    std::map<int, Json> jobs;
    /** Latest placement decision per job id (envelope included). */
    std::map<int, Json> placements;
    /** Checkpoint manifests in seal order. */
    std::vector<Json> manifests;
    /** LSN of the last applied transaction (0 = empty catalog). */
    std::uint64_t lastLsn = 0;
    /** Event frames applied (genesis excluded). */
    std::uint64_t framesCommitted = 0;

    bool hasGenesis() const { return !genesis.isNull(); }
};

/**
 * One open catalog. At most one writer per directory: open() takes an
 * exclusive flock on <dir>/LOCK, which the kernel releases when the
 * process dies — even by SIGKILL — so stale locks cannot wedge a
 * resume.
 */
class Catalog
{
  public:
    /**
     * Open (creating the directory when missing) and recover. On
     * failure — an empty dir, a negative compactEvery, or notably
     * another open catalog holding the lock — returns nullptr and
     * stores a message in @p error when non-null.
     */
    static std::unique_ptr<Catalog> tryOpen(CatalogOptions options,
                                            std::string *error = nullptr);

    /** tryOpen, but fatal on failure. */
    static std::unique_ptr<Catalog> open(CatalogOptions options);

    Catalog(const Catalog &) = delete;
    Catalog &operator=(const Catalog &) = delete;
    ~Catalog();

    /**
     * Commit @p transaction: stamp the schema token and the next LSN,
     * append the framed record (fsync when configured), then apply it
     * to state(). Auto-compacts every compactEvery commits. @return
     * the assigned LSN.
     */
    std::uint64_t commit(Json transaction);

    /**
     * Fold everything into snapshot.json (write-temp, fsync, rename)
     * and reset the WAL. Crash-safe at every step: an interrupted
     * compaction leaves either the old snapshot + full WAL or the new
     * snapshot + a WAL whose records recovery skips by LSN.
     */
    void compact();

    /**
     * The exact bytes commit() would log for @p transaction at
     * @p lsn: schema and LSN stamped first, caller members after,
     * caller copies of the stamps dropped. A resuming scheduler calls
     * this to recompute a frame's payload and byte-compare it against
     * recoveredTail().
     */
    static std::string serializeTransaction(const Json &transaction,
                                            std::uint64_t lsn);

    /** The replayed state (updated by every commit). */
    const CatalogState &state() const { return state_; }

    /**
     * Serialized transactions recovered from the WAL at open, keyed
     * by LSN — the un-compacted tail. A resuming scheduler verifies
     * its re-executed frames byte-for-byte against these.
     */
    const std::map<std::uint64_t, std::string> &recoveredTail() const
    {
        return recoveredTail_;
    }

    /** @return True when open dropped a torn/corrupt WAL tail. */
    bool truncatedTornTail() const { return truncatedTornTail_; }

    /** @return True when salvage mode truncated mid-log corruption. */
    bool salvagedCorruptTail() const { return salvagedCorruptTail_; }

    /**
     * @return True once the disk refused a write past the retry
     * budget: commits still apply in memory but nothing is durable.
     */
    bool degraded() const { return degraded_; }

    /** Retry/give-up tallies across the WAL and compaction writes. */
    io::IoStats ioStats() const;

    const CatalogOptions &options() const { return options_; }

    /** Path helpers (shared with tools/catalog_dump). */
    static std::string walPath(const std::string &dir);
    static std::string snapshotPath(const std::string &dir);
    static std::string lockPath(const std::string &dir);

  private:
    explicit Catalog(CatalogOptions options);

    bool recover(std::string *error);
    void applyTransaction(const Json &txn);
    Json snapshotJson() const;
    /** Enter flagged in-memory mode (first call warns + counts). */
    void degrade(const io::IoError &error);
    /** Push the io-stat deltas since the last call into metrics. */
    void mirrorIoStats();

    CatalogOptions options_;
    CatalogState state_;
    std::map<std::uint64_t, std::string> recoveredTail_;
    std::unique_ptr<WalWriter> wal_;
    /** Retries/give-ups outside the WAL writer (compaction, reads). */
    io::IoStats localIoStats_;
    /** Totals already mirrored into the metric registry. */
    io::IoStats mirroredIoStats_;
    int lockFd_ = -1;
    bool truncatedTornTail_ = false;
    bool salvagedCorruptTail_ = false;
    bool degraded_ = false;
    /** Commits since the last compaction (auto-compact trigger). */
    int commitsSinceCompact_ = 0;
};

} // namespace rap::ctrl

#endif // RAP_CTRL_CATALOG_HPP
