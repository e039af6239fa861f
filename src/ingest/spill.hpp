/**
 * @file
 * Disk spill log backing BackpressurePolicy::Spill: overload-diverted
 * events are appended as TSV lines and replayed in order once the
 * live queue has drained, so no event is lost — it just pays the
 * detour in staging latency.
 *
 * Line format: `<stream>\t<seq>\t<emit-bits-hex>\n`, with stream and
 * seq in decimal and the emit time as the lowercase hex of its IEEE-754
 * bit pattern, so a replayed event is bit-identical to the one spilled
 * and checksums over replayed batches stay producer-count-invariant.
 *
 * Writes go through common/io's File layer (short writes healed,
 * EINTR free, transient EIO retried within the budget). A write the
 * budget cannot save rolls the file back to the previous line
 * boundary and fails the append — the caller counts the event as
 * dropped instead of trusting a log that silently lost it.
 */

#ifndef RAP_INGEST_SPILL_HPP
#define RAP_INGEST_SPILL_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/io.hpp"
#include "ingest/event.hpp"

namespace rap::ingest {

class SpillLog
{
  public:
    SpillLog() = default;
    ~SpillLog();

    SpillLog(const SpillLog &) = delete;
    SpillLog &operator=(const SpillLog &) = delete;

    /**
     * Open for writing (truncates). @p path may be empty: a unique
     * file under the system temp directory is created instead.
     * @p io is the optional fault-injection context (non-owning).
     * @return False when the disk refuses the open — the caller
     * decides the fallback (the stager downgrades to dropping).
     */
    [[nodiscard]] bool open(const std::string &path,
                            io::IoContext *io = nullptr);

    bool isOpen() const { return out_ != nullptr; }
    const std::string &path() const { return path_; }
    std::uint64_t appended() const { return appended_; }

    /** Retry/give-up tallies accumulated by this log. */
    const io::IoStats &ioStats() const { return ioStats_; }

    /**
     * Persist one event (append order = spill order). @return False
     * when the write failed past the retry budget; the log is rolled
     * back to the previous line so later appends stay parseable, and
     * the event is the caller's to account as lost.
     */
    [[nodiscard]] bool append(const Event &event);

    /**
     * Close the writer and stream every spilled event back through
     * @p fn in append order. Fatal on a malformed line — every
     * successful append ended on a line boundary, so the log is
     * either clean or our accounting is buggy.
     */
    void replay(const std::function<void(const Event &)> &fn);

    /** Best-effort unlink of the log file (idempotent). */
    void removeFile();

  private:
    std::unique_ptr<io::File> out_;
    io::IoContext *io_ = nullptr;
    io::IoRetryPolicy retry_;
    io::IoStats ioStats_;
    std::string path_;
    std::string line_;
    std::uint64_t appended_ = 0;
    /** Bytes confirmed on disk (the rollback point for append). */
    std::uint64_t goodBytes_ = 0;
    /**
     * Set when a failed append could not be rolled back: appending
     * after the torn bytes would corrupt the replay, so every later
     * append refuses immediately. The clean prefix still replays.
     */
    bool broken_ = false;
};

} // namespace rap::ingest

#endif // RAP_INGEST_SPILL_HPP
