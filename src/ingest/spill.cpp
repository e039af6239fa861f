#include "ingest/spill.hpp"

#include <atomic>
#include <bit>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <string_view>
#include <unistd.h>

#include "common/log.hpp"

namespace rap::ingest {

namespace {

std::string
uniqueSpillPath()
{
    static std::atomic<std::uint64_t> next{0};
    const auto ordinal = next.fetch_add(1, std::memory_order_relaxed);
    const auto dir = std::filesystem::temp_directory_path();
    return (dir / ("rap_ingest_spill_" +
                   std::to_string(static_cast<long>(::getpid())) +
                   "_" + std::to_string(ordinal) + ".tsv"))
        .string();
}

void
appendNumber(std::string &out, std::uint64_t value, int base = 10)
{
    char buf[20];
    const auto result =
        std::to_chars(buf, buf + sizeof(buf), value, base);
    out.append(buf, result.ptr);
}

/**
 * Parse one spill line (no newline) into @p event.
 * @return False unless the line is exactly three well-formed fields.
 */
bool
parseLine(std::string_view line, Event &event)
{
    const char *const end = line.data() + line.size();
    std::uint64_t bits = 0;
    auto result = std::from_chars(line.data(), end, event.stream);
    if (result.ec != std::errc{} || result.ptr == end ||
        *result.ptr != '\t')
        return false;
    result = std::from_chars(result.ptr + 1, end, event.seq);
    if (result.ec != std::errc{} || result.ptr == end ||
        *result.ptr != '\t')
        return false;
    result = std::from_chars(result.ptr + 1, end, bits, 16);
    if (result.ec != std::errc{} || result.ptr != end)
        return false;
    event.emitTime = std::bit_cast<double>(bits);
    return true;
}

} // namespace

SpillLog::~SpillLog()
{
    removeFile();
}

bool
SpillLog::open(const std::string &path, io::IoContext *io)
{
    path_ = path.empty() ? uniqueSpillPath() : path;
    io_ = io;
    io::IoError error;
    out_ = io::openFile(io_, path_, io::OpenMode::Truncate, &error);
    if (out_ == nullptr) {
        logWarn("cannot open spill log: ", error.message());
        path_.clear();
        return false;
    }
    appended_ = 0;
    goodBytes_ = 0;
    return true;
}

bool
SpillLog::append(const Event &event)
{
    RAP_ASSERT(out_ != nullptr, "spill log not open");
    if (broken_)
        return false;
    line_.clear();
    appendNumber(line_, event.stream);
    line_ += '\t';
    appendNumber(line_, event.seq);
    line_ += '\t';
    appendNumber(line_, std::bit_cast<std::uint64_t>(event.emitTime), 16);
    line_ += '\n';
    const auto status = io::writeFully(*out_, line_.data(),
                                       line_.size(), retry_,
                                       &ioStats_);
    if (!status.ok()) {
        // Roll back to the previous line boundary so the partial
        // write cannot corrupt the replay; the caller accounts the
        // event as dropped. When even the rollback fails, refuse all
        // later appends: the clean prefix (everything this log ever
        // acknowledged) still replays, because a partial line never
        // contains its trailing newline.
        if (!out_->truncate(goodBytes_).ok())
            broken_ = true;
        return false;
    }
    goodBytes_ += line_.size();
    ++appended_;
    return true;
}

void
SpillLog::replay(const std::function<void(const Event &)> &fn)
{
    if (out_ == nullptr)
        return;
    out_.reset();
    std::string raw;
    const auto read = io::readFileBytes(io_, path_, &raw);
    if (!read.ok())
        RAP_FATAL("cannot reopen spill log for replay: ",
                  read.error->message());
    std::string_view rest(raw);
    std::uint64_t replayed = 0;
    Event event;
    while (!rest.empty()) {
        const auto newline = rest.find('\n');
        if (newline == std::string_view::npos)
            break; // rollback failure left a torn final line
        if (!parseLine(rest.substr(0, newline), event)) {
            RAP_FATAL("corrupt spill log line ", replayed, " in ",
                      path_);
        }
        rest.remove_prefix(newline + 1);
        fn(event);
        ++replayed;
    }
    RAP_ASSERT(replayed == appended_,
               "spill replay saw ", replayed, " events, expected ",
               appended_);
}

void
SpillLog::removeFile()
{
    out_.reset();
    if (!path_.empty()) {
        std::error_code ec;
        std::filesystem::remove(path_, ec);
        path_.clear();
    }
}

} // namespace rap::ingest
