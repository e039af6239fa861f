#include "ingest/spill.hpp"

#include <atomic>
#include <bit>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <string_view>
#include <unistd.h>

#include "common/log.hpp"
#include "data/row_codec.hpp"

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
appendHex(std::string &out, std::uint64_t value)
{
    char buf[17];
    const auto result =
        std::to_chars(buf, buf + sizeof(buf), value, 16);
    out.append(buf, result.ptr);
}

bool
parseU64(std::string_view field, std::uint64_t &value, int base = 10)
{
    const auto *begin = field.data();
    const auto *end = field.data() + field.size();
    const auto result = std::from_chars(begin, end, value, base);
    return result.ec == std::errc{} && result.ptr == end;
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
    appendHex(line_, event.stream);
    line_ += '\t';
    appendHex(line_, event.seq);
    line_ += '\t';
    appendHex(line_, std::bit_cast<std::uint64_t>(event.emitTime));
    line_ += '\t';
    data::encodeCriteoRow(event.row, line_);
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
SpillLog::replay(const data::Schema &schema,
                 const std::function<void(const Event &)> &fn)
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
    data::RowError error;
    Event event;
    while (!rest.empty()) {
        const auto newline = rest.find('\n');
        if (newline == std::string_view::npos)
            break; // rollback failure left a torn final line
        std::string_view view = rest.substr(0, newline);
        rest.remove_prefix(newline + 1);
        // Three fixed metadata fields, then the row codec's TSV.
        std::uint64_t stream = 0, seq = 0, bits = 0;
        bool ok = true;
        for (int field = 0; ok && field < 3; ++field) {
            const auto tab = view.find('\t');
            ok = tab != std::string_view::npos;
            if (!ok)
                break;
            const auto token = view.substr(0, tab);
            view.remove_prefix(tab + 1);
            switch (field) {
              case 0: ok = parseU64(token, stream, 16); break;
              case 1: ok = parseU64(token, seq, 16); break;
              default: ok = parseU64(token, bits, 16); break;
            }
        }
        if (!ok ||
            !data::decodeCriteoRow(view, schema, event.row, error)) {
            RAP_FATAL("corrupt spill log line ", replayed, " in ",
                      path_);
        }
        event.stream = static_cast<std::uint32_t>(stream);
        event.seq = seq;
        event.emitTime = std::bit_cast<double>(bits);
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
