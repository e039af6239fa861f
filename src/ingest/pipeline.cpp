#include "ingest/pipeline.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <span>
#include <vector>

#include "common/log.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "ingest/stream.hpp"

namespace rap::ingest {

namespace {

std::string
hex(std::uint64_t value)
{
    char buf[17];
    const auto result =
        std::to_chars(buf, buf + sizeof(buf), value, 16);
    return std::string(buf, result.ptr);
}

/**
 * One stream's generation state: its emitter, two slabs of events
 * (window w fills slab w % 2 while the caller merges the other), and
 * the stream's next event, held while it lies past the last window.
 */
class Lane
{
  public:
    Lane(const IngestConfig &config, std::uint32_t stream)
        : emitter_(config, stream)
    {
    }

    /** Refill slab @p slot with the stream's events emitted before
     *  @p end. */
    void
    fill(std::size_t slot, Seconds end)
    {
        auto &slab = slabs_[slot];
        slab.clear();
        for (;;) {
            if (!held_) {
                if (!emitter_.next(next_))
                    break;
                held_ = true;
            }
            if (next_.emitTime >= end)
                break;
            slab.push_back(next_);
            held_ = false;
        }
    }

    std::span<const Event>
    slab(std::size_t slot) const
    {
        return slabs_[slot];
    }

    /** @return True while the stream has events no slab took yet. */
    bool live() const { return held_ || !emitter_.exhausted(); }

  private:
    StreamEmitter emitter_;
    std::array<std::vector<Event>, 2> slabs_;
    Event next_;
    bool held_ = false;
};

} // namespace

Json
IngestReport::toJson() const
{
    Json out = Json::object();
    out.set("events", Json(events));
    out.set("dropped", Json(dropped));
    out.set("spilled", Json(spilled));
    out.set("replayed", Json(replayed));
    out.set("batches", Json(batches));
    out.set("rows_staged", Json(rowsStaged));
    out.set("staging_p50_us", Json(p50 * 1e6));
    out.set("staging_p95_us", Json(p95 * 1e6));
    out.set("staging_p99_us", Json(p99 * 1e6));
    out.set("max_queue_depth",
            Json(static_cast<std::uint64_t>(maxQueueDepth)));
    out.set("last_ready_at", Json(lastReadyAt));
    out.set("checksum", Json(hex(checksum)));
    return out;
}

IngestPipeline::IngestPipeline(IngestConfig config)
    : config_(std::move(config))
{
    const auto result = validateIngestConfig(config_);
    if (!result.ok())
        RAP_FATAL("invalid ingest config:\n", result.render());
}

IngestReport
IngestPipeline::run(const BatchSink &sink,
                    obs::MetricRegistry *metrics,
                    const obs::Labels &labels)
{
    const auto streams = static_cast<std::size_t>(config_.streams);
    const std::size_t producers =
        config_.producers <= 0
            ? streams
            : std::min<std::size_t>(
                  static_cast<std::size_t>(config_.producers),
                  streams);

    IngestMetrics instruments;
    if (metrics != nullptr)
        instruments = IngestMetrics::create(*metrics, labels);
    Stager stager(config_, sink, instruments);

    const auto wall_begin = std::chrono::steady_clock::now();
    ThreadPool pool(static_cast<int>(producers));
    std::vector<Lane> lanes;
    lanes.reserve(streams);
    for (std::size_t s = 0; s < streams; ++s)
        lanes.emplace_back(config_, static_cast<std::uint32_t>(s));

    // Window w ends at w * width, computed afresh each time so every
    // lane cuts at the same bits and no rounding accumulates.
    const Seconds width = static_cast<double>(config_.windowEvents) /
                          peakRate(config_.profile);
    const auto fill = [&](std::uint64_t window) {
        const Seconds end = static_cast<double>(window) * width;
        return [&lanes, end, slot = window % 2](std::size_t s) {
            lanes[s].fill(slot, end);
        };
    };
    // K-way merge of one filled window on the total event key. Every
    // event of window w precedes every event of window w + 1, so
    // merging window by window yields the global order.
    std::vector<std::span<const Event>> heads;
    heads.reserve(streams);
    const auto merge = [&](std::uint64_t window) {
        heads.clear();
        std::uint64_t events = 0;
        for (const auto &lane : lanes) {
            const auto slab = lane.slab(window % 2);
            events += slab.size();
            if (!slab.empty())
                heads.push_back(slab);
        }
        if (instruments.events != nullptr)
            instruments.events->inc(events);
        while (!heads.empty()) {
            std::size_t min = 0;
            for (std::size_t h = 1; h < heads.size(); ++h) {
                if (eventBefore(heads[h].front(), heads[min].front()))
                    min = h;
            }
            stager.push(heads[min].front());
            heads[min] = heads[min].subspan(1);
            if (heads[min].empty()) {
                heads[min] = heads.back();
                heads.pop_back();
            }
        }
    };

    std::uint64_t window = 1;
    pool.parallelFor(streams, fill(window));
    while (std::any_of(lanes.begin(), lanes.end(),
                       [](const Lane &lane) { return lane.live(); })) {
        pool.parallelFor(streams, fill(window + 1), [&] { merge(window); });
        ++window;
    }
    merge(window);
    stager.finish();
    const auto wall_end = std::chrono::steady_clock::now();

    const auto &stats = stager.stats();
    IngestReport report;
    report.events = stats.arrived;
    report.dropped = stats.dropped;
    report.spilled = stats.spilled;
    report.replayed = stats.replayed;
    report.batches = stats.batches;
    report.rowsStaged = stats.rowsStaged;
    if (!stats.latencies.empty()) {
        report.p50 = percentile(stats.latencies, 50.0);
        report.p95 = percentile(stats.latencies, 95.0);
        report.p99 = percentile(stats.latencies, 99.0);
    }
    report.maxQueueDepth = stats.maxQueueDepth;
    report.lastReadyAt = stats.lastReadyAt;
    report.checksum = stats.checksum;
    report.wallMs =
        std::chrono::duration<double, std::milli>(wall_end -
                                                  wall_begin)
            .count();
    return report;
}

} // namespace rap::ingest
