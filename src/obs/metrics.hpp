/**
 * @file
 * The unified observability layer: a per-run metric registry plus
 * RAII span scopes (obs/span.hpp) and exporters (obs/snapshot.hpp).
 *
 * Every run (a single-job simulation, a fleet schedule, one bench
 * sweep) owns its own MetricRegistry — there are no globals, so the
 * fleet scheduler's memoised inner simulations stay byte-identical no
 * matter what the outer run records. Instruments identify themselves
 * by (name, labels), e.g. `sim.device.kernels{gpu=3}`.
 *
 * Hot-path cost: Counter::inc and Histogram::observe are lock-free
 * updates of one relaxed-atomic cell per instrument (a fetch_add, plus
 * a CAS on the histogram sum); only instrument lookup takes the
 * registry mutex.
 *
 * Determinism contract (what lets CI diff snapshots across --jobs):
 *  - counters are unsigned integers and gauges taking max/set are
 *    order-insensitive, so concurrent recording from thread-pool
 *    workers still sums/maxes to the same value;
 *  - one histogram or series instance must only be fed by one strand
 *    at a time (the simulation thread, or one sweep point): its double
 *    accumulations then happen in observation order, whichever thread
 *    each observation runs on. Sweep benches get this by scoping
 *    instruments with a per-point `run=` label;
 *  - wall-clock quantities (span durations) are recorded for the
 *    Chrome-trace export but never enter the snapshot.
 * Exporters sort instruments by (name, labels), so registry creation
 * order — which does vary across thread interleavings — is never
 * observable.
 */

#ifndef RAP_OBS_METRICS_HPP
#define RAP_OBS_METRICS_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace rap::obs {

/**
 * Instrument labels: key-value pairs, kept sorted by key so equal
 * label sets compare and render identically regardless of the order
 * call sites listed them in.
 */
class Labels
{
  public:
    Labels() = default;
    Labels(std::initializer_list<std::pair<std::string, std::string>>
               pairs);

    /** Add (or replace) one label. */
    void set(const std::string &key, std::string value);

    bool empty() const { return pairs_.empty(); }
    const std::vector<std::pair<std::string, std::string>> &
    pairs() const
    {
        return pairs_;
    }

    /** @return "{a=1,b=2}" ("" when empty); the canonical key form. */
    std::string render() const;

    bool operator==(const Labels &other) const = default;
    auto operator<=>(const Labels &other) const = default;

  private:
    std::vector<std::pair<std::string, std::string>> pairs_;
};

/**
 * Monotonic unsigned counter. Addition commutes, so concurrent
 * increments from any number of threads sum to the same total.
 */
class Counter
{
  public:
    void inc(std::uint64_t delta = 1)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-written double value (set from one strand at a time). */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }

    /** Raise to @p v when larger (commutes; worker-safe). */
    void max(double v)
    {
        double cur = value_.load(std::memory_order_relaxed);
        while (v > cur && !value_.compare_exchange_weak(
                              cur, v, std::memory_order_relaxed)) {
        }
    }

    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Fixed-bucket histogram. Bucket i < edges.size() counts observations
 * with edges[i-1] <= v < edges[i] (bucket 0: v < edges[0]); the last
 * bucket counts v >= edges.back(). Edges are fixed at creation so
 * snapshots from different runs line up bucket-for-bucket.
 *
 * observe() is lock-free: a relaxed fetch_add on its bucket and the
 * count, and a CAS loop on the sum that can only retry against a
 * concurrent observer, which the determinism contract rules out.
 */
class Histogram
{
  public:
    explicit Histogram(std::vector<double> edges);

    void observe(double v);

    const std::vector<double> &edges() const { return edges_; }
    /** @return Per-bucket counts (edges.size() + 1 entries). */
    std::vector<std::uint64_t> bucketCounts() const;
    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }
    double sum() const { return sum_.load(std::memory_order_relaxed); }

  private:
    std::vector<double> edges_;
    /** edges.size() + 1 buckets. */
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
};

/**
 * An (x, y) time-series, e.g. per-iteration latency over iteration
 * index or fleet queue depth over the fleet clock. Appended in
 * program order from a single strand; exported verbatim.
 */
class Series
{
  public:
    void append(double x, double y);

    std::vector<std::pair<double, double>> points() const;

  private:
    mutable std::mutex mutex_;
    std::vector<std::pair<double, double>> points_;
};

/**
 * One recorded span occurrence (see obs/span.hpp for the RAII scope).
 * Wall times are seconds since the registry was created; sim times
 * are simulation-clock seconds. Either side may be absent.
 */
struct SpanRecord
{
    std::string name;
    Labels labels;
    /** Nesting depth within the recording thread (0 = outermost). */
    int depth = 0;
    bool hasWall = false;
    double wallBegin = 0.0;
    double wallEnd = 0.0;
    bool hasSim = false;
    double simBegin = 0.0;
    double simEnd = 0.0;
};

/**
 * The per-run instrument registry. Lookup creates on first use;
 * returned references stay valid for the registry's lifetime. Lookup
 * takes the registry mutex — hot paths cache the returned reference
 * once and then update it lock-free.
 */
class MetricRegistry
{
  public:
    MetricRegistry();

    MetricRegistry(const MetricRegistry &) = delete;
    MetricRegistry &operator=(const MetricRegistry &) = delete;

    Counter &counter(const std::string &name, const Labels &labels = {});
    Gauge &gauge(const std::string &name, const Labels &labels = {});

    /**
     * @p edges must be non-empty and strictly increasing; a second
     * lookup of an existing histogram ignores @p edges.
     */
    Histogram &histogram(const std::string &name,
                         std::vector<double> edges,
                         const Labels &labels = {});
    Series &series(const std::string &name, const Labels &labels = {});

    /** Record one finished span occurrence (called by Span). */
    void recordSpan(SpanRecord record);

    /** Record a pure sim-time span (no RAII scope needed). */
    void recordSimSpan(const std::string &name, const Labels &labels,
                       double sim_begin, double sim_end);

    /** @return Wall seconds since the registry was created. */
    double wallNow() const;

    /** @return All span occurrences, in recording order. */
    std::vector<SpanRecord> spanRecords() const;

    // Snapshot visitors: entries ordered by (name, rendered labels).
    using Key = std::pair<std::string, Labels>;
    std::vector<std::pair<Key, const Counter *>> counters() const;
    std::vector<std::pair<Key, const Gauge *>> gauges() const;
    std::vector<std::pair<Key, const Histogram *>> histograms() const;
    std::vector<std::pair<Key, const Series *>> seriesEntries() const;

  private:
    template <typename T>
    T &
    lookup(std::map<Key, std::unique_ptr<T>> &table, const Key &key)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = table.find(key);
        if (it == table.end())
            it = table.emplace(key, std::make_unique<T>()).first;
        return *it->second;
    }

    mutable std::mutex mutex_;
    std::map<Key, std::unique_ptr<Counter>> counters_;
    std::map<Key, std::unique_ptr<Gauge>> gauges_;
    std::map<Key, std::unique_ptr<Histogram>> histograms_;
    std::map<Key, std::unique_ptr<Series>> series_;
    std::vector<SpanRecord> spans_;
    std::chrono::steady_clock::time_point epoch_;
};

} // namespace rap::obs

#endif // RAP_OBS_METRICS_HPP
