#include "obs/metrics.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace rap::obs {

Labels::Labels(
    std::initializer_list<std::pair<std::string, std::string>> pairs)
{
    for (const auto &pair : pairs)
        set(pair.first, pair.second);
}

void
Labels::set(const std::string &key, std::string value)
{
    auto it = std::lower_bound(
        pairs_.begin(), pairs_.end(), key,
        [](const auto &pair, const std::string &k) {
            return pair.first < k;
        });
    if (it != pairs_.end() && it->first == key) {
        it->second = std::move(value);
        return;
    }
    pairs_.insert(it, {key, std::move(value)});
}

std::string
Labels::render() const
{
    if (pairs_.empty())
        return "";
    std::string out = "{";
    for (std::size_t i = 0; i < pairs_.size(); ++i) {
        if (i > 0)
            out += ",";
        out += pairs_[i].first + "=" + pairs_[i].second;
    }
    out += "}";
    return out;
}

Histogram::Histogram(std::vector<double> edges)
    : edges_(std::move(edges))
{
    RAP_ASSERT(!edges_.empty(), "histogram needs at least one edge");
    RAP_ASSERT(std::is_sorted(edges_.begin(), edges_.end()) &&
                   std::adjacent_find(edges_.begin(), edges_.end()) ==
                       edges_.end(),
               "histogram edges must be strictly increasing");
    const std::size_t buckets = edges_.size() + 1;
    buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(buckets);
    for (std::size_t i = 0; i < buckets; ++i)
        buckets_[i].store(0, std::memory_order_relaxed);
}

void
Histogram::observe(double v)
{
    // First bucket: v < edges[0]; middle bucket i: edges[i-1] <= v <
    // edges[i]; last bucket: v >= edges.back().
    const auto it = std::upper_bound(edges_.begin(), edges_.end(), v);
    const auto bucket = static_cast<std::size_t>(it - edges_.begin());
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed)) {
    }
}

std::vector<std::uint64_t>
Histogram::bucketCounts() const
{
    std::vector<std::uint64_t> counts(edges_.size() + 1);
    for (std::size_t i = 0; i < counts.size(); ++i)
        counts[i] = buckets_[i].load(std::memory_order_relaxed);
    return counts;
}

void
Series::append(double x, double y)
{
    std::lock_guard<std::mutex> lock(mutex_);
    points_.emplace_back(x, y);
}

std::vector<std::pair<double, double>>
Series::points() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return points_;
}

MetricRegistry::MetricRegistry()
    : epoch_(std::chrono::steady_clock::now())
{
}

Counter &
MetricRegistry::counter(const std::string &name, const Labels &labels)
{
    return lookup(counters_, {name, labels});
}

Gauge &
MetricRegistry::gauge(const std::string &name, const Labels &labels)
{
    return lookup(gauges_, {name, labels});
}

Histogram &
MetricRegistry::histogram(const std::string &name,
                          std::vector<double> edges,
                          const Labels &labels)
{
    const Key key{name, labels};
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = histograms_.find(key);
    if (it == histograms_.end()) {
        it = histograms_
                 .emplace(key,
                          std::make_unique<Histogram>(std::move(edges)))
                 .first;
    }
    return *it->second;
}

Series &
MetricRegistry::series(const std::string &name, const Labels &labels)
{
    return lookup(series_, {name, labels});
}

void
MetricRegistry::recordSpan(SpanRecord record)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(record));
}

void
MetricRegistry::recordSimSpan(const std::string &name,
                              const Labels &labels, double sim_begin,
                              double sim_end)
{
    SpanRecord record;
    record.name = name;
    record.labels = labels;
    record.hasSim = true;
    record.simBegin = sim_begin;
    record.simEnd = sim_end;
    recordSpan(std::move(record));
}

double
MetricRegistry::wallNow() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

std::vector<SpanRecord>
MetricRegistry::spanRecords() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

namespace {

template <typename T>
std::vector<std::pair<MetricRegistry::Key, const T *>>
sortedView(const std::map<MetricRegistry::Key, std::unique_ptr<T>> &table)
{
    std::vector<std::pair<MetricRegistry::Key, const T *>> out;
    out.reserve(table.size());
    for (const auto &[key, value] : table)
        out.emplace_back(key, value.get());
    return out; // std::map iterates in key order already
}

} // namespace

std::vector<std::pair<MetricRegistry::Key, const Counter *>>
MetricRegistry::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return sortedView(counters_);
}

std::vector<std::pair<MetricRegistry::Key, const Gauge *>>
MetricRegistry::gauges() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return sortedView(gauges_);
}

std::vector<std::pair<MetricRegistry::Key, const Histogram *>>
MetricRegistry::histograms() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return sortedView(histograms_);
}

std::vector<std::pair<MetricRegistry::Key, const Series *>>
MetricRegistry::seriesEntries() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return sortedView(series_);
}

} // namespace rap::obs
