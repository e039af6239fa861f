#include "suite.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

namespace rapbench {

namespace {

/** Closed-loop client index of the calling thread (trace lane). */
thread_local int current_lane = 0;

} // namespace

double
steadyNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Json
metricsToJson(const Metrics &metrics)
{
    Json out = Json::object();
    for (const auto &[name, metric] : metrics) {
        Json entry = Json::object();
        entry.set("value", Json(metric.value));
        entry.set("unit", Json(metric.unit));
        out.set(name, std::move(entry));
    }
    return out;
}

Metrics
metricsFromJson(const Json &json)
{
    Metrics metrics;
    for (const auto &[name, entry] : json.members()) {
        metrics[name] = {entry.at("value").asDouble(),
                         entry.at("unit").asString()};
    }
    return metrics;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::pair<double, double>
quartiles(std::vector<double> values)
{
    if (values.empty())
        return {0.0, 0.0};
    if (values.size() == 1)
        return {values[0], values[0]};
    std::sort(values.begin(), values.end());
    const auto n = static_cast<long>(values.size());
    const long m = n + 1;
    auto cut = [&](long i) {
        const long j = std::clamp(i * m / 4, 1L, n - 1);
        const long delta = i * m - j * 4;
        return (values[static_cast<std::size_t>(j - 1)] *
                    static_cast<double>(4 - delta) +
                values[static_cast<std::size_t>(j)] *
                    static_cast<double>(delta)) /
               4.0;
    };
    return {cut(1), cut(3)};
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t hash = 14695981039346656037ULL;
    for (unsigned char c : bytes) {
        hash ^= c;
        hash *= 1099511628211ULL;
    }
    return hash;
}

std::string
hex64(std::uint64_t value)
{
    static const char *digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[value & 0xf];
        value >>= 4;
    }
    return out;
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t salt)
{
    // splitmix64 finalizer over (seed, salt); masked to 53 bits so the
    // value survives the JSON double round trip of catalog records.
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return (z ^ (z >> 31)) & ((1ULL << 53) - 1);
}

CallLog::CallLog(rap::obs::MetricRegistry *registry)
    : registry_(registry), epoch_(steadyNow())
{
}

double
CallLog::now() const
{
    return registry_ != nullptr ? registry_->wallNow()
                                : steadyNow() - epoch_;
}

void
CallLog::record(const std::string &api, const std::string &id,
                double begin, double end, std::uint64_t digest)
{
    const std::lock_guard<std::mutex> guard(mutex_);
    records_.push_back({id, api, begin, end, current_lane, digest});
}

void
CallLog::fail(const std::string &what)
{
    const std::lock_guard<std::mutex> guard(mutex_);
    failures_.push_back(what);
}

std::vector<CallRecord>
CallLog::records() const
{
    std::vector<CallRecord> out;
    {
        const std::lock_guard<std::mutex> guard(mutex_);
        out = records_;
    }
    std::sort(out.begin(), out.end(),
              [](const CallRecord &a, const CallRecord &b) {
                  return a.id < b.id;
              });
    return out;
}

double
CallLog::ms(const std::string &id) const
{
    const std::lock_guard<std::mutex> guard(mutex_);
    for (const auto &record : records_) {
        if (record.id == id)
            return record.ms();
    }
    return 0.0;
}

std::vector<std::string>
CallLog::failures() const
{
    const std::lock_guard<std::mutex> guard(mutex_);
    return failures_;
}

void
closedLoop(std::size_t n, int clients,
           const std::function<void(std::size_t)> &body)
{
    std::atomic<std::size_t> next{0};
    auto client = [&](int lane) {
        current_lane = lane;
        for (std::size_t i = next++; i < n; i = next++)
            body(i);
        current_lane = 0;
    };
    std::vector<std::thread> threads;
    for (int lane = 1; lane < clients; ++lane)
        threads.emplace_back(client, lane);
    client(0);
    for (auto &thread : threads)
        thread.join();
}

} // namespace rapbench
