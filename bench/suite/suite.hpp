/**
 * @file
 * Shared pieces of rap_bench: metric maps, order statistics, the call
 * log that times and fingerprints every public call of one pass, the
 * closed-loop call driver, and the workload interface.
 *
 * A pass is one child process that builds one workload's inputs and
 * runs all of its calls. The parent (main.cpp) spawns passes, pools
 * their timings and turns them into the metrics BENCHMARK.json names.
 */

#ifndef RAP_BENCH_SUITE_HPP
#define RAP_BENCH_SUITE_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/metrics.hpp"

namespace rapbench {

using rap::Json;

/** One measured value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Metrics by name (sorted, so renders are stable). */
using Metrics = std::map<std::string, Metric>;

Json metricsToJson(const Metrics &metrics);
Metrics metricsFromJson(const Json &json);

/** @return The median of @p values (0 when empty). */
double median(std::vector<double> values);

/**
 * @return {Q1, Q3} as Python's statistics.quantiles(values, n=4)
 * computes them (the "exclusive" method); both equal the only value
 * when there is one.
 */
std::pair<double, double> quartiles(std::vector<double> values);

/** @return Geometric mean of positive @p values (0 when empty). */
double geomean(const std::vector<double> &values);

/** @return Monotonic clock reading in seconds. */
double steadyNow();

/** @return FNV-1a 64-bit digest of @p bytes. */
std::uint64_t fnv1a(const std::string &bytes);

/** @return @p value as 16 lowercase hex digits. */
std::string hex64(std::uint64_t value);

/** @return A well-mixed per-purpose seed derived from @p seed. */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t salt);

/** One timed public call. */
struct CallRecord
{
    std::string id;
    /** Which public API: "core", "fleet" or "ingest". */
    std::string api;
    /** Seconds since the log's epoch. */
    double begin = 0.0;
    double end = 0.0;
    /** Closed-loop client that issued the call (trace lane). */
    int lane = 0;
    /** FNV-1a of the call's report JSON. */
    std::uint64_t digest = 0;

    double ms() const { return (end - begin) * 1e3; }
};

/**
 * Times and fingerprints the public calls of one pass, and collects
 * invariant violations. Thread-safe: closed-loop clients record into
 * it concurrently. In a traced pass it carries the registry every call
 * reports into, with the call id as the `run=` scope, and shares the
 * registry's clock so spans and calls line up.
 */
class CallLog
{
  public:
    explicit CallLog(rap::obs::MetricRegistry *registry = nullptr);

    /** Registry for the call's instruments (null when untraced). */
    rap::obs::MetricRegistry *metrics() const { return registry_; }

    /**
     * Run @p fn (one public call returning a report with toJson()),
     * timing only the call; the digest is taken afterwards.
     */
    template <typename Fn>
    auto
    call(const std::string &api, const std::string &id, Fn &&fn)
    {
        const double begin = now();
        auto report = fn();
        const double end = now();
        record(api, id, begin, end, fnv1a(report.toJson().dump()));
        return report;
    }

    /** Record an invariant violation. */
    void fail(const std::string &what);

    /** @return Calls sorted by id. */
    std::vector<CallRecord> records() const;
    /** @return Wall milliseconds of the call named @p id (0 if none). */
    double ms(const std::string &id) const;
    std::vector<std::string> failures() const;

    /** @return Seconds since the log's epoch. */
    double now() const;

  private:
    void record(const std::string &api, const std::string &id,
                double begin, double end, std::uint64_t digest);

    rap::obs::MetricRegistry *registry_;
    double epoch_ = 0.0;
    mutable std::mutex mutex_;
    std::vector<CallRecord> records_;
    std::vector<std::string> failures_;
};

/**
 * Closed-loop load: @p clients threads each take the next index and
 * run @p body on it, so at most @p clients calls are in flight and
 * each client issues its next call only after the previous returns.
 */
void closedLoop(std::size_t n, int clients,
                const std::function<void(std::size_t)> &body);

/** Where a pass may write (spill logs, catalogs). */
struct PassContext
{
    std::uint64_t seed = 1;
    bool tiny = false;
    std::string workDir;
};

/** One benchmark workload: its inputs are built in the constructor. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Issue every timed public call of one pass and check results. */
    virtual void run(CallLog &log) = 0;

    /**
     * Traced pass only, after run(): standalone calls that split a
     * layer's cost out (they are not part of the timed work).
     * @p layers receives the per-layer values they measure.
     */
    virtual void probe(CallLog & /*log*/, Metrics & /*layers*/) {}

    /** Simulated outcomes of the last run() (deterministic). */
    virtual Metrics simulated() const = 0;

    /** Per-layer values read from the last run()'s reports. */
    virtual void reportLayers(Metrics & /*layers*/) const {}
};

/** @return Names of the four workloads, in run order. */
const std::vector<std::string> &workloadNames();

/** Build @p name's inputs for one pass; null for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const PassContext &context);

} // namespace rapbench

#endif // RAP_BENCH_SUITE_HPP
