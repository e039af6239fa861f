/**
 * @file
 * The validated fleet API: FleetRequest is a fluent builder over
 * FleetOptions that validates at run() time and returns structured
 * errors (common/validation.hpp) instead of asserting mid-run — the
 * fleet-level twin of core::RunRequest.
 *
 *   ctrl::CatalogOptions catalog_options;
 *   catalog_options.dir = "runs/fleet.catalog";
 *   catalog_options.metrics = &registry;
 *   auto catalog = ctrl::Catalog::open(catalog_options);
 *   auto request = FleetRequest(makeArrivalTrace(trace))
 *                      .policy(PlacementPolicy::RapShared)
 *                      .restartOverhead(2.0)
 *                      .metrics(&registry)
 *                      .catalog(catalog.get());
 *   if (auto result = request.validate(); !result.ok())
 *       die(result.render());          // every problem, at once
 *   FleetReport report = request.run(&pool);
 *
 * A catalog is opened by the caller (ctrl::Catalog::open, which checks
 * its own options) and adopted with catalog(). Bad knobs are rejected,
 * never silently clamped: a negative restart overhead, a fault spec
 * that fails sim::FaultSpec::validate, a stop point without a catalog
 * — each comes back as a ConfigError naming the field. Seeded crash
 * traces come from sim::makeCrashTrace, added with addFault().
 */

#ifndef RAP_FLEET_REQUEST_HPP
#define RAP_FLEET_REQUEST_HPP

#include "common/validation.hpp"
#include "ctrl/catalog.hpp"
#include "fleet/scheduler.hpp"

namespace rap::fleet {

/** Fluent, validated builder for one fleet run. */
class FleetRequest
{
  public:
    /** @param jobs Arrival trace (ids dense, arrival-ordered). */
    explicit FleetRequest(std::vector<JobSpec> jobs)
        : jobs_(std::move(jobs))
    {
    }

    /** Synthesize the trace from generator options. */
    explicit FleetRequest(const ArrivalTraceOptions &trace)
        : jobs_(makeArrivalTrace(trace))
    {
    }

    FleetRequest &
    policy(PlacementPolicy policy)
    {
        options_.placement.policy = policy;
        return *this;
    }

    FleetRequest &
    addFault(sim::FaultEvent event)
    {
        options_.faults.events.push_back(event);
        return *this;
    }

    FleetRequest &
    restartOverhead(Seconds seconds)
    {
        options_.restartOverhead = seconds;
        return *this;
    }

    FleetRequest &
    tracePrefix(std::string prefix)
    {
        options_.tracePrefix = std::move(prefix);
        return *this;
    }

    /** Attach an observability registry and this run's scope label. */
    FleetRequest &
    metrics(obs::MetricRegistry *registry, std::string scope = "")
    {
        options_.metrics = registry;
        options_.metricsScope = std::move(scope);
        return *this;
    }

    /** Adopt an already-open catalog (non-owning). */
    FleetRequest &
    catalog(ctrl::Catalog *catalog)
    {
        options_.catalog = catalog;
        return *this;
    }

    /**
     * Stop after @p events committed frames: HardKill raises SIGKILL
     * (the resume gate's crash), Abandon returns early from run().
     * Requires a catalog.
     */
    FleetRequest &
    stopAfterEvents(std::int64_t events,
                    StopMode mode = StopMode::HardKill)
    {
        options_.stopAfterEvents = events;
        options_.stopMode = mode;
        return *this;
    }

    /** Direct access for knobs without a dedicated setter. */
    FleetOptions &options() { return options_; }
    const FleetOptions &options() const { return options_; }

    const std::vector<JobSpec> &jobs() const { return jobs_; }

    /** @return The validation outcome for the current request. */
    ValidationResult validate() const;

    /**
     * Validate and execute; fatal (with the full rendered error list)
     * when invalid.
     */
    FleetReport run(ThreadPool *pool = nullptr);

    /**
     * @return True when the last run() returned early because it
     * reached stopAfterEvents under StopMode::Abandon (the returned
     * report was partial and must be discarded).
     */
    bool stopped() const { return stopped_; }

  private:
    std::vector<JobSpec> jobs_;
    FleetOptions options_;
    bool stopped_ = false;
};

/**
 * Resume the run persisted in @p catalog: rebuild the job trace and
 * options from the genesis record, re-execute the event loop
 * (byte-verifying the durable frames), and finish the run — committing
 * live past the crash point. The final FleetReport is byte-identical
 * to the uninterrupted run's. The rebuilt jobs and options pass
 * FleetRequest::validate; a genesis record that fails it is fatal with
 * the rendered error list.
 */
FleetReport resumeFleet(ctrl::Catalog &catalog,
                        ThreadPool *pool = nullptr);

} // namespace rap::fleet

#endif // RAP_FLEET_REQUEST_HPP
