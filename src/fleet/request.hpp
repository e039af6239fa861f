/**
 * @file
 * The validated fleet API: FleetRequest is a fluent builder over
 * FleetOptions that validates at run() time and returns structured
 * errors (common/validation.hpp) instead of asserting mid-run — the
 * fleet-level twin of core::RunRequest.
 *
 *   auto request = FleetRequest(makeArrivalTrace(trace))
 *                      .policy(PlacementPolicy::RapShared)
 *                      .restartOverhead(2.0)
 *                      .catalogDir("runs/fleet.catalog");
 *   if (auto result = request.validate(); !result.ok())
 *       die(result.render());          // every problem, at once
 *   FleetReport report = request.run(&pool);
 *
 * Bad combinations are rejected, never silently clamped: a
 * non-positive crash MTBF, a negative restart overhead, a stop point
 * without a catalog, a catalog directory *and* an adopted catalog
 * handle — each comes back as a ConfigError naming the field.
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
    placement(PlacementOptions placement)
    {
        options_.placement = std::move(placement);
        return *this;
    }

    FleetRequest &
    node(sim::ClusterSpec spec)
    {
        options_.node = std::move(spec);
        return *this;
    }

    FleetRequest &
    faults(sim::FaultSpec spec)
    {
        options_.faults = std::move(spec);
        return *this;
    }

    FleetRequest &
    addFault(sim::FaultEvent event)
    {
        options_.faults.events.push_back(event);
        return *this;
    }

    /**
     * Synthesize seeded DeviceCrash events (sim::makeCrashTrace) at
     * run() time. validate() rejects a non-positive MTBF or horizon —
     * the crash schedule is Poisson with mean @p mtbf, so clamping
     * would silently change the experiment.
     */
    FleetRequest &
    crashFaults(Seconds mtbf, std::uint64_t seed, Seconds horizon)
    {
        crashMtbf_ = mtbf;
        crashSeed_ = seed;
        crashHorizon_ = horizon;
        crashFaults_ = true;
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
     * Open (or recover) a catalog at @p dir inside run(), owned by
     * the request. Mutually exclusive with catalog().
     */
    FleetRequest &
    catalogDir(std::string dir)
    {
        catalogDir_ = std::move(dir);
        return *this;
    }

    /** fsync the catalog WAL inside every commit. */
    FleetRequest &
    fsyncOnCommit(bool on)
    {
        fsyncOnCommit_ = on;
        return *this;
    }

    /** Compact the catalog every N commits (0 = never). */
    FleetRequest &
    compactEvery(int commits)
    {
        compactEvery_ = commits;
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
     * when invalid. Opens the catalogDir() catalog first when one was
     * requested.
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
    std::string catalogDir_;
    bool fsyncOnCommit_ = false;
    int compactEvery_ = 0;
    bool crashFaults_ = false;
    Seconds crashMtbf_ = 0.0;
    std::uint64_t crashSeed_ = 0;
    Seconds crashHorizon_ = 0.0;
    /** Catalog opened by run() for catalogDir() requests. */
    std::unique_ptr<ctrl::Catalog> ownedCatalog_;
    bool stopped_ = false;
};

/**
 * Resume the run persisted in @p catalog_options's directory: rebuild
 * the job trace and options from the genesis record, re-execute the
 * event loop (byte-verifying the durable frames), and finish the run
 * — committing live past the crash point. The final FleetReport is
 * byte-identical to the uninterrupted run's. The rebuilt jobs and
 * options pass FleetRequest::validate; a genesis record that fails it
 * is fatal with the rendered error list.
 */
FleetReport resumeFleet(const ctrl::CatalogOptions &catalog_options,
                        ThreadPool *pool = nullptr);

/** resumeFleet over an already-open catalog. */
FleetReport resumeFleet(ctrl::Catalog &catalog,
                        ThreadPool *pool = nullptr);

} // namespace rap::fleet

#endif // RAP_FLEET_REQUEST_HPP
