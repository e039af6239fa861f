/**
 * @file
 * Fleet-level metrics: per-job outcomes and their aggregation.
 *
 * The scheduler fills one JobOutcome per job (lifecycle timestamps,
 * placements, the last segment's RunReport) and FleetReport::finalize
 * reduces them into the numbers a cluster operator compares policies
 * by: the JCT distribution, queueing delay, makespan, and cluster-wide
 * resource utilisation. Everything is computed in job-id order from
 * exact doubles, so equal schedules render byte-identical summaries.
 */

#ifndef RAP_FLEET_REPORT_HPP
#define RAP_FLEET_REPORT_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "fleet/job.hpp"
#include "fleet/placement.hpp"
#include "serve/slo.hpp"

namespace rap::fleet {

/** Lifecycle record of one job. */
struct JobOutcome
{
    JobSpec spec;
    /** First placement time; < 0 while never started. */
    Seconds firstStart = -1.0;
    /** Completion time; < 0 while unfinished. */
    Seconds finish = -1.0;
    /** Times the job was placed (1 + requeues). */
    int placements = 0;
    /** Preemptions caused by GPU degradation or crashes. */
    int requeues = 0;
    /** Preemptions caused by fail-stop GPU crashes specifically. */
    int crashRequeues = 0;
    /** Total time spent actually running, across segments. */
    Seconds serviceTime = 0.0;
    /**
     * Service time discarded at preemptions: work past the last
     * durable checkpoint, plus wasted restart charges.
     */
    Seconds lostWork = 0.0;
    /** Physical GPUs of the final placement. */
    std::vector<int> lastGpus;
    /** Estimated per-GPU demand used by placement. */
    DemandEstimate demand;
    /**
     * The final segment's single-job report, with the fleet lifecycle
     * timestamps (submittedAt / startedAt / finishedAt) filled in.
     */
    core::RunReport report;
    /**
     * Inference jobs only: the serving window's latency/SLO summary
     * (absent for training jobs and for inference jobs that never
     * completed a serving segment).
     */
    std::optional<serve::SloStats> serve;

    /** @return Arrival-to-finish time on the fleet clock. */
    Seconds jobCompletionTime() const { return finish - spec.arrival; }

    /** @return Time spent waiting before the first placement. */
    Seconds queueingDelay() const { return firstStart - spec.arrival; }
};

/** Aggregated outcome of one fleet run. */
struct FleetReport
{
    PlacementPolicy policy = PlacementPolicy::RapShared;
    /** Physical GPUs in the node. */
    int gpuCount = 0;
    /** Outcomes in job-id order. */
    std::vector<JobOutcome> jobs;
    /** Fleet clock when the last job finished. */
    Seconds makespan = 0.0;
    /** Total preemptions across jobs. */
    int requeues = 0;
    /** Preemptions caused by fail-stop crashes, across jobs. */
    int crashRequeues = 0;
    /** Distinct single-job simulations executed (memo misses). */
    int simulationsRun = 0;
    /**
     * Integrated GPU-seconds with at least one resident job, filled
     * by the scheduler's event loop (drives gpuOccupancy).
     */
    Seconds busyGpuSeconds = 0.0;
    /**
     * True when the catalog disk died past its retry budget mid-run
     * and the scheduler finished in flagged in-memory mode: the
     * numbers are real, but the run is not resumable.
     */
    bool catalogDegraded = false;

    // Aggregates, valid after finalize().
    Seconds meanJct = 0.0;
    Seconds p50Jct = 0.0;
    Seconds p95Jct = 0.0;
    Seconds maxJct = 0.0;
    Seconds meanQueueingDelay = 0.0;
    /** Demand-weighted SM utilisation of the whole node over the run. */
    double clusterSmUtil = 0.0;
    /** Demand-weighted bandwidth utilisation of the node. */
    double clusterBwUtil = 0.0;
    /** Mean fraction of GPUs hosting at least one job. */
    double gpuOccupancy = 0.0;
    /** Service time that was discarded and re-run, across jobs. */
    Seconds lostWork = 0.0;
    /** Service time that advanced durable progress (service - lost). */
    Seconds goodputSeconds = 0.0;

    // Serving aggregates across inference jobs; the counts are 0 and
    // the optionals absent when the trace had no inference jobs.
    /** Requests served, across inference jobs. */
    std::uint64_t serveRequests = 0;
    /** Batches launched, across inference jobs. */
    std::uint64_t serveBatches = 0;
    /** Requests that finished within their SLO, across jobs. */
    std::uint64_t serveAttained = 0;
    /** Fraction of requests within SLO (absent without requests). */
    std::optional<double> serveAttainment;
    /** SLO-attained requests per second of makespan. */
    std::optional<double> serveGoodputRps;
    /** Pooled median request latency across inference jobs. */
    std::optional<Seconds> serveP50Latency;
    /** Pooled 95th-percentile request latency. */
    std::optional<Seconds> serveP95Latency;
    /** Pooled 99th-percentile (tail) request latency. */
    std::optional<Seconds> serveP99Latency;

    /**
     * Reduce per-job outcomes into the aggregate fields. The pooled
     * serve percentiles are filled by the scheduler (it holds the
     * per-request latencies); finalize recomputes every aggregate
     * derivable from the outcomes alone and leaves them intact.
     */
    void finalize();

    /** @return Deterministic multi-line summary (bench/CI diffable). */
    std::string renderSummary() const;

    /** @return Deterministic per-job table. */
    std::string renderJobs() const;

    /**
     * Serialize the whole report (specs, outcomes, aggregates) — the
     * single source of truth for fleet artifacts; CI determinism diffs
     * and the resume gate compare its bytes, never scraped stdout.
     * Write-only: nothing reads a report back.
     */
    Json toJson() const;
};

} // namespace rap::fleet

#endif // RAP_FLEET_REPORT_HPP
