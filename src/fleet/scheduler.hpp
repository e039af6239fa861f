/**
 * @file
 * The multi-tenant fleet scheduler: a discrete-event loop over job
 * arrivals, finishes, and GPU degradations on one simulated node.
 *
 * Each placed job runs through the existing single-job path —
 * core::RunRequest::run, its offline plan plus the cluster
 * simulator — on the GPU subset
 * its placement granted, with the subset's share of the host CPUs
 * (sim::subsetSpec) and the envelope slice its co-location left it
 * (SystemConfig::envelopes). The job's simulated makespan becomes its
 * fleet-clock service time. Simulations are memoised by (workload
 * variant, quantised envelope), so identical jobs on identical slices
 * cost one simulation.
 *
 * run() precomputes one reference simulation per workload variant,
 * attaches the catalog, and then pops events. Each event kind has one
 * handler — onArrival, onFinish, onDegrade — whose catalog ops go
 * into the event's frame; scanQueue then places what fits
 * (startSegment, behind the inference SLO gate) and commitFrame makes
 * the frame durable before the next event.
 *
 * Fleet-scope faults reuse the sim::FaultSpec vocabulary: SmDegrade /
 * HbmDegrade / DeviceCrash events, interpreted on the fleet clock
 * against physical GPU ordinals. When a GPU degrades or crashes,
 * every resident job is preempted, credited with its last *durable*
 * fraction (the most recent sealed checkpoint — a job that never
 * checkpoints restarts from scratch), requeued at the front, and
 * re-placed — replanning against the shrunken envelope (the run's
 * offline plan re-derives its capacity profiles via degradeProfile). Crashed GPUs
 * are permanently excluded from placement.
 *
 * Determinism: the event loop is sequential with total (time, kind,
 * id) event ordering; the parallel phase — reference simulations fanned
 * out over an optional ThreadPool — writes submission-indexed slots,
 * so fleet reports are bit-identical at any thread count.
 */

#ifndef RAP_FLEET_SCHEDULER_HPP
#define RAP_FLEET_SCHEDULER_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <tuple>
#include <vector>

#include "common/thread_pool.hpp"
#include "fleet/job.hpp"
#include "fleet/placement.hpp"
#include "fleet/queue.hpp"
#include "fleet/report.hpp"
#include "obs/metrics.hpp"
#include "sim/fault.hpp"

namespace rap::ctrl {
class Catalog;
}

namespace rap::fleet {

/** What the scheduler does when it reaches stopAfterEvents. */
enum class StopMode {
    /**
     * raise(SIGKILL): the process dies mid-run with no destructors,
     * no flushes — the honest crash the resume gate recovers from.
     */
    HardKill,
    /**
     * Return from run() early (stopped() reports true, the partial
     * report is meaningless). Tests use this to sweep kill points
     * in-process; it is equivalent to HardKill for the catalog
     * because every commit is write-through before it applies.
     */
    Abandon,
};

/** Fleet-run configuration. */
struct FleetOptions
{
    PlacementOptions placement;
    /** The physical node jobs share. */
    sim::ClusterSpec node = sim::dgxA100Spec(8);
    /**
     * Fleet-scope fault schedule (SmDegrade / HbmDegrade /
     * DeviceCrash): event.time is fleet clock, event.device a
     * physical ordinal. A DeviceCrash takes the GPU permanently
     * offline; every resident job — including co-located survivors
     * sharing the device — is preempted through the same
     * requeue-and-replan path degradations use.
     */
    sim::FaultSpec faults;
    /**
     * Process-restart latency charged at the head of every segment
     * that resumes a preempted job (crash or degrade requeue).
     */
    Seconds restartOverhead = 0.0;
    /**
     * When non-empty, every placed segment dumps its Chrome trace to
     * `<prefix>.job<id>.seg<n>.json` (disables memoisation so each
     * job gets its own trace).
     */
    std::string tracePrefix;
    /**
     * Optional scheduler-level metric registry (non-owning): admission
     * queue depth, placement outcomes, memo hit rates, and the
     * precompute/run wall spans. Inner job simulations NEVER see the
     * registry — their memoised reports must stay byte-identical
     * whether or not the fleet run is instrumented.
     */
    obs::MetricRegistry *metrics = nullptr;
    /**
     * When non-empty, every fleet instrument carries a `run=<scope>`
     * label; sweep benches sharing one registry across policies set a
     * per-point scope so instruments stay point-private.
     */
    std::string metricsScope;
    /**
     * Optional durable catalog (non-owning). When attached, the run
     * commits a genesis transaction (config + job specs) and then one
     * transaction per event frame — admissions, placement decisions
     * with their envelope reservations, preemptions, checkpoint
     * seals, finishes — each durable in the WAL *before* the loop
     * proceeds past the frame. A catalog that already holds a genesis
     * switches the run into resume mode: the loop re-executes from
     * event zero, byte-verifies recomputed frames against the
     * recovered WAL tail instead of re-committing them, and commits
     * live again once past the durable prefix.
     */
    ctrl::Catalog *catalog = nullptr;
    /**
     * Stop after this many event frames have committed (0 = run to
     * completion). Requires a catalog — stopping without durable
     * state would just lose the run.
     */
    std::int64_t stopAfterEvents = 0;
    StopMode stopMode = StopMode::HardKill;
};

/**
 * The semantic subset of FleetOptions the catalog's genesis record
 * persists (placement policy, node, faults, restart overhead, trace
 * prefix) — everything a resume needs to re-execute the identical
 * run. Runtime attachments (metrics, catalog pointer, stop knobs)
 * stay out: they never influence the report bytes.
 */
Json fleetOptionsToJson(const FleetOptions &options);
FleetOptions fleetOptionsFromJson(const Json &json);

/** Runs one arrival trace to completion under one placement policy. */
class FleetScheduler
{
  public:
    /**
     * @param jobs Arrival trace (ids dense, arrival-ordered).
     * @param options Fleet configuration.
     * @param pool Optional pool for the reference-simulation fan-out;
     *        results are identical for any thread count.
     */
    FleetScheduler(std::vector<JobSpec> jobs, FleetOptions options,
                   ThreadPool *pool = nullptr);

    /** Run the discrete-event loop until every job finishes. */
    FleetReport run();

    /**
     * @return True when run() returned early because it reached
     * stopAfterEvents under StopMode::Abandon; the returned report is
     * partial and must be discarded.
     */
    bool stopped() const { return stopped_; }

  private:
    /**
     * Event kinds in processing order at equal timestamps: finishes
     * free capacity before degradations preempt, and both precede
     * arrivals, so a job arriving the instant another finishes sees
     * the freed GPUs.
     */
    enum class EventKind { Finish = 0, Degrade = 1, Arrival = 2 };

    struct Event
    {
        Seconds time = 0.0;
        EventKind kind = EventKind::Arrival;
        /** Job id (Arrival/Finish) or fault-event index (Degrade). */
        int id = 0;
        /** Finish only: segment generation (stale after preemption). */
        int generation = 0;

        /** Total (time, kind, id) order, as a max-heap comparator. */
        bool
        operator>(const Event &other) const
        {
            return std::tie(time, kind, id) >
                   std::tie(other.time, other.kind, other.id);
        }
    };

    struct RunningJob
    {
        Placement placement;
        Seconds segmentStart = 0.0;
        Seconds segmentDuration = 0.0;
        /** Restart latency charged at this segment's head (resume). */
        Seconds restartCharge = 0.0;
        /** Remaining work when this segment started, in (0, 1]. */
        double remainingAtStart = 1.0;
        /** Invalidates stale finish events after a preemption. */
        int generation = 0;
        /**
         * Inference only: the serving window's batch replay on this
         * segment's envelope. Latencies/SLO are accounted at the
         * Finish event; a preempted segment's replay is discarded —
         * the re-placed job re-serves its whole trace (buffered
         * requests, no durable serving state).
         */
        serve::BatchReplay replay;
    };

    Json genesisTransaction() const;
    /** The job's inner-simulation config on its node subset. */
    core::SystemConfig jobConfig(const JobSpec &spec) const;
    /** Simulation memo key of @p spec on @p envelopes. */
    std::string
    memoKey(const JobSpec &spec,
            const std::vector<core::GpuEnvelope> &envelopes) const;
    core::RunReport simulate(const JobSpec &spec,
                             const Placement &placement,
                             int segment_index);
    serve::BatchReplay replayServe(const JobSpec &spec,
                                   const core::RunReport &report,
                                   Seconds serve_start) const;
    Placement quantised(Placement placement) const;
    void precomputeReferences();
    void applyReservation(const JobSpec &spec,
                          const Placement &placement, int direction);
    void accumulateBusy(Seconds until);
    /** Bump a scheduler counter (no-op without a registry). */
    void count(const char *name, std::uint64_t delta = 1);
    /** Append an op to the current catalog frame (no-op without one). */
    void logOp(Json op);
    /** Restart latency charged at the head of @p queued's segment. */
    Seconds restartCharge(const QueuedJob &queued) const;
    /** Stamp job @p ji finished at @p now and log its finish op. */
    void markFinished(std::size_t ji, Seconds now);

    // The event loop: run() pops each event, dispatches it to its
    // handler, scans the queue, and commits the event's frame.
    void attachCatalog();
    void onArrival(const Event &event);
    void onFinish(const Event &event);
    void onDegrade(const Event &event);
    void preempt(int job_id, Seconds now, bool crash);
    void scanQueue(Seconds now);
    void placeScan(Seconds now, const PlacementOptions &opts,
                   bool enforce_slo);
    /** @return True when the inference job's SLO gate refuses it. */
    bool sloRejects(const QueuedJob &queued, const Placement &placement,
                    Seconds now);
    void startSegment(const QueuedJob &queued, Placement placement,
                      Seconds now);
    /** @return True when the run stops after this frame. */
    bool commitFrame(const Event &event);

    std::vector<JobSpec> jobs_;
    FleetOptions options_;
    ThreadPool *pool_;
    /** Scheduler instrument labels: policy plus the run scope. */
    obs::Labels labels_;
    std::vector<GpuState> gpus_;
    std::vector<DemandEstimate> demand_;
    AdmissionQueue queue_;
    std::map<int, RunningJob> running_;
    std::map<std::string, core::RunReport> memo_;
    std::map<std::string, preproc::PreprocPlan> planCache_;
    FleetReport report_;
    Seconds lastBusyUpdate_ = 0.0;
    /**
     * Per-job request arrivals on the fleet clock (empty vectors for
     * training jobs), synthesised once in the constructor so every
     * re-placement replays the same trace.
     */
    std::vector<std::vector<Seconds>> requestArrivals_;
    /** Per-request latencies pooled across finished inference jobs. */
    std::vector<Seconds> pooledLatencies_;
    /**
     * Catalog bookkeeping: last sealed (durable) fraction and seal
     * sequence per job, for checkpoint-manifest records. Never read
     * by scheduling decisions — report bytes are identical with or
     * without a catalog attached.
     */
    std::vector<double> lastDurable_;
    std::vector<int> sealCount_;
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        events_;
    /** The current event frame's catalog ops. */
    Json frameOps_ = Json::array();
    /** Event frames committed so far (catalog runs only). */
    std::int64_t frame_ = 0;
    /** Last LSN already durable in a resumed catalog (0 = fresh). */
    std::uint64_t durableLsn_ = 0;
    bool stopped_ = false;
};

} // namespace rap::fleet

#endif // RAP_FLEET_SCHEDULER_HPP
