/**
 * @file
 * End-to-end online DLRM training pipelines (paper §4, §8).
 *
 * A run assembles the full system — input preprocessing,
 * hybrid-parallel training, and the co-running machinery — on the
 * simulated node and measures end-to-end training throughput. Every
 * system goes through one harness and differs only in how inputs
 * reach each iteration; core::RunRequest::run (core/run_request.hpp)
 * is the entry point. Every system the paper evaluates is available:
 *
 *  - Ideal: standalone training, inputs always ready (upper bound);
 *  - Rap: joint mapping + horizontal fusion + resource-aware
 *    co-running schedule + inter-batch interleaving;
 *  - RapNoMapping / RapNoFusion: the Fig. 10 ablations;
 *  - CudaStream: data-parallel mapping, unfused kernels on a
 *    low-priority stream in the training process (launches serialise
 *    with training launches);
 *  - Mps: same, but in a separate process (own launch path);
 *  - SequentialGpu: preprocessing fully serialised with training;
 *  - TorchArrowCpu: CPU-worker preprocessing pipeline (8 workers per
 *    GPU) feeding the trainers over PCIe.
 */

#ifndef RAP_CORE_PIPELINE_HPP
#define RAP_CORE_PIPELINE_HPP

#include <optional>
#include <string>

#include "common/json.hpp"
#include "common/validation.hpp"
#include "core/capacity.hpp"
#include "core/checkpoint.hpp"
#include "core/corun_scheduler.hpp"
#include "core/latency_predictor.hpp"
#include "core/mapping.hpp"
#include "ingest/config.hpp"
#include "preproc/plan.hpp"
#include "sim/fault.hpp"

namespace rap::obs {
class MetricRegistry;
}

namespace rap::core {

/** System under evaluation. */
enum class System {
    Ideal,
    Rap,
    RapNoMapping,
    RapNoFusion,
    /** Horizontal fusion without resource-aware scheduling (Fig. 11). */
    HorizontalFusionOnly,
    /**
     * The §10 extension: RAP plus CPU offload. Preprocessing that
     * exceeds the GPUs' total overlapping capacity is segmented off
     * to host CPU workers instead of being exposed on the GPUs.
     */
    HybridRap,
    CudaStream,
    Mps,
    SequentialGpu,
    TorchArrowCpu,
};

/** @return Human-readable system name ("RAP", "MPS", ...). */
std::string systemName(System system);

/** @return Stable machine token ("rap", "mps", ...) for serialization. */
std::string systemId(System system);

/** @return The system for a systemId() token; nullopt when unknown. */
std::optional<System> systemFromId(const std::string &id);

/**
 * Fraction of one GPU's resources available to a job (1.0 = the whole
 * device). The fleet scheduler's envelope-shared placement hands a job
 * the headroom left on each of its GPUs; planning and simulation both
 * see only that slice (planOffline degrades the capacity profiles,
 * the online run degrades the simulated devices).
 */
struct GpuEnvelope
{
    /** SM (warp-slot) capacity share in (0, 1]. */
    double sm = 1.0;
    /** HBM-bandwidth share in (0, 1]. */
    double bw = 1.0;
};

/** Full experiment configuration. */
struct SystemConfig
{
    System system = System::Rap;
    int gpuCount = 8;
    std::int64_t batchPerGpu = 4096;
    /** Training iterations simulated. */
    int iterations = 14;
    /** Iterations excluded from steady-state statistics. */
    int warmup = 3;
    /** Inter-batch workload interleaving (§6.3; RAP variants). */
    bool interleave = true;
    /**
     * Inference serving mode: every iteration runs the forward-only
     * DLRM op subset (dlrm::DlrmConfig::inferenceOnly) — one
     * iteration models one served batch. Incompatible with
     * checkpointing (there is no training state to checkpoint);
     * SystemConfig::validate rejects the combination.
     */
    bool inference = false;
    /** Optional latency predictor (nullptr = oracle cost model). */
    const LatencyPredictor *predictor = nullptr;
    /**
     * Force a specific preprocessing-graph mapping strategy instead of
     * the system's default (the Fig. 12 mapping study).
     */
    std::optional<MappingStrategy> forcedMapping;
    /**
     * Row-wise parallelism: embedding tables with at least this many
     * rows are split across every GPU (0 = disabled). Their input
     * features are consumed by all GPUs, so their preprocessing
     * chains are duplicated (§7.2).
     */
    std::int64_t rowWiseThreshold = 0;
    /**
     * Optional seeded fault scenario injected into the simulated
     * cluster: degraded SM/HBM capacity, slow interconnect links,
     * transient kernel failures (sim/fault.hpp).
     */
    std::optional<sim::FaultSpec> faults;
    /**
     * Streaming ingestion front-end (src/ingest). When set, the run
     * consumes a stream instead of assuming a pre-materialized
     * dataset: the ingest pipeline runs first on the same virtual
     * clock, and training iteration j's input gate additionally
     * waits until staged batch j's readyAt — input-bound phases of
     * the stream (bursts, backpressure stalls) therefore stretch the
     * measured iterations. The stream must stage at least
     * `iterations` batches (tune ingest.duration / profile /
     * batchRows); the run refuses otherwise. Incompatible with
     * TorchArrowCpu, whose CPU workers model their own input path.
     */
    std::optional<ingest::IngestConfig> ingest;
    /**
     * Online replanning: after warmup, compare each iteration's
     * observed latency against the cost model's prediction; past a
     * 15% relative drift, rerun the system's own offline
     * map-and-schedule step (RAP's joint mapping search, or the
     * system's fixed mapping rescheduled) on the degraded resource
     * envelopes, splicing the new schedules in at the next batch
     * boundary. Applies to RAP variants with capacity scheduling,
     * except HybridRap.
     */
    bool replanOnDrift = false;
    /**
     * Checkpoint/restore policy (core/checkpoint.hpp). FixedInterval
     * and YoungDaly charge checkpoint drains to the simulated
     * timeline, measure the per-checkpoint cost, and — when the fault
     * spec contains fail-stop events or an MTBF is configured — compose
     * the crash/restore timeline analytically over the job length
     * (checkpoint.jobIterations, defaulting to `iterations`). The
     * composed run fills RunReport::lostWork / checkpointOverhead /
     * recoveries and overloads RunReport::makespan with the composed
     * end-to-end completion.
     */
    CheckpointPolicy checkpoint;
    /**
     * Hardware description override. Unset, the run models
     * sim::dgxA100Spec(gpuCount); the fleet scheduler passes
     * sim::subsetSpec of its node so a job placed on k of N GPUs only
     * gets the subset's share of the host CPUs.
     */
    std::optional<sim::ClusterSpec> clusterSpec;
    /**
     * Physical GPU ordinals behind this run's devices (GPU-subset
     * view). Purely diagnostic labelling for traces; empty = identity.
     * Size must equal gpuCount when set.
     */
    std::vector<int> gpuSubset;
    /**
     * Per-GPU resource share available to this run (envelope-shared
     * co-location). planOffline plans against the degraded capacity
     * profiles and the online phase degrades the simulated devices at
     * t = 0, so both the plan and the measured latencies reflect the
     * slice. Empty = whole devices; size must equal gpuCount when set.
     */
    std::vector<GpuEnvelope> envelopes;
    /**
     * When non-empty, write the run's Chrome trace (Perfetto /
     * about://tracing JSON) to this path after the simulation drains.
     */
    std::string tracePath;
    /**
     * Observability sink (non-owning; obs/metrics.hpp). When set, the
     * offline planner and the online run record counters, histograms,
     * per-iteration series, and phase spans into it; recorded spans
     * also render into the Chrome trace. Null = no instrumentation.
     */
    obs::MetricRegistry *metrics = nullptr;
    /**
     * Label value stamped as `run=<scope>` on every instrument this
     * run records. Sweep benches that share one registry across
     * thread-pool workers MUST give each sweep point a unique scope:
     * it keeps double-accumulating instruments (histograms, series)
     * single-strand, which the snapshot determinism contract requires.
     */
    std::string metricsScope;

    /**
     * Check the configuration shape: GPU/iteration counts, subset and
     * envelope sizes, envelope shares, the row-wise threshold, the
     * checkpoint policy, and the ingest and inference combinations.
     * Returns every problem found; RunRequest::run / planOffline
     * refuse (RAP_FATAL) configurations with a non-ok() result.
     */
    ValidationResult validate() const;
};

/** Measured outcome of one run. */
struct RunReport
{
    std::string system;
    int gpuCount = 0;
    std::int64_t batchPerGpu = 0;
    /** Steady-state per-iteration latency. */
    Seconds avgIterationLatency = 0.0;
    /** Global training throughput (samples/second). */
    double throughput = 0.0;
    /** Mean SM usage over the steady-state window. */
    double avgSmUtil = 0.0;
    /** Mean DRAM-bandwidth usage over the steady-state window. */
    double avgBwUtil = 0.0;
    /** Fraction of steady-state time with a kernel resident. */
    double avgGpuBusy = 0.0;
    /** Total peer-to-peer input-communication bytes. */
    Bytes p2pBytes = 0.0;
    /** Mean preprocessing kernels launched per GPU per iteration. */
    double preprocKernelsPerIter = 0.0;
    /** Cost-model exposed-latency prediction (RAP variants). */
    Seconds predictedExposed = 0.0;
    /** Mean predicted standalone preprocessing latency per GPU. */
    Seconds preprocLatencyPerIter = 0.0;
    /** End-to-end makespan of the whole simulated run. */
    Seconds makespan = 0.0;
    /** Online replans triggered by the drift monitor. */
    int replans = 0;
    /** Transient kernel-launch failures retried (fault injection). */
    std::uint64_t kernelRetries = 0;
    /** Total retry backoff charged to the timeline. */
    Seconds retryBackoffSeconds = 0.0;
    /** Work discarded by fail-stop crashes and replayed. */
    Seconds lostWork = 0.0;
    /** Summed cost of completed checkpoint drains. */
    Seconds checkpointOverhead = 0.0;
    /** Crash-restore cycles survived. */
    int recoveries = 0;
    /** Events emitted by the ingest stream (0 = no ingest). */
    std::uint64_t ingestEvents = 0;
    /** Events lost to the drop-oldest backpressure policy. */
    std::uint64_t ingestDropped = 0;
    /** Events diverted to the spill log (replayed later). */
    std::uint64_t ingestSpilled = 0;
    /** Batches the ingest stager assembled. */
    std::uint64_t ingestBatches = 0;
    /** p99 staging latency of the ingest stream. */
    Seconds ingestStagingP99 = 0.0;
    /** Virtual time the last consumed batch became ready. */
    Seconds ingestLastReadyAt = 0.0;
    /**
     * Fleet-clock lifecycle timestamps, filled by the fleet scheduler:
     * when the job entered the admission queue, when its placement
     * started it, and when it finished. Standalone runs (no fleet)
     * leave them unset — the derived delays below are then nullopt
     * instead of the negative garbage a 0-minus-0 default would give.
     */
    std::optional<Seconds> submittedAt;
    std::optional<Seconds> startedAt;
    std::optional<Seconds> finishedAt;

    /**
     * @return Time spent queued before placement started the job;
     *         nullopt for standalone runs (no fleet lifecycle).
     */
    std::optional<Seconds>
    queueingDelay() const
    {
        if (!submittedAt || !startedAt)
            return std::nullopt;
        return *startedAt - *submittedAt;
    }

    /**
     * @return Job completion time (arrival to finish, fleet clock);
     *         nullopt for standalone runs.
     */
    std::optional<Seconds>
    jobCompletionTime() const
    {
        if (!submittedAt || !finishedAt)
            return std::nullopt;
        return *finishedAt - *submittedAt;
    }

    /**
     * Serialize to JSON — the single source of truth for every
     * machine-read report artifact (bench output, CI determinism
     * diffs). Write-only: every double is written exactly, and the
     * artifact is compared as bytes, never read back.
     */
    Json toJson() const;
};

/**
 * Output of the offline planning phase for a GPU-preprocessing
 * system: per-GPU capacity profiles, the preprocessing-graph mapping,
 * and one co-run schedule per GPU.
 */
struct OfflinePlan
{
    std::vector<CapacityProfile> profiles;
    GraphMapping mapping;
    std::vector<CoRunSchedule> schedules;
};

/**
 * Run the offline phase (paper Algorithm 1 plus the §6-§7 searches)
 * for @p config on @p plan: profile capacities, search the mapping,
 * and build each GPU's fused co-run schedule, on the calling thread.
 *
 * Only GPU-preprocessing systems have an offline phase (not Ideal /
 * TorchArrowCpu). Fatal, with the rendered error list, when @p config
 * fails SystemConfig::validate or @p plan's graph fails
 * PreprocGraph::validate.
 */
OfflinePlan planOffline(const SystemConfig &config,
                        const preproc::PreprocPlan &plan);

} // namespace rap::core

#endif // RAP_CORE_PIPELINE_HPP
