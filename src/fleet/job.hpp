/**
 * @file
 * Fleet job model: one RAP training job inside a multi-tenant cluster.
 *
 * A JobSpec is everything the fleet scheduler needs to run one
 * training job through the existing single-job pipeline — the
 * preprocessing-plan variant, the model/batch configuration, and the
 * job's arrival time on the fleet clock. makeArrivalTrace synthesises
 * a seeded stream of heterogeneous jobs (mixed GPU counts, plans,
 * batch sizes) whose arrivals follow a Poisson process, so every fleet
 * experiment is reproducible from (options, seed) alone.
 */

#ifndef RAP_FLEET_JOB_HPP
#define RAP_FLEET_JOB_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "preproc/plan.hpp"
#include "serve/batcher.hpp"
#include "serve/request.hpp"

namespace rap::fleet {

/** What a fleet job does with its GPUs. */
enum class JobKind {
    /** Batch training: runs `iterations` iterations, then finishes. */
    Training,
    /** Online inference: serves a request trace until it drains. */
    Inference,
};

/** @return Stable machine token ("training") for JSON / labels. */
std::string jobKindId(JobKind kind);

/** Inverse of jobKindId; RAP_FATALs on unknown tokens. */
JobKind jobKindFromId(const std::string &id);

/** One training or inference-serving job submitted to the fleet. */
struct JobSpec
{
    /** Dense ordinal within the arrival trace. */
    int id = 0;
    /** Diagnostic name ("job03.p1x2"). */
    std::string name;
    /** Submission time on the fleet clock. */
    Seconds arrival = 0.0;
    /** GPUs the job needs (placement grants all or none). */
    int gpusRequested = 1;
    /** preproc::makePlan variant (0-3). */
    int planId = 0;
    /** Extra n-gram stress features (0 = the plain plan). */
    int ngramStress = 0;
    std::int64_t batchPerGpu = 4096;
    int iterations = 12;
    core::System system = core::System::Rap;
    /**
     * Iterations between checkpoints (0 = no checkpointing). A
     * checkpointing job preempted by a crash resumes from its last
     * sealed checkpoint; without one it restarts from scratch.
     */
    int checkpointInterval = 0;
    /** Training (default) or online inference serving. */
    JobKind kind = JobKind::Training;
    /**
     * Inference only: the request-arrival trace (relative to the
     * job's arrival; the scheduler re-bases it when placing) and the
     * latency objective its requests are judged against. For
     * inference jobs, `iterations` / `batchPerGpu` describe the
     * profiling iteration the batch service model is calibrated from,
     * not a fixed amount of work.
     */
    serve::RequestTraceOptions requests;
    /** Batch-formation policy of the serving executor. */
    serve::BatchingWindow window;
    /** Per-request latency objective (inference only). */
    Seconds sloLatency = 0.004;

    /**
     * @return Key identifying the job's workload shape (everything
     * that affects its simulation except id/arrival). Jobs with equal
     * keys on equal envelopes share one memoised simulation.
     */
    std::string variantKey() const;

    /**
     * JsonSerializable (common/serial.hpp convention): round-trips
     * exactly — request seeds are masked to 53 bits at synthesis so
     * the double round trip is lossless. Shared by FleetReport
     * artifacts and the durable catalog's job records.
     */
    Json toJson() const;
    static JobSpec fromJson(const Json &json);
};

/** Inference-job synthesis knobs (ArrivalTraceOptions::serving). */
struct InferenceTraceOptions
{
    /** Inference jobs mixed into the trace (0 = training only). */
    int jobCount = 0;
    /**
     * Mean interarrival gap between inference job submissions. They
     * arrive on their own Poisson stream, merged with the training
     * stream by arrival time.
     */
    Seconds meanInterarrival = 0.008;
    /** Mean request rate of each serving window. */
    double qps = 4000.0;
    /** Relative swing of the time-varying QPS (see RequestTraceOptions). */
    double qpsAmplitude = 0.5;
    /** Period of the QPS modulation. */
    Seconds qpsPeriod = 0.02;
    /** Length of each serving window. */
    Seconds duration = 0.04;
    /** Per-request latency objective. */
    Seconds sloLatency = 0.004;
    /** Batch launch threshold. */
    int maxBatch = 64;
    /** Batch wait bound. */
    Seconds maxWait = 0.0005;
    /** Profiling batch size for the service model calibration. */
    std::int64_t batchPerGpu = 256;
    /** Profiling iterations (service model calibration run length). */
    int iterations = 8;
    /** GPUs per inference job (small partitions co-locate best). */
    int gpusPerJob = 1;
    /** Seed for the inference submission stream and request traces. */
    std::uint64_t seed = 0x5e7ef1ee7ULL;
};

/** Arrival-trace synthesis knobs. */
struct ArrivalTraceOptions
{
    int jobCount = 14;
    /**
     * Mean of the exponential interarrival gap. The default arrival
     * rate deliberately oversubscribes the node (jobs run for tens to
     * hundreds of milliseconds), so placement policy actually matters:
     * with no contention every policy produces the same schedule.
     */
    Seconds meanInterarrival = 0.005;
    std::uint64_t seed = 0xf1ee70001ULL;
    /** Smaller jobs everywhere (CI determinism mode). */
    bool tiny = false;
    /** Checkpoint interval stamped on every synthesised job. */
    int checkpointInterval = 0;
    /** Online inference jobs mixed into the trace. */
    InferenceTraceOptions serving;
};

/**
 * Synthesise a seeded heterogeneous arrival trace: Poisson arrivals,
 * GPU requests skewed toward small jobs (the ParvaGPU co-location
 * sweet spot), mixed preprocessing plans and batch sizes. When
 * options.serving.jobCount > 0, an independent Poisson stream of
 * inference-serving jobs is merged in by arrival time. Jobs are
 * returned in arrival order with dense ids.
 */
std::vector<JobSpec> makeArrivalTrace(const ArrivalTraceOptions &options);

/** Materialise the job's preprocessing plan variant. */
preproc::PreprocPlan buildJobPlan(const JobSpec &spec);

/**
 * Base SystemConfig for the job — system, batch, iterations set;
 * placement fields (clusterSpec, gpuSubset, envelopes) left for the
 * scheduler to fill.
 */
core::SystemConfig makeJobConfig(const JobSpec &spec);

} // namespace rap::fleet

#endif // RAP_FLEET_JOB_HPP
