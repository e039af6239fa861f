/**
 * @file
 * Checkpoint/restore policy for fail-stop fault tolerance.
 *
 * A checkpoint serializes the training state — each GPU's owned
 * embedding-table shards plus one replica of the data-parallel MLPs —
 * over the host (PCIe) link, and is charged to the simulated timeline.
 * On a fail-stop crash the job restarts, restores the last completed
 * checkpoint, and replays every iteration since it; work between the
 * last durable checkpoint and the crash is lost.
 *
 * The interval policy is either a fixed iteration count or the
 * Young–Daly optimum tau = sqrt(2 * C * MTBF), where C is the
 * *measured* per-checkpoint cost (the D2H drain observed in the
 * simulation, including PCIe contention with input staging) and MTBF
 * the configured mean time between failures.
 *
 * Because realistic MTBFs (minutes to hours) dwarf the simulated
 * steady-state horizon (hundreds of milliseconds), recovery timelines
 * are composed analytically: the DES measures the checkpoint-free
 * iteration interval and the per-checkpoint cost, and composeRecovery
 * extrapolates the checkpoint/crash/restore timeline over the job's
 * full iteration count in O(crashes + checkpoints).
 */

#ifndef RAP_CORE_CHECKPOINT_HPP
#define RAP_CORE_CHECKPOINT_HPP

#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/units.hpp"
#include "dlrm/model_config.hpp"
#include "dlrm/sharding.hpp"
#include "sim/gpu_spec.hpp"

namespace rap::core {

/** When the trainer writes checkpoints. */
enum class CheckpointMode {
    /** Never checkpoint; a crash restarts the job from scratch. */
    None,
    /** Checkpoint every `interval` iterations. */
    FixedInterval,
    /** Interval from tau = sqrt(2 * C * MTBF), C measured in-run. */
    YoungDaly,
};

/** Checkpoint/restore configuration for a training run. */
struct CheckpointPolicy
{
    CheckpointMode mode = CheckpointMode::None;
    /** FixedInterval: iterations between checkpoints (>= 1). */
    int interval = 0;
    /** Mean time between failures; drives YoungDaly and recovery. */
    Seconds mtbf = 0.0;
    /** Process-restart latency charged per recovery. */
    Seconds restartOverhead = 1.0;
    /**
     * Job length (iterations) for the analytic recovery composition;
     * 0 means the run's own iteration count. Set this to extrapolate
     * a short measured run to a production-length job.
     */
    long long jobIterations = 0;
};

/**
 * One sealed checkpoint, as the durable control plane records it: the
 * proof that a job's progress up to `fraction` survives preemption.
 * The fleet scheduler emits a manifest whenever a preemption credits a
 * newly durable fraction and when a checkpointing job finishes
 * (fraction 1.0). Written into `rap.catalog.v1` transactions under
 * the common/serial.hpp convention.
 */
struct CheckpointManifest
{
    /** Owning fleet job. */
    int jobId = 0;
    /** Per-job seal ordinal (0, 1, ...). */
    int sequence = 0;
    /** Fraction of the job's iterations sealed by this checkpoint. */
    double fraction = 0.0;
    /** Fleet-clock time the seal was recorded. */
    Seconds sealedAt = 0.0;
    /** Placement segment the sealed work ran in. */
    int segment = 0;

    Json toJson() const;
};

/**
 * Checkpoint image size on @p gpu: its owned embedding rows (row-wise
 * tables contribute a 1/gpuCount share) times the embedding dimension,
 * in fp32, plus one MLP replica on GPU 0 (data-parallel weights are
 * identical everywhere, so one GPU drains them).
 */
Bytes checkpointBytesPerGpu(const dlrm::DlrmConfig &model,
                            const dlrm::EmbeddingSharding &sharding,
                            int gpu);

/**
 * Predicted per-checkpoint cost: the largest per-GPU image drained
 * over PCIe (all GPUs drain concurrently on their own links). The
 * trainer *measures* the actual cost in-run; this predictor seeds
 * interval choices before any measurement exists.
 */
Seconds predictCheckpointCost(const sim::ClusterSpec &cluster,
                              const dlrm::DlrmConfig &model,
                              const dlrm::EmbeddingSharding &sharding);

/** Young–Daly optimal checkpoint period tau = sqrt(2 * C * MTBF). */
Seconds youngDalyInterval(Seconds checkpoint_cost, Seconds mtbf);

/** Composed end-to-end recovery timeline (see composeRecovery). */
struct RecoveryOutcome
{
    /** Wall-clock completion of all iterations, crashes included. */
    Seconds completion = 0.0;
    /** Discarded progress: volatile work + interrupted recoveries. */
    Seconds lostWork = 0.0;
    /** Summed cost of completed checkpoints. */
    Seconds checkpointOverhead = 0.0;
    /** Crash-restore cycles survived. */
    int recoveries = 0;
    /** Checkpoints completed (durable). */
    long long checkpoints = 0;
    /** Whole iterations discarded and replayed. */
    long long lostBatches = 0;
    /** (start, end) of each recovery attempt, for trace spans. */
    std::vector<std::pair<Seconds, Seconds>> recoveryWindows;
};

/**
 * Walk the checkpoint/crash/restore timeline analytically.
 *
 * The job runs @p iterations iterations of @p iter_seconds each. With
 * @p interval > 0 a checkpoint of @p checkpoint_cost follows every
 * interval-th iteration (the trailing one at job end is skipped —
 * there is nothing left to protect). A crash at time t (from
 * @p crash_times, sorted, job-start-relative) discards all progress
 * since the last durable checkpoint, then recovery pays
 * @p restart_overhead plus @p restore_cost (the latter only when a
 * durable checkpoint exists) before replay resumes; crashes landing
 * inside a recovery window restart the recovery. The trace is finite,
 * so the walk always terminates.
 */
RecoveryOutcome composeRecovery(Seconds iter_seconds,
                                Seconds checkpoint_cost,
                                Seconds restore_cost,
                                Seconds restart_overhead,
                                long long iterations, long long interval,
                                const std::vector<Seconds> &crash_times);

} // namespace rap::core

#endif // RAP_CORE_CHECKPOINT_HPP
