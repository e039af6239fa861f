/**
 * @file
 * The training driver: executes hybrid-parallel DLRM iterations on the
 * simulated cluster and exposes the synchronisation points that the
 * co-running scheduler hooks into (per-op start events, per-iteration
 * input gates and end events).
 */

#ifndef RAP_DLRM_TRAINER_HPP
#define RAP_DLRM_TRAINER_HPP

#include <functional>
#include <vector>

#include "dlrm/iteration.hpp"
#include "sim/cluster.hpp"

namespace rap::dlrm {

/** Observed execution span of one op instance. */
struct OpSpan
{
    Seconds start = -1.0;
    Seconds end = -1.0;

    Seconds duration() const { return end - start; }
    bool valid() const { return start >= 0.0 && end >= start; }
};

/**
 * Pushes training iterations onto per-GPU streams and records timing.
 *
 * The driver exposes:
 *  - opStart(gpu, iter, op): a SimEvent fired when the op begins, which
 *    preprocessing streams wait on to co-run with that layer;
 *  - iterEnd(gpu, iter): fired when the iteration finishes on the GPU;
 *  - an optional input gate per (gpu, iter) that must fire before the
 *    iteration may start (models waiting for preprocessed inputs).
 */
class TrainingDriver
{
  public:
    /** Gate factory: return the event iteration (gpu, iter) waits on. */
    using InputGate = std::function<sim::SimEventPtr(int gpu, int iter)>;

    /**
     * @param cluster Simulated node to run on.
     * @param config Model configuration.
     * @param sharding Embedding-table placement.
     */
    TrainingDriver(sim::Cluster &cluster, DlrmConfig config,
                   EmbeddingSharding sharding);

    /** Install an input gate; must be set before pushIterations. */
    void setInputGate(InputGate gate) { inputGate_ = std::move(gate); }

    /**
     * Enable checkpointing: after every @p every_iterations-th
     * iteration each GPU drains @p bytes_per_gpu[g] to the host over
     * its PCIe link (contending with input staging). The drain sits
     * behind the iteration-end record, so iteration *spans* stay
     * checkpoint-free while the interval to the next iteration is
     * charged. Must be called before pushIterations.
     */
    void setCheckpoint(std::vector<Bytes> bytes_per_gpu,
                       int every_iterations);

    /** Enqueue @p count training iterations on every GPU. */
    void pushIterations(int count);

    /** @return The op list executed by @p gpu each iteration. */
    const std::vector<TrainOp> &ops(int gpu) const;

    /** @return Event fired when op @p op of iteration @p iter starts. */
    sim::SimEventPtr opStart(int gpu, int iter, std::size_t op) const;

    /** @return Event fired when iteration @p iter ends on @p gpu. */
    sim::SimEventPtr iterEnd(int gpu, int iter) const;

    int iterationsPushed() const { return iterations_; }

    /** @return Observed span of one op (valid after the sim ran). */
    const OpSpan &opSpan(int gpu, int iter, std::size_t op) const;

    /** @return Observed iteration span. */
    const OpSpan &iterationSpan(int gpu, int iter) const;

    /**
     * @return Mean iteration latency over all GPUs, skipping the first
     *         @p warmup iterations.
     */
    Seconds avgIterationLatency(int warmup = 1) const;

    /**
     * @return Mean observed wall duration of op @p op on @p gpu across
     *         iterations (after warmup).
     */
    Seconds avgOpDuration(int gpu, std::size_t op, int warmup = 1) const;

    /** @return Checkpoint drain span of (gpu, iter); invalid if none. */
    const OpSpan &checkpointSpan(int gpu, int iter) const;

    /**
     * @return Measured per-checkpoint cost: the mean over executed
     *         checkpoints of the slowest GPU's drain duration (GPUs
     *         drain concurrently, so the slowest gates the restart of
     *         training).
     */
    Seconds avgCheckpointCost() const;

  private:
    struct PerIter
    {
        std::vector<sim::SimEventPtr> opStarts;
        sim::SimEventPtr end;
        std::vector<OpSpan> opSpans;
        OpSpan span;
        OpSpan checkpoint;
    };

    void pushOneIteration(int iter,
                          const std::vector<sim::CollectivePtr> &colls);

    OpSpan &opSpanMutable(int gpu, int iter, std::size_t op);
    OpSpan &iterationSpanMutable(int gpu, int iter);
    OpSpan &checkpointSpanMutable(int gpu, int iter);

    sim::Cluster &cluster_;
    DlrmConfig config_;
    EmbeddingSharding sharding_;
    std::vector<std::vector<TrainOp>> opsPerGpu_;
    std::vector<sim::Stream *> streams_;
    std::vector<std::vector<PerIter>> iters_; // [gpu][iter]
    InputGate inputGate_;
    int iterations_ = 0;
    std::vector<Bytes> checkpointBytes_;
    int checkpointEvery_ = 0;
    std::vector<int> checkpointIters_;
};

} // namespace rap::dlrm

#endif // RAP_DLRM_TRAINER_HPP
