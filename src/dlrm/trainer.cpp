#include "dlrm/trainer.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "common/stats.hpp"

namespace rap::dlrm {

TrainingDriver::TrainingDriver(sim::Cluster &cluster, DlrmConfig config,
                               EmbeddingSharding sharding)
    : cluster_(cluster), config_(std::move(config)),
      sharding_(std::move(sharding))
{
    const int gpus = cluster_.gpuCount();
    RAP_ASSERT(sharding_.gpuCount() == gpus,
               "sharding GPU count does not match the cluster");
    opsPerGpu_.reserve(static_cast<std::size_t>(gpus));
    iters_.resize(static_cast<std::size_t>(gpus));
    for (int g = 0; g < gpus; ++g) {
        opsPerGpu_.push_back(buildIteration(
            config_, sharding_, g, gpus, cluster_.spec().gpu));
        streams_.push_back(&cluster_.device(g).newStream(
            "gpu" + std::to_string(g) + ".train"));
    }
}

const std::vector<TrainOp> &
TrainingDriver::ops(int gpu) const
{
    RAP_ASSERT(gpu >= 0 &&
                   static_cast<std::size_t>(gpu) < opsPerGpu_.size(),
               "gpu ordinal out of range");
    return opsPerGpu_[static_cast<std::size_t>(gpu)];
}

void
TrainingDriver::setCheckpoint(std::vector<Bytes> bytes_per_gpu,
                              int every_iterations)
{
    RAP_ASSERT(iterations_ == 0,
               "setCheckpoint must precede pushIterations");
    RAP_ASSERT(every_iterations >= 1,
               "checkpoint cadence must be >= 1 iteration");
    RAP_ASSERT(static_cast<int>(bytes_per_gpu.size()) ==
                   cluster_.gpuCount(),
               "need one checkpoint size per GPU");
    checkpointBytes_ = std::move(bytes_per_gpu);
    checkpointEvery_ = every_iterations;
}

void
TrainingDriver::pushIterations(int count)
{
    RAP_ASSERT(count >= 1, "must push at least one iteration");
    const std::size_t op_count = opsPerGpu_.front().size();
    for (int i = 0; i < count; ++i) {
        const int iter = iterations_++;
        // Collectives are shared across GPUs; payloads are uniform.
        std::vector<sim::CollectivePtr> colls(op_count);
        for (std::size_t k = 0; k < op_count; ++k) {
            const auto &op = opsPerGpu_.front()[k];
            if (op.comm) {
                colls[k] = cluster_.makeCollective(op.collectiveKind,
                                                   op.commBytes);
            }
        }
        pushOneIteration(iter, colls);
    }
}

void
TrainingDriver::pushOneIteration(
    int iter, const std::vector<sim::CollectivePtr> &colls)
{
    const int gpus = cluster_.gpuCount();
    for (int g = 0; g < gpus; ++g) {
        auto &per_gpu = iters_[static_cast<std::size_t>(g)];
        per_gpu.emplace_back();
        auto &rec = per_gpu.back();
        const auto &ops = opsPerGpu_[static_cast<std::size_t>(g)];
        rec.opSpans.resize(ops.size());
        rec.end = sim::makeEvent();
        auto &stream = *streams_[static_cast<std::size_t>(g)];

        if (inputGate_) {
            auto gate = inputGate_(g, iter);
            if (gate)
                stream.pushWait(std::move(gate));
        }

        auto &engine = cluster_.engine();
        stream.pushCallback([this, g, iter, &engine] {
            iterationSpanMutable(g, iter).start = engine.now();
        });

        for (std::size_t k = 0; k < ops.size(); ++k) {
            auto start = sim::makeEvent();
            rec.opStarts.push_back(start);
            stream.pushCallback([this, g, iter, k, &engine] {
                opSpanMutable(g, iter, k).start = engine.now();
            });
            stream.pushRecord(start);
            auto on_done = [this, g, iter, k, &engine] {
                opSpanMutable(g, iter, k).end = engine.now();
            };
            if (ops[k].comm) {
                stream.pushCollective(colls[k], on_done);
            } else {
                stream.pushKernel(ops[k].kernel, on_done);
            }
        }

        stream.pushCallback([this, g, iter, &engine] {
            iterationSpanMutable(g, iter).end = engine.now();
        });
        stream.pushRecord(rec.end);

        // The checkpoint drain sits behind the iteration-end record:
        // the iteration span stays checkpoint-free, but the next
        // iteration on this stream waits for the drain to finish.
        if (checkpointEvery_ > 0 &&
            (iter + 1) % checkpointEvery_ == 0) {
            if (g == 0)
                checkpointIters_.push_back(iter);
            stream.pushCallback([this, g, iter, &engine] {
                checkpointSpanMutable(g, iter).start = engine.now();
            });
            stream.pushCopy(sim::CopyKind::DeviceToHost,
                            checkpointBytes_[static_cast<std::size_t>(g)],
                            [this, g, iter, &engine] {
                                checkpointSpanMutable(g, iter).end =
                                    engine.now();
                            });
        }
    }
}

OpSpan &
TrainingDriver::opSpanMutable(int gpu, int iter, std::size_t op)
{
    return iters_[static_cast<std::size_t>(gpu)][
        static_cast<std::size_t>(iter)].opSpans[op];
}

OpSpan &
TrainingDriver::iterationSpanMutable(int gpu, int iter)
{
    return iters_[static_cast<std::size_t>(gpu)][
        static_cast<std::size_t>(iter)].span;
}

OpSpan &
TrainingDriver::checkpointSpanMutable(int gpu, int iter)
{
    return iters_[static_cast<std::size_t>(gpu)][
        static_cast<std::size_t>(iter)].checkpoint;
}

const OpSpan &
TrainingDriver::checkpointSpan(int gpu, int iter) const
{
    return iters_[static_cast<std::size_t>(gpu)][
        static_cast<std::size_t>(iter)].checkpoint;
}

Seconds
TrainingDriver::avgCheckpointCost() const
{
    RunningStat stat;
    for (int iter : checkpointIters_) {
        Seconds worst = -1.0;
        for (const auto &per_gpu : iters_) {
            const auto &span =
                per_gpu[static_cast<std::size_t>(iter)].checkpoint;
            if (span.valid())
                worst = std::max(worst, span.duration());
        }
        if (worst >= 0.0)
            stat.add(worst);
    }
    RAP_ASSERT(stat.count() > 0,
               "no completed checkpoints; did the simulation run?");
    return stat.mean();
}

sim::SimEventPtr
TrainingDriver::opStart(int gpu, int iter, std::size_t op) const
{
    const auto &rec =
        iters_[static_cast<std::size_t>(gpu)][
            static_cast<std::size_t>(iter)];
    RAP_ASSERT(op < rec.opStarts.size(), "op index out of range");
    return rec.opStarts[op];
}

sim::SimEventPtr
TrainingDriver::iterEnd(int gpu, int iter) const
{
    return iters_[static_cast<std::size_t>(gpu)][
        static_cast<std::size_t>(iter)].end;
}

const OpSpan &
TrainingDriver::opSpan(int gpu, int iter, std::size_t op) const
{
    return iters_[static_cast<std::size_t>(gpu)][
        static_cast<std::size_t>(iter)].opSpans[op];
}

const OpSpan &
TrainingDriver::iterationSpan(int gpu, int iter) const
{
    return iters_[static_cast<std::size_t>(gpu)][
        static_cast<std::size_t>(iter)].span;
}

Seconds
TrainingDriver::avgIterationLatency(int warmup) const
{
    RunningStat stat;
    for (const auto &per_gpu : iters_) {
        for (std::size_t i = static_cast<std::size_t>(warmup);
             i < per_gpu.size(); ++i) {
            const auto &span = per_gpu[i].span;
            if (span.valid())
                stat.add(span.duration());
        }
    }
    RAP_ASSERT(stat.count() > 0,
               "no completed iterations; did the simulation run?");
    return stat.mean();
}

Seconds
TrainingDriver::avgOpDuration(int gpu, std::size_t op, int warmup) const
{
    RunningStat stat;
    const auto &per_gpu = iters_[static_cast<std::size_t>(gpu)];
    for (std::size_t i = static_cast<std::size_t>(warmup);
         i < per_gpu.size(); ++i) {
        const auto &span = per_gpu[i].opSpans[op];
        if (span.valid())
            stat.add(span.duration());
    }
    RAP_ASSERT(stat.count() > 0, "no samples for op ", op);
    return stat.mean();
}

} // namespace rap::dlrm
