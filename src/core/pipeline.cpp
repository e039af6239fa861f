#include "core/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "common/log.hpp"
#include "common/stats.hpp"
#include "core/run_request.hpp"
#include "dlrm/trainer.hpp"
#include "ingest/pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "preproc/cost_model.hpp"
#include "sim/trace_export.hpp"

namespace rap::core {

namespace {

/**
 * Labels for this run's instruments: the configured `run=` scope (when
 * set). Sweep benches sharing one registry across pool workers rely on
 * the scope to keep instruments single-strand.
 */
obs::Labels
runLabels(const SystemConfig &config)
{
    obs::Labels labels;
    if (!config.metricsScope.empty())
        labels.set("run", config.metricsScope);
    return labels;
}

/** Fires a set of events once all expected parties have arrived. */
class InputBarrier
{
  public:
    InputBarrier(sim::Engine &engine, int expected)
        : engine_(engine), expected_(expected)
    {
    }

    void addTarget(sim::SimEventPtr event)
    {
        targets_.push_back(std::move(event));
    }

    void
    arrive()
    {
        RAP_ASSERT(arrived_ < expected_, "barrier over-arrived");
        if (++arrived_ == expected_) {
            for (auto &event : targets_)
                event->fire(engine_);
        }
    }

  private:
    sim::Engine &engine_;
    int expected_;
    int arrived_ = 0;
    std::vector<sim::SimEventPtr> targets_;
};

/** Result of the streaming-ingest pre-pass. */
struct IngestPhase
{
    /** Virtual time staged batch j became available (monotone). */
    std::vector<Seconds> readyAt;
    ingest::IngestReport report;
};

/**
 * Streaming-ingest pre-pass: when the run is configured with an
 * ingest front-end, drive the whole stream (windowed generation on
 * the producer pool, merge, staging) to completion and record each
 * staged batch's virtual ready time. The training simulation then
 * gates iteration j on readyAt[j] — input-bound stretches of the
 * stream surface as iteration-latency stalls. Fatal when the stream
 * stages fewer batches than the run consumes. The pre-pass is timed
 * as the run's one ingest.run span.
 */
std::optional<IngestPhase>
runIngestPhase(const SystemConfig &config)
{
    if (!config.ingest)
        return std::nullopt;
    obs::Span span(config.metrics, "ingest.run", runLabels(config));
    IngestPhase phase;
    ingest::IngestPipeline pipeline(*config.ingest);
    phase.report = pipeline.run(
        [&phase](ingest::StagedBatch &&batch) {
            phase.readyAt.push_back(batch.readyAt);
        },
        config.metrics, runLabels(config));
    if (phase.readyAt.size() <
        static_cast<std::size_t>(config.iterations)) {
        RAP_FATAL("ingest staged ", phase.readyAt.size(),
                  " batches but the run consumes ",
                  config.iterations,
                  " (one per iteration); raise ingest.duration or "
                  "shrink ingest.batchRows");
    }
    return phase;
}

void
fillIngestStats(RunReport &report, const IngestPhase &phase,
                int iterations)
{
    report.ingestEvents = phase.report.events;
    report.ingestDropped = phase.report.dropped;
    report.ingestSpilled = phase.report.spilled;
    report.ingestBatches = phase.report.batches;
    report.ingestStagingP99 = phase.report.p99;
    report.ingestLastReadyAt =
        phase.readyAt[static_cast<std::size_t>(iterations) - 1];
}

/** Per-system behavioural knobs shared by all GPU-preprocessing runs. */
struct GpuSystemTraits
{
    MappingStrategy mapping = MappingStrategy::Rap;
    bool fusion = true;
    bool capacityScheduling = true;
    bool sequential = false;
    /** Launch group of preprocessing streams (0 = training process). */
    int preprocLaunchGroup = 0;
    /** Stream priority of preprocessing (1 = CUDA low priority). */
    int preprocPriority = 1;
    /**
     * Host dispatch gap before every kernel launch. The handcrafted
     * baselines drive their kernels eagerly from the Python input
     * pipeline; RAP's generated code launches fused kernels directly.
     */
    Seconds hostDispatch = 0.0;
};

GpuSystemTraits
traitsFor(System system)
{
    GpuSystemTraits traits;
    switch (system) {
      case System::Rap:
        return traits;
      case System::RapNoMapping:
        traits.mapping = MappingStrategy::DataParallel;
        return traits;
      case System::RapNoFusion:
        traits.fusion = false;
        return traits;
      case System::HybridRap:
        return traits; // RAP traits; the CPU segmentation is applied
                       // after scheduling (see GpuInput).
      case System::HorizontalFusionOnly:
        // Generated fused kernels, launched back-to-back from the
        // iteration start with no capacity awareness; the naive
        // co-run contends with training at fair share, so oversized
        // fused kernels stretch the trainer (the Fig. 11 effect).
        traits.mapping = MappingStrategy::DataParallel;
        traits.capacityScheduling = false;
        traits.preprocPriority = 0;
        return traits;
      case System::CudaStream:
        traits.mapping = MappingStrategy::DataParallel;
        traits.fusion = false;
        traits.capacityScheduling = false;
        traits.preprocLaunchGroup = 0;
        // Same-process eager dispatch contends with the training
        // loop's host thread, so it is slower than a dedicated
        // preprocessing process.
        traits.hostDispatch = 20e-6;
        return traits;
      case System::Mps:
        traits.mapping = MappingStrategy::DataParallel;
        traits.fusion = false;
        traits.capacityScheduling = false;
        traits.preprocLaunchGroup = 1;
        // A separate MPS process shares the SMs fairly with training.
        traits.preprocPriority = 0;
        traits.hostDispatch = 12e-6;
        return traits;
      case System::SequentialGpu:
        traits.mapping = MappingStrategy::DataParallel;
        traits.fusion = false;
        traits.capacityScheduling = false;
        traits.sequential = true;
        traits.hostDispatch = 12e-6;
        return traits;
      default:
        RAP_PANIC("system has no GPU-preprocessing traits");
    }
}

/**
 * Resolve the hardware description for @p config: the explicit
 * subset-cluster override when the fleet passed one, otherwise the
 * default DGX-A100 node sized to gpuCount.
 */
sim::ClusterSpec
clusterSpecFor(const SystemConfig &config)
{
    return config.clusterSpec ? *config.clusterSpec
                              : sim::dgxA100Spec(config.gpuCount);
}

/**
 * Build the DLRM model configuration for @p config over @p plan,
 * carrying the system-level inference flag into the model so every
 * run path (ideal, TorchArrow, GPU systems, offline planning) builds
 * the same forward-only iteration when serving.
 */
dlrm::DlrmConfig
modelConfigFor(const SystemConfig &config, const preproc::PreprocPlan &plan)
{
    auto model = dlrm::makeDlrmConfig(
        plan.spec.dataset, plan.graph.schema(), config.batchPerGpu);
    model.inferenceOnly = config.inference;
    return model;
}

/** Shrink each device to its configured envelope share (co-location). */
void
applyEnvelopes(sim::Cluster &cluster, const SystemConfig &config)
{
    for (std::size_t g = 0; g < config.envelopes.size(); ++g) {
        const auto &env = config.envelopes[g];
        if (env.sm < 1.0)
            cluster.device(static_cast<int>(g)).degradeSm(env.sm);
        if (env.bw < 1.0)
            cluster.device(static_cast<int>(g)).degradeBw(env.bw);
    }
}

/** Dump the run's Chrome trace when the config asked for one. */
void
maybeWriteTrace(const sim::Cluster &cluster, const SystemConfig &config)
{
    if (config.tracePath.empty())
        return;
    // Recorded spans (planner phases, per-iteration sim spans) render
    // into the trace alongside the kernel tracks.
    sim::writeChromeTrace(cluster, config.tracePath, config.metrics);
}

/** Embedding-table placement shared by every system variant. */
dlrm::EmbeddingSharding
makeSharding(const SystemConfig &config,
             const preproc::PreprocPlan &plan)
{
    return config.rowWiseThreshold > 0
               ? dlrm::EmbeddingSharding::balancedWithRowWise(
                     plan.graph.schema(), config.gpuCount,
                     config.rowWiseThreshold)
               : dlrm::EmbeddingSharding::balanced(plan.graph.schema(),
                                                   config.gpuCount);
}

/** Aggregate utilisation statistics over the steady-state window. */
void
fillUtilisation(RunReport &report, sim::Cluster &cluster, Seconds t0,
                Seconds t1)
{
    RunningStat sm, bw, busy;
    Bytes p2p = 0.0;
    for (int g = 0; g < cluster.gpuCount(); ++g) {
        auto &trace = cluster.device(g).trace();
        sm.add(trace.avgSmUsage(t0, t1));
        bw.add(trace.avgBwUsage(t0, t1));
        busy.add(trace.busyFraction(t0, t1));
        p2p += cluster.device(g).p2pLink().totalBytes();
    }
    report.avgSmUtil = sm.mean();
    report.avgBwUtil = bw.mean();
    report.avgGpuBusy = busy.mean();
    report.p2pBytes = p2p;
}

/**
 * Arm in-DES calibration checkpoints on @p driver. FixedInterval
 * drains at its configured cadence; YoungDaly pushes one trailing
 * calibration drain to *measure* the per-checkpoint cost (the
 * composed interval is derived from that measurement afterwards).
 * @return True when checkpoints were armed.
 */
bool
armCheckpoints(const SystemConfig &sys, const dlrm::DlrmConfig &model,
               const dlrm::EmbeddingSharding &sharding,
               dlrm::TrainingDriver &driver)
{
    const auto &ckpt = sys.checkpoint;
    if (ckpt.mode == CheckpointMode::None)
        return false;
    std::vector<Bytes> bytes;
    bytes.reserve(static_cast<std::size_t>(sys.gpuCount));
    for (int g = 0; g < sys.gpuCount; ++g)
        bytes.push_back(checkpointBytesPerGpu(model, sharding, g));
    // Cap the cadence at the run length so at least one drain executes
    // and the cost measurement always has a sample.
    const int cadence =
        ckpt.mode == CheckpointMode::FixedInterval
            ? std::min(std::max(1, ckpt.interval), sys.iterations)
            : sys.iterations;
    driver.setCheckpoint(std::move(bytes), cadence);
    return true;
}

/**
 * Summed checkpoint drain time (slowest GPU per drain) after
 * iterations [from, to) — what checkpointing added to the wall clock
 * inside a measurement window.
 */
Seconds
checkpointSecondsInWindow(const dlrm::TrainingDriver &driver, int gpus,
                          int from, int to)
{
    Seconds total = 0.0;
    for (int j = from; j < to; ++j) {
        Seconds worst = 0.0;
        for (int g = 0; g < gpus; ++g) {
            const auto &span = driver.checkpointSpan(g, j);
            if (span.valid())
                worst = std::max(worst, span.duration());
        }
        total += worst;
    }
    return total;
}

/**
 * Compose the analytic crash/restore timeline over the job length and
 * fill the report's recovery fields. The DES measured the
 * checkpoint-free iteration interval and the per-checkpoint cost;
 * realistic MTBFs dwarf the simulated horizon, so crashes and
 * checkpoints are extrapolated in O(crashes + checkpoints)
 * (core/checkpoint.hpp). When composition runs, RunReport::makespan is
 * the composed end-to-end completion of the full job, not the DES
 * drain time.
 */
void
applyRecovery(const SystemConfig &sys, RunReport &report,
              Seconds iter_interval, Seconds checkpoint_cost,
              const std::vector<Seconds> &crash_times)
{
    const auto &ckpt = sys.checkpoint;
    if (ckpt.mode == CheckpointMode::None && crash_times.empty())
        return;
    const long long job_iters =
        ckpt.jobIterations > 0 ? ckpt.jobIterations : sys.iterations;
    long long interval_iters = 0;
    switch (ckpt.mode) {
      case CheckpointMode::None:
        break;
      case CheckpointMode::FixedInterval:
        interval_iters = std::max(1, ckpt.interval);
        break;
      case CheckpointMode::YoungDaly:
        interval_iters = std::max<long long>(
            1, std::llround(
                   youngDalyInterval(checkpoint_cost, ckpt.mtbf) /
                   iter_interval));
        break;
    }
    // Restore reads the image back over the same host link, so it
    // costs one checkpoint drain on top of the process restart.
    const auto outcome = composeRecovery(
        iter_interval, checkpoint_cost, checkpoint_cost,
        ckpt.restartOverhead, job_iters, interval_iters, crash_times);
    report.lostWork = outcome.lostWork;
    report.checkpointOverhead = outcome.checkpointOverhead;
    report.recoveries = outcome.recoveries;
    report.makespan = outcome.completion;
    if (sys.metrics != nullptr) {
        sys.metrics->counter("train.checkpoints", runLabels(sys))
            .inc(static_cast<std::uint64_t>(
                std::max<long long>(0, outcome.checkpoints)));
        sys.metrics->counter("train.lost_batches", runLabels(sys))
            .inc(static_cast<std::uint64_t>(
                std::max<long long>(0, outcome.lostBatches)));
        for (const auto &window : outcome.recoveryWindows) {
            sys.metrics->recordSimSpan("train.recovery", runLabels(sys),
                                       window.first, window.second);
        }
    }
}

/** Aggregate fault-injection statistics over the whole run. */
void
fillFaultStats(RunReport &report, sim::Cluster &cluster)
{
    for (int g = 0; g < cluster.gpuCount(); ++g) {
        report.kernelRetries += cluster.device(g).kernelRetries();
        report.retryBackoffSeconds +=
            cluster.device(g).retryBackoffSeconds();
    }
}

/**
 * Record the run's per-iteration observability after the simulation
 * drained: iteration-interval series + fixed-bucket histogram, exposed
 * latency against @p predicted (when the system has a prediction), and
 * one sim-time span per iteration (rendered into the Chrome trace).
 * Runs on the single calling strand, so double accumulation is
 * deterministic.
 */
void
recordIterationMetrics(const SystemConfig &config,
                       sim::Cluster &cluster,
                       dlrm::TrainingDriver &driver,
                       const std::vector<Seconds> *predicted = nullptr)
{
    obs::MetricRegistry *metrics = config.metrics;
    if (metrics == nullptr)
        return;
    // Edges are fixed so snapshots from different runs line up
    // bucket-for-bucket (1 ms .. 1 s, the simulated iteration range).
    static const std::vector<double> kIterationEdges{
        0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0};
    auto &histogram =
        metrics->histogram("train.iteration_interval_seconds",
                           kIterationEdges, runLabels(config));
    for (int g = 0; g < config.gpuCount; ++g) {
        obs::Labels labels = runLabels(config);
        labels.set("gpu", std::to_string(cluster.globalGpuId(g)));
        auto &intervals =
            metrics->series("train.iteration_interval", labels);
        for (int j = 0; j < config.iterations; ++j) {
            const auto span = driver.iterationSpan(g, j);
            const Seconds interval =
                j >= 1 ? span.end - driver.iterationSpan(g, j - 1).end
                       : span.end - span.start;
            intervals.append(j, interval);
            histogram.observe(interval);
            metrics->recordSimSpan("train.iteration", labels,
                                   span.start, span.end);
            if (predicted != nullptr) {
                const Seconds expected =
                    (*predicted)[static_cast<std::size_t>(g)];
                metrics->series("train.exposed_latency", labels)
                    .append(j, std::max(0.0, interval - expected));
            }
        }
    }
    cluster.exportMetrics(*metrics, runLabels(config));
}

/** Batches queued ahead of the trainer; the replan splice distance. */
constexpr int kPushAhead = 3;
/** Monitor ticks to wait after a replan before checking drift again. */
constexpr int kReplanCooldown = 3;
/** Relative iteration-latency drift that triggers a replan. */
constexpr double kReplanDriftThreshold = 0.15;
/** TorchArrow baseline: preprocessing workers per GPU (DESIGN.md §1). */
constexpr int kTorchArrowWorkersPerGpu = 8;
/** TorchArrow baseline: CPU cores per worker. */
constexpr int kCoresPerWorker = 4;

/** What the harness hands an input path once iterations are queued. */
struct RunContext
{
    sim::Cluster &cluster;
    dlrm::TrainingDriver &driver;
    /** ready[g][j] fires when GPU g's input for iteration j is ready. */
    const std::vector<std::vector<sim::SimEventPtr>> &ready;
    /** barriers[j] fires ready[*][j]; empty when nothing arrives. */
    const std::vector<std::unique_ptr<InputBarrier>> &barriers;
};

/**
 * How inputs reach each iteration — the one thing that differs
 * between the systems the paper compares. The base class is Ideal's
 * path: inputs are always ready and nothing runs beside the trainer.
 */
class InputPath
{
  public:
    // Paths hand their address to simulation callbacks: never copied.
    InputPath() = default;
    InputPath(const InputPath &) = delete;
    InputPath &operator=(const InputPath &) = delete;
    virtual ~InputPath() = default;

    /** Whether iterations wait on their ready events at all. */
    virtual bool gatesInput() const { return false; }

    /**
     * Parties (besides a streaming-ingest feed) that must arrive at
     * iteration j's barrier before its ready events fire; 0 means the
     * path records the ready events itself.
     */
    virtual int barrierParties() const { return 0; }

    /** Queue the input pipeline once the trainer's iterations are. */
    virtual void wire(RunContext &) {}

    /** Fill the path's own report fields after the run drained. */
    virtual void report(RunReport &) const {}

    /** Per-GPU predicted iteration latency; null when none exists. */
    virtual const std::vector<Seconds> *predicted() const
    {
        return nullptr;
    }
};

/**
 * One system run over one plan. Every system goes through the same
 * steps in the same order — cluster, faults, ingest gates, trainer
 * with checkpoints, the run, one report — and supplies only its
 * InputPath.
 */
class RunSession
{
  public:
    RunSession(const SystemConfig &config_,
               const preproc::PreprocPlan &plan_)
        : config(config_), plan(plan_), spec(clusterSpecFor(config_)),
          model(modelConfigFor(config_, plan_)),
          sharding(makeSharding(config_, plan_))
    {
    }

    RunReport run(InputPath &input) const;

    const SystemConfig &config;
    const preproc::PreprocPlan &plan;
    const sim::ClusterSpec spec;
    const dlrm::DlrmConfig model;
    const dlrm::EmbeddingSharding sharding;
};

RunReport
RunSession::run(InputPath &input) const
{
    const int n = config.iterations;
    const int gpus = config.gpuCount;
    sim::Cluster cluster(spec, config.gpuSubset);
    applyEnvelopes(cluster, config);
    auto &engine = cluster.engine();

    // Optional seeded fault scenario: degraded SM/HBM envelopes, slow
    // links, transient kernel-launch failures (sim/fault.hpp).
    // Fail-stop events are split off: the DES measures the
    // checkpoint-free steady state on live devices, and the
    // crash/restore timeline is composed analytically afterwards
    // (applyRecovery) — realistic MTBFs dwarf the simulated horizon.
    std::optional<sim::FaultInjector> injector;
    std::vector<Seconds> crash_times;
    if (config.faults) {
        crash_times = config.faults->failStopTimes();
        injector.emplace(config.faults->degradationOnly());
        injector->arm(cluster);
    }

    // Streaming ingest pre-pass: the stream is staged on the same
    // virtual clock, and iteration j's input barrier gains one extra
    // party that arrives at staged batch j's ready time — so an
    // input-bound stream stretches even the Ideal run.
    const auto ingest_phase = runIngestPhase(config);
    const bool gated = input.gatesInput() || ingest_phase.has_value();
    const int parties =
        input.barrierParties() + (ingest_phase ? 1 : 0);
    std::vector<std::vector<sim::SimEventPtr>> ready;
    std::vector<std::unique_ptr<InputBarrier>> barriers;
    if (gated) {
        ready.resize(static_cast<std::size_t>(gpus));
        for (int j = 0; parties > 0 && j < n; ++j) {
            auto *barrier =
                barriers.emplace_back(
                    std::make_unique<InputBarrier>(engine, parties))
                    .get();
            if (ingest_phase) {
                engine.schedule(
                    ingest_phase->readyAt[static_cast<std::size_t>(j)],
                    [barrier] { barrier->arrive(); });
            }
        }
        for (int g = 0; g < gpus; ++g) {
            for (int j = 0; j < n; ++j) {
                auto event = sim::makeEvent();
                if (!barriers.empty())
                    barriers[static_cast<std::size_t>(j)]->addTarget(
                        event);
                ready[static_cast<std::size_t>(g)].push_back(
                    std::move(event));
            }
        }
    }

    dlrm::TrainingDriver driver(cluster, model, sharding);
    if (gated) {
        driver.setInputGate([&ready](int g, int i) {
            return ready[static_cast<std::size_t>(g)][
                static_cast<std::size_t>(i)];
        });
    }
    const bool checkpointing =
        armCheckpoints(config, model, sharding, driver);
    driver.pushIterations(n);
    // Utilisation is integrated over the measurement window as the run
    // goes; kernel records and segments feed only the Chrome trace.
    const Seconds &span_start =
        driver.iterationSpan(0, config.warmup).start;
    const Seconds &span_end = driver.iterationSpan(0, n - 1).end;
    const bool traced = !config.tracePath.empty();
    for (int g = 0; g < cluster.gpuCount(); ++g) {
        auto &trace = cluster.device(g).trace();
        trace.setRecording(traced);
        trace.armWindow(span_start, span_end);
    }
    RunContext context{cluster, driver, ready, barriers};
    input.wire(context);
    cluster.run();

    RunReport report;
    report.system = systemName(config.system);
    report.gpuCount = gpus;
    report.batchPerGpu = config.batchPerGpu;
    if (gated || checkpointing) {
        // Iterations wait on their inputs, so the interval between
        // iteration ends — not the span after the gate fired — is the
        // throughput the trainer sees; an ingest-gated Ideal run is
        // measured the same way as every other system. Checkpointed
        // runs use the window too: the GPU whose drain finishes first
        // waits for the slower one inside the next collective, so its
        // iteration span would absorb the drain. Calibration
        // checkpoint drains inside the window are subtracted:
        // avgIterationLatency stays the checkpoint-free iteration
        // interval (the recovery composition adds checkpoint cost back
        // explicitly at its own cadence).
        const Seconds ckpt_window = checkpointSecondsInWindow(
            driver, gpus, config.warmup, n - 1);
        report.avgIterationLatency =
            (span_end - span_start - ckpt_window) /
            static_cast<double>(n - config.warmup);
    } else {
        report.avgIterationLatency =
            driver.avgIterationLatency(config.warmup);
    }
    report.throughput = static_cast<double>(config.batchPerGpu) *
                        gpus / report.avgIterationLatency;
    fillUtilisation(report, cluster, span_start, span_end);
    report.makespan = engine.now();
    input.report(report);
    fillFaultStats(report, cluster);
    applyRecovery(config, report, report.avgIterationLatency,
                  checkpointing ? driver.avgCheckpointCost() : 0.0,
                  crash_times);
    if (ingest_phase)
        fillIngestStats(report, *ingest_phase, n);
    recordIterationMetrics(config, cluster, driver, input.predicted());
    maybeWriteTrace(cluster, config);
    return report;
}

/**
 * The offline planner of one configuration: the fusion planner and
 * graph mapper planOffline searches with. The online replanning path
 * reuses the same instances and the same map-and-schedule step.
 */
class OfflinePlanner
{
  public:
    explicit OfflinePlanner(const RunSession &session)
        : session_(session), traits_(traitsFor(session.config.system)),
          fusion_(session.spec.gpu, session.config.predictor,
                  FusionOptions{traits_.fusion}),
          mapper_(session.plan, session.sharding, session.spec,
                  session.config.batchPerGpu)
    {
    }

    /** Profile capacities, search the mapping, schedule every GPU. */
    OfflinePlan plan() const;

    /**
     * Map the plan onto the GPUs with the system's strategy and build
     * each GPU's co-run schedule against @p profiles, recording the
     * plan.mapping and plan.schedule spans into @p metrics (null = no
     * spans).
     */
    MappingResult mapAndSchedule(
        const std::vector<CapacityProfile> &profiles,
        obs::MetricRegistry *metrics) const;

    const HorizontalFusionPlanner &fusion() const { return fusion_; }
    const GraphMapper &mapper() const { return mapper_; }

  private:
    const RunSession &session_;
    const GpuSystemTraits traits_;
    const HorizontalFusionPlanner fusion_;
    const GraphMapper mapper_;
};

OfflinePlan
OfflinePlanner::plan() const
{
    const SystemConfig &config = session_.config;
    obs::MetricRegistry *metrics = config.metrics;
    obs::Span plan_span(metrics, "plan.offline", runLabels(config));

    OfflinePlan offline;
    {
        obs::Span span(metrics, "plan.profile", runLabels(config));
        OverlappingCapacityEstimator estimator(
            session_.spec, session_.model, session_.sharding);
        offline.profiles = estimator.profileAll();
    }
    // Envelope-shared co-location: the job only owns a slice of each
    // device, so every downstream search (mapping, fusion, co-run
    // scheduling) must plan against the degraded capacity profile —
    // the same transform the online replanning path applies when a
    // device's envelope shrinks mid-run.
    for (std::size_t g = 0; g < config.envelopes.size(); ++g) {
        offline.profiles[g] =
            degradeProfile(offline.profiles[g], config.envelopes[g].sm,
                           config.envelopes[g].bw);
    }

    MappingResult mapped = mapAndSchedule(offline.profiles, metrics);
    offline.mapping = std::move(mapped.mapping);
    offline.schedules = std::move(mapped.schedules);

    if (metrics != nullptr) {
        metrics->counter("plan.milp.nodes_explored", runLabels(config))
            .inc(fusion_.milpNodesExplored());
        metrics
            ->counter("plan.mapping.moves_accepted", runLabels(config))
            .inc(static_cast<std::uint64_t>(mapped.stats.movesAccepted));
        metrics
            ->counter("plan.mapping.moves_evaluated",
                      runLabels(config))
            .inc(static_cast<std::uint64_t>(
                mapped.stats.movesEvaluated));
        metrics->counter("plan.mapping.pricings", runLabels(config))
            .inc(mapped.stats.pricings);
    }
    return offline;
}

MappingResult
OfflinePlanner::mapAndSchedule(
    const std::vector<CapacityProfile> &profiles,
    obs::MetricRegistry *metrics) const
{
    const SystemConfig &config = session_.config;
    const MappingStrategy strategy =
        config.forcedMapping.value_or(traits_.mapping);
    MappingResult result;
    {
        obs::Span span(metrics, "plan.mapping", runLabels(config));
        if (strategy == MappingStrategy::Rap)
            result = mapper_.mapRap(profiles, fusion_);
        else
            result.mapping = mapper_.map(strategy);
    }
    obs::Span span(metrics, "plan.schedule", runLabels(config));
    // The RAP search already fusion-planned and Algorithm-1-scheduled
    // every GPU's final share while pricing it; a capacity-scheduling
    // system keeps those schedules instead of planning them again.
    if (strategy == MappingStrategy::Rap && traits_.capacityScheduling)
        return result;

    CoRunScheduler scheduler(fusion_);
    result.schedules.assign(profiles.size(), CoRunSchedule{});
    for (std::size_t g = 0; g < profiles.size(); ++g) {
        auto kernels = fusion_.plan(
            mapper_.buildGpuGraph(result.mapping, static_cast<int>(g)),
            config.batchPerGpu);
        auto &schedule = result.schedules[g];
        if (traits_.capacityScheduling) {
            schedule = scheduler.schedule(std::move(kernels), profiles[g]);
            continue;
        }
        // Baselines launch kernels back-to-back from iteration start
        // without capacity awareness.
        for (auto &k : kernels) {
            schedule.totalPreprocLatency += k.predictedLatency;
            schedule.kernels.push_back(
                ScheduledKernel{std::move(k), 0, false});
        }
    }
    return result;
}

/**
 * TorchArrow's input path: CPU workers preprocess each batch on the
 * host, then the batch crosses PCIe to its GPU.
 */
class TorchArrowInput final : public InputPath
{
  public:
    explicit TorchArrowInput(const RunSession &session)
        : config_(session.config)
    {
        // Host cost of preprocessing one batch (all features).
        const auto &graph = session.plan.graph;
        for (const auto &node : graph.nodes()) {
            batchCoreSeconds_ += preproc::opCpuSeconds(
                node.type, preproc::nodeShape(node, graph.schema(),
                                              config_.batchPerGpu));
        }
        std::map<int, int> tails; // feature id -> last node in topo order
        for (int id : graph.topoOrder())
            tails[graph.node(id).featureId] = id;
        for (const auto &[feature, tail_id] : tails) {
            const auto &tail = graph.node(tail_id);
            batchOutBytes_ += preproc::opOutputBytes(
                tail.type, preproc::nodeShape(tail, graph.schema(),
                                              config_.batchPerGpu));
        }
    }

    bool gatesInput() const override { return true; }

    void wire(RunContext &run) override;

    void
    report(RunReport &report) const override
    {
        report.preprocLatencyPerIter = batchCoreSeconds_;
    }

  private:
    const SystemConfig &config_;
    Seconds batchCoreSeconds_ = 0.0;
    Bytes batchOutBytes_ = 0.0;
};

void
TorchArrowInput::wire(RunContext &run)
{
    const int n = config_.iterations;
    const int workers = kTorchArrowWorkersPerGpu;
    const int cores = kCoresPerWorker;
    const Seconds task_duration =
        batchCoreSeconds_ / static_cast<double>(cores);
    // Worker pipelines: worker w of GPU g preprocesses batches
    // j === w (mod workers), then the batch crosses PCIe.
    for (int g = 0; g < config_.gpuCount; ++g) {
        auto &copy_stream = run.cluster.device(g).newStream(
            "gpu" + std::to_string(g) + ".h2d_queue");
        std::vector<sim::SimEventPtr> cpu_done(
            static_cast<std::size_t>(n));
        for (auto &event : cpu_done)
            event = sim::makeEvent();
        for (int w = 0; w < workers; ++w) {
            auto &worker_stream = run.cluster.host().newStream(
                "ta.g" + std::to_string(g) + ".w" + std::to_string(w));
            for (int j = w; j < n; j += workers) {
                worker_stream.pushCpuTask(task_duration, cores);
                worker_stream.pushRecord(
                    cpu_done[static_cast<std::size_t>(j)]);
            }
        }
        for (int j = 0; j < n; ++j) {
            copy_stream.pushWait(cpu_done[static_cast<std::size_t>(j)]);
            copy_stream.pushCopy(sim::CopyKind::HostToDevice,
                                 batchOutBytes_);
            copy_stream.pushRecord(
                run.ready[static_cast<std::size_t>(g)][
                    static_cast<std::size_t>(j)]);
        }
    }
}

/**
 * The GPU-preprocessing systems' input path (RAP, its ablations, and
 * the stream / MPS / Sequential baselines): the offline plan's
 * preprocessing kernels co-run with training, plus the §10 hybrid CPU
 * offload and the online drift monitor with incremental replanning.
 */
class GpuInput final : public InputPath
{
  public:
    explicit GpuInput(const RunSession &session);

    bool gatesInput() const override { return true; }
    int barrierParties() const override { return config_.gpuCount; }
    void wire(RunContext &run) override;
    void report(RunReport &report) const override;

    const std::vector<Seconds> *
    predicted() const override
    {
        return &predicted_;
    }

  private:
    /**
     * One GPU's input pipeline. Its streams persist across batches:
     * batch work is pushed incrementally (kPushAhead batches deep) so
     * an online replan can splice a new schedule in at the next batch
     * boundary.
     */
    struct Lane
    {
        sim::Stream *prep = nullptr;
        sim::Stream *copy = nullptr;
        sim::Stream *pre = nullptr;
        /** Hybrid CPU-segment worker, created on first use. */
        sim::Stream *hybrid = nullptr;
        /** Host core-seconds per batch offloaded to the CPU. */
        Seconds cpuPart = 0.0;
        /** Host prep cost, staged bytes and input messages per batch. */
        Seconds prepCpu = 0.0;
        Bytes prepBytes = 0.0;
        std::vector<Bytes> messages;
        /**
         * The schedule's kernels, built once per plan and shared by
         * every batch pushed under it.
         */
        std::vector<sim::KernelPtr> kernels;
        std::vector<std::unique_ptr<InputBarrier>> joins;
    };

    void offloadOverflowToCpu();
    void refreshMappingCosts();
    void pushBatch(int g, int j);
    void monitorTick(int j);
    void replan(const std::vector<Seconds> &observed);

    const SystemConfig &config_;
    const GpuSystemTraits traits_;
    const OfflinePlanner planner_;
    /** Mapping and schedules are replaced on a replan. */
    OfflinePlan offline_;
    /** MILP nodes the offline plan explored (replans count on top). */
    const std::uint64_t offlineNodes_;
    const int hybridCores_;
    const bool replanEnabled_;
    /** Per-GPU predicted iteration latency the monitor compares to. */
    std::vector<Seconds> predicted_;
    std::vector<Lane> lanes_;
    RunContext *run_ = nullptr;
    std::vector<std::unique_ptr<InputBarrier>> ticks_;
    int replans_ = 0;
    int lastReplanIter_ = -1;
};

GpuInput::GpuInput(const RunSession &session)
    : config_(session.config), traits_(traitsFor(config_.system)),
      planner_(session), offline_(planner_.plan()),
      offlineNodes_(planner_.fusion().milpNodesExplored()),
      hybridCores_(std::max(
          1, std::min(kTorchArrowWorkersPerGpu * kCoresPerWorker,
                      session.spec.cpuCores / config_.gpuCount))),
      replanEnabled_(config_.replanOnDrift &&
                     traits_.capacityScheduling &&
                     config_.system != System::HybridRap),
      lanes_(static_cast<std::size_t>(config_.gpuCount))
{
    if (config_.system == System::HybridRap)
        offloadOverflowToCpu();
    for (const auto &profile : offline_.profiles)
        predicted_.push_back(profile.iterationLatency);
}

/**
 * Hybrid extension (§10): kernels whose latency exceeds the GPUs'
 * total overlapping capacity (the scheduler's overflow set) are
 * segmented off to host CPU workers.
 */
void
GpuInput::offloadOverflowToCpu()
{
    const auto &fusion = planner_.fusion();
    for (int g = 0; g < config_.gpuCount; ++g) {
        const auto gi = static_cast<std::size_t>(g);
        auto &schedule = offline_.schedules[gi];
        // The CPU pipeline must itself keep up with the trainer:
        // offload only what this GPU's share of the host cores can
        // chew through within one iteration interval.
        const Seconds budget =
            offline_.profiles[gi].iterationLatency * 0.9 * hybridCores_;
        auto &cpu_part = lanes_[gi].cpuPart;
        std::vector<ScheduledKernel> kept;
        for (auto &sk : schedule.kernels) {
            if (!sk.overflow) {
                kept.push_back(std::move(sk));
                continue;
            }
            // Offload members individually until the CPU budget is
            // spent; the rest stays on the GPU.
            std::vector<int> keep_ids;
            std::vector<preproc::OpShape> keep_shapes;
            for (std::size_t m = 0; m < sk.kernel.nodeIds.size(); ++m) {
                const Seconds member_cpu = preproc::opCpuSecondsOptimized(
                    sk.kernel.type, sk.kernel.memberShapes[m]);
                if (cpu_part + member_cpu <= budget) {
                    cpu_part += member_cpu;
                } else {
                    keep_ids.push_back(sk.kernel.nodeIds[m]);
                    keep_shapes.push_back(sk.kernel.memberShapes[m]);
                }
            }
            const Seconds before = sk.kernel.predictedLatency;
            const Seconds launch = fusion.spec().kernelLaunchOverhead;
            if (keep_ids.empty()) {
                // A fully offloaded kernel also gives back its launch
                // overhead (both totals charge one launch per kernel).
                schedule.totalPreprocLatency -= before + launch;
                schedule.estimatedExposed -= before + launch;
                continue;
            }
            if (keep_ids.size() < sk.kernel.nodeIds.size()) {
                sk.kernel = fusion.materialise(
                    sk.kernel.type, std::move(keep_ids),
                    std::move(keep_shapes), sk.kernel.step);
                schedule.totalPreprocLatency -=
                    before - sk.kernel.predictedLatency;
                schedule.estimatedExposed -=
                    before - sk.kernel.predictedLatency;
            }
            kept.push_back(std::move(sk));
        }
        schedule.kernels = std::move(kept);
        if (schedule.estimatedExposed < 0.0)
            schedule.estimatedExposed = 0.0;
    }
}

/**
 * Host preparation cost, input-communication messages and the shared
 * kernel descriptors follow the current mapping and schedules;
 * recomputed after a replan. Batches already queued keep the
 * descriptors they were pushed with.
 */
void
GpuInput::refreshMappingCosts()
{
    const auto &mapper = planner_.mapper();
    auto messages = mapper.remoteMessageSizes(offline_.mapping);
    for (int g = 0; g < config_.gpuCount; ++g) {
        const auto gi = static_cast<std::size_t>(g);
        auto &lane = lanes_[gi];
        // Host preparation: per-kernel argument assembly plus one raw
        // column staged over PCIe per mapped work item.
        Seconds cpu = 0.0;
        Bytes bytes = 0.0;
        lane.kernels.clear();
        for (const auto &sk : offline_.schedules[gi].kernels) {
            cpu += sk.kernel.prepCpuSeconds;
            lane.kernels.push_back(
                std::make_shared<const sim::KernelDesc>(sk.kernel.kernel));
        }
        for (const auto &item : offline_.mapping.itemsPerGpu[gi]) {
            // Column slicing + pinned-buffer staging is a memcpy-rate
            // pass over the raw column (the Fig. 8 preparation cost).
            const Bytes raw = mapper.featureRawBytes(item.featureId);
            cpu += 4e-6 + raw / 5e9;
            bytes += raw;
        }
        lane.prepCpu = cpu;
        lane.prepBytes = bytes;
        // Input communication: one message per remote-consumer item
        // (per-feature tensors are shipped individually).
        lane.messages = std::move(messages[gi]);
    }
}

void
GpuInput::wire(RunContext &run)
{
    run_ = &run;
    const int n = config_.iterations;
    const int gpus = config_.gpuCount;
    auto &engine = run.cluster.engine();
    for (int g = 0; g < gpus; ++g) {
        auto &device = run.cluster.device(g);
        auto &lane = lanes_[static_cast<std::size_t>(g)];
        lane.prep =
            &run.cluster.host().newStream("prep.g" + std::to_string(g));
        lane.copy =
            &device.newStream("gpu" + std::to_string(g) + ".copy");
        lane.pre = &device.newStream(
            "gpu" + std::to_string(g) + ".preproc",
            traits_.preprocLaunchGroup, traits_.preprocPriority);
    }
    refreshMappingCosts();

    // One monitor tick per iteration: once every GPU has finished
    // iteration j, check observed-vs-predicted drift, then extend the
    // batch pipeline by one (batch j + kPushAhead uses whatever
    // schedule is current — the splice point).
    const int tick_count = std::max(0, n - kPushAhead);
    ticks_.reserve(static_cast<std::size_t>(tick_count));
    for (int j = 0; j < tick_count; ++j) {
        auto tick = std::make_unique<InputBarrier>(engine, gpus);
        auto fired = sim::makeEvent();
        tick->addTarget(fired);
        fired->addWaiter(engine, [this, j] { monitorTick(j); });
        for (int g = 0; g < gpus; ++g) {
            auto *bar = tick.get();
            run.driver.iterEnd(g, j)->addWaiter(
                engine, [bar] { bar->arrive(); });
        }
        ticks_.push_back(std::move(tick));
    }

    // Prime the pipeline with the first kPushAhead batches; the
    // monitor ticks keep it topped up from there.
    for (int j = 0; j < std::min(kPushAhead, n); ++j)
        for (int g = 0; g < gpus; ++g)
            pushBatch(g, j);
}

void
GpuInput::pushBatch(int g, int j)
{
    auto &engine = run_->cluster.engine();
    auto &driver = run_->driver;
    const auto gi = static_cast<std::size_t>(g);
    const auto &schedule = offline_.schedules[gi];
    auto &lane = lanes_[gi];
    auto &prep_stream = *lane.prep;
    auto &copy_stream = *lane.copy;
    auto &pre_stream = *lane.pre;

    // --- Host data preparation + H2D staging for batch j. ---
    auto prep_done = sim::makeEvent();
    // Interleaving starts the next batch's preparation one iteration
    // early (§6.3); without it, preparation waits for the iteration
    // the kernels will co-run with.
    const int prep_gate_iter =
        config_.interleave && traits_.capacityScheduling ? j - 2 : j - 1;
    if (prep_gate_iter >= 0 && !traits_.sequential)
        prep_stream.pushWait(driver.opStart(g, prep_gate_iter, 0));
    if (traits_.sequential && j >= 1)
        prep_stream.pushWait(driver.iterEnd(g, j - 1));
    auto cpu_done = sim::makeEvent();
    prep_stream.pushCpuTask(lane.prepCpu, 1);
    prep_stream.pushRecord(cpu_done);
    copy_stream.pushWait(cpu_done);
    copy_stream.pushCopy(sim::CopyKind::HostToDevice, lane.prepBytes);
    copy_stream.pushRecord(prep_done);

    // --- Preprocessing kernels for batch j. ---
    pre_stream.pushWait(prep_done);
    const int corun_iter = j - 1;
    if (traits_.sequential && j >= 1) {
        pre_stream.pushWait(driver.iterEnd(g, j - 1));
    } else if (!traits_.capacityScheduling && corun_iter >= 0) {
        pre_stream.pushWait(driver.opStart(g, corun_iter, 0));
    }
    RAP_ASSERT(lane.kernels.size() == schedule.kernels.size(),
               "shared kernels out of step with the schedule");
    for (std::size_t k = 0; k < schedule.kernels.size(); ++k) {
        const auto &sk = schedule.kernels[k];
        if (traits_.capacityScheduling && corun_iter >= 0) {
            pre_stream.pushWait(driver.opStart(g, corun_iter, sk.opIndex));
        }
        if (traits_.hostDispatch > 0.0)
            pre_stream.pushDelay(traits_.hostDispatch);
        pre_stream.pushKernel(lane.kernels[k]);
    }

    // --- Input communication + readiness barrier. ---
    auto batch_done = sim::makeEvent();
    if (!lane.messages.empty()) {
        auto kernels_done = sim::makeEvent();
        pre_stream.pushRecord(kernels_done);
        copy_stream.pushWait(kernels_done);
        for (Bytes message : lane.messages)
            copy_stream.pushCopy(sim::CopyKind::PeerToPeer, message);
        copy_stream.pushRecord(batch_done);
    } else {
        pre_stream.pushRecord(batch_done);
    }
    auto *barrier = run_->barriers[static_cast<std::size_t>(j)].get();
    if (lane.cpuPart <= 0.0) {
        batch_done->addWaiter(engine, [barrier] { barrier->arrive(); });
        return;
    }
    // Hybrid: the CPU segment runs on a dedicated worker pipeline;
    // batch readiness joins both halves.
    if (lane.hybrid == nullptr) {
        lane.hybrid =
            &run_->cluster.host().newStream("hybrid.g" + std::to_string(g));
    }
    auto &worker = *lane.hybrid;
    auto hybrid_cpu_done = sim::makeEvent();
    const int gate_iter = j - 2;
    if (gate_iter >= 0)
        worker.pushWait(driver.opStart(g, gate_iter, 0));
    worker.pushCpuTask(lane.cpuPart / hybridCores_, hybridCores_);
    worker.pushRecord(hybrid_cpu_done);
    auto *join =
        lane.joins.emplace_back(std::make_unique<InputBarrier>(engine, 2))
            .get();
    // The joint completion reports to the global barrier.
    auto joined = sim::makeEvent();
    join->addTarget(joined);
    batch_done->addWaiter(engine, [join] { join->arrive(); });
    hybrid_cpu_done->addWaiter(engine, [join] { join->arrive(); });
    joined->addWaiter(engine, [barrier] { barrier->arrive(); });
}

/**
 * Online monitor (fault-tolerance extension; see DESIGN.md): after
 * every GPU finished iteration @p j, detect drift, replan when past
 * the threshold, and push batch j + kPushAhead.
 */
void
GpuInput::monitorTick(int j)
{
    const auto &driver = run_->driver;
    const int gpus = config_.gpuCount;
    if (config_.metrics != nullptr) {
        config_.metrics
            ->counter("train.monitor.ticks", runLabels(config_))
            .inc();
    }
    if (replanEnabled_ && j >= config_.warmup &&
        j >= lastReplanIter_ + kReplanCooldown) {
        std::vector<Seconds> observed(static_cast<std::size_t>(gpus),
                                      0.0);
        double drift = 0.0;
        for (int g = 0; g < gpus; ++g) {
            const auto gi = static_cast<std::size_t>(g);
            // Iteration interval, not span: it includes the input-gate
            // wait, so the monitor also sees faults that only starve
            // the input pipeline.
            const auto &span = driver.iterationSpan(g, j);
            observed[gi] =
                j >= 1 ? span.end - driver.iterationSpan(g, j - 1).end
                       : span.end - span.start;
            // A checkpoint drain between the two iteration ends is
            // planned-for overhead, not drift.
            if (j >= 1 && driver.checkpointSpan(g, j - 1).valid()) {
                observed[gi] = std::max(
                    0.0, observed[gi] -
                             driver.checkpointSpan(g, j - 1).duration());
            }
            if (predicted_[gi] > 0.0) {
                drift = std::max(drift,
                                 observed[gi] / predicted_[gi] - 1.0);
            }
        }
        if (config_.metrics != nullptr) {
            config_.metrics->series("train.drift", runLabels(config_))
                .append(j, drift);
        }
        if (drift > kReplanDriftThreshold) {
            replan(observed);
            lastReplanIter_ = j;
        }
    }
    for (int g = 0; g < gpus; ++g)
        pushBatch(g, j + kPushAhead);
}

void
GpuInput::replan(const std::vector<Seconds> &observed)
{
    const auto &engine = run_->cluster.engine();
    obs::Span replan_span(config_.metrics, "train.replan",
                          runLabels(config_));
    replan_span.annotateSim(engine.now(), engine.now());
    // Re-derive every GPU's capacity profile from its current
    // (possibly degraded) resource envelopes and rerun the system's
    // own map-and-schedule step on them.
    const auto &profiles = offline_.profiles;
    std::vector<CapacityProfile> degraded(profiles.size());
    for (std::size_t g = 0; g < profiles.size(); ++g) {
        const auto &device = run_->cluster.device(static_cast<int>(g));
        // Profiles already fold in the configured co-location
        // envelope, and so does the device's live capacity (it started
        // from the envelope share); degrade only by the capacity lost
        // since, or a faulted envelope-shared run would double-count
        // its envelope.
        const GpuEnvelope env = config_.envelopes.empty()
                                    ? GpuEnvelope{}
                                    : config_.envelopes[g];
        degraded[g] = degradeProfile(
            profiles[g], std::min(1.0, device.smCapacity() / env.sm),
            std::min(1.0, device.bwCapacity() / env.bw));
    }
    MappingResult mapped = planner_.mapAndSchedule(degraded, nullptr);
    offline_.mapping = std::move(mapped.mapping);
    offline_.schedules = std::move(mapped.schedules);
    refreshMappingCosts();
    // Calibrate the monitor to the new plan so drift re-arms relative
    // to the degraded prediction (or the observation, when the fault
    // is invisible to the capacity envelopes).
    for (std::size_t g = 0; g < degraded.size(); ++g)
        predicted_[g] = std::max(degraded[g].iterationLatency, observed[g]);
    ++replans_;
}

void
GpuInput::report(RunReport &report) const
{
    RunningStat launches, exposed, pre_lat;
    for (const auto &schedule : offline_.schedules) {
        launches.add(static_cast<double>(schedule.kernelCount()));
        exposed.add(schedule.estimatedExposed);
        pre_lat.add(schedule.totalPreprocLatency);
    }
    report.preprocKernelsPerIter = launches.mean();
    report.predictedExposed = exposed.mean();
    report.preprocLatencyPerIter = pre_lat.mean();
    report.replans = replans_;
    if (config_.metrics != nullptr) {
        config_.metrics->counter("train.replans", runLabels(config_))
            .inc(static_cast<std::uint64_t>(replans_));
        // Only the nodes replans explored: the shared planner already
        // counted the offline plan's under plan.milp.nodes_explored.
        config_.metrics
            ->counter("replan.milp.nodes_explored", runLabels(config_))
            .inc(planner_.fusion().milpNodesExplored() - offlineNodes_);
    }
}

/**
 * Validate @p config and @p plan's graph in one pass, so a bad
 * hand-built plan exits with its fields named before planning, as a
 * bad configuration does.
 */
SystemConfig
checkedRun(const SystemConfig &config, const preproc::PreprocPlan &plan)
{
    ValidationResult result = config.validate();
    result.addErrors("graph", plan.graph.validate());
    if (!result.ok())
        RAP_FATAL("invalid run configuration:\n", result.render());
    return config;
}

} // namespace

std::string
systemName(System system)
{
    switch (system) {
      case System::Ideal: return "Ideal";
      case System::Rap: return "RAP";
      case System::RapNoMapping: return "RAP w/o mapping";
      case System::RapNoFusion: return "RAP w/o fusion";
      case System::HorizontalFusionOnly: return "Horizontal Fusion";
      case System::HybridRap: return "RAP hybrid (GPU+CPU)";
      case System::CudaStream: return "CUDA stream";
      case System::Mps: return "MPS";
      case System::SequentialGpu: return "Sequential";
      case System::TorchArrowCpu: return "TorchArrow";
    }
    RAP_PANIC("unknown system");
}

OfflinePlan
planOffline(const SystemConfig &config, const preproc::PreprocPlan &plan)
{
    const SystemConfig checked = checkedRun(config, plan);
    const RunSession session(checked, plan);
    return OfflinePlanner(session).plan();
}

RunReport
RunRequest::run(const preproc::PreprocPlan &plan) const
{
    const SystemConfig config = checkedRun(config_, plan);
    const RunSession session(config, plan);
    switch (config.system) {
      case System::Ideal: {
        InputPath inputs_always_ready;
        return session.run(inputs_always_ready);
      }
      case System::TorchArrowCpu: {
        TorchArrowInput cpu_workers(session);
        return session.run(cpu_workers);
      }
      default: {
        GpuInput corun(session);
        return session.run(corun);
      }
    }
}

} // namespace rap::core
