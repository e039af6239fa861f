#include "fleet/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <csignal>
#include <set>

#include "common/log.hpp"
#include "common/stats.hpp"
#include "core/checkpoint.hpp"
#include "core/run_request.hpp"
#include "ctrl/catalog.hpp"
#include "obs/span.hpp"
#include "serve/slo.hpp"
#include "sim/cluster.hpp"

namespace rap::fleet {

namespace {

/**
 * Envelope shares are floored to this quantum before simulation,
 * bounding the memo key space (and keeping keys exact).
 */
constexpr double kEnvelopeQuantum = 0.05;

/** Plan-cache key: the preprocessing plan a job's workload builds. */
std::string
planKey(const JobSpec &spec)
{
    std::string key = "p";
    key += std::to_string(spec.planId);
    key += ".s";
    key += std::to_string(spec.ngramStress);
    return key;
}

/** One catalog frame op about @p job; callers append more fields. */
Json
jobOp(const char *name, int job)
{
    Json op = Json::object();
    op.set("op", Json(name));
    op.set("job", Json(job));
    return op;
}

/** @return True when every granted envelope is the whole device. */
bool
wholeDevices(const Placement &placement)
{
    return std::all_of(placement.envelopes.begin(),
                       placement.envelopes.end(),
                       [](const core::GpuEnvelope &env) {
                           return env.sm >= 1.0 && env.bw >= 1.0;
                       });
}

} // namespace

FleetScheduler::FleetScheduler(std::vector<JobSpec> jobs,
                               FleetOptions options, ThreadPool *pool)
    : jobs_(std::move(jobs)), options_(std::move(options)), pool_(pool)
{
    // Inputs were checked by FleetRequest::validate (fresh runs and
    // resumes alike), so only derived state is built here.
    labels_.set("policy", policyId(options_.placement.policy));
    if (!options_.metricsScope.empty())
        labels_.set("run", options_.metricsScope);
    requestArrivals_.resize(jobs_.size());
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
        if (jobs_[j].kind != JobKind::Inference)
            continue;
        // Requests are generated relative to the job's submission and
        // re-based onto the fleet clock here, once: every
        // re-placement after a preemption re-serves this same trace.
        auto arrivals = serve::makeRequestTrace(jobs_[j].requests);
        for (Seconds &t : arrivals)
            t += jobs_[j].arrival;
        requestArrivals_[j] = std::move(arrivals);
    }
    lastDurable_.assign(jobs_.size(), 0.0);
    sealCount_.assign(jobs_.size(), 0);
    gpus_.resize(static_cast<std::size_t>(options_.node.gpuCount));
    report_.policy = options_.placement.policy;
    report_.gpuCount = options_.node.gpuCount;
    report_.jobs.resize(jobs_.size());
    for (std::size_t j = 0; j < jobs_.size(); ++j)
        report_.jobs[j].spec = jobs_[j];
}

Json
FleetScheduler::genesisTransaction() const
{
    // The catalog's first record (LSN 1): everything a resume needs
    // to re-execute the identical run — the semantic options plus the
    // full job trace. Event frames then commit as LSN frame + 2.
    Json txn = Json::object();
    txn.set("kind", Json("genesis"));
    txn.set("config", fleetOptionsToJson(options_));
    Json specs = Json::array();
    for (const auto &spec : jobs_)
        specs.push(spec.toJson());
    txn.set("jobs", std::move(specs));
    return txn;
}

Placement
FleetScheduler::quantised(Placement placement) const
{
    auto snap = [](double share) {
        const double floored =
            std::floor(share / kEnvelopeQuantum + 1e-9) * kEnvelopeQuantum;
        return std::min(1.0, std::max(kEnvelopeQuantum, floored));
    };
    for (auto &env : placement.envelopes) {
        env.sm = snap(env.sm);
        env.bw = snap(env.bw);
    }
    return placement;
}

std::string
FleetScheduler::memoKey(const JobSpec &spec,
                        const std::vector<core::GpuEnvelope> &envelopes) const
{
    // Workload variant x quantised envelope (as exact grid indices,
    // never formatted floats). Physical GPU ids are excluded on
    // purpose — the simulation is identical on any subset of equal
    // size, only trace labels differ.
    const auto grid = [](double share) {
        return std::to_string(static_cast<long long>(
            std::llround(share / kEnvelopeQuantum)));
    };
    std::string key = spec.variantKey();
    for (const auto &env : envelopes) {
        key += '|';
        key += grid(env.sm);
        key += ',';
        key += grid(env.bw);
    }
    return key;
}

core::SystemConfig
FleetScheduler::jobConfig(const JobSpec &spec) const
{
    auto config = makeJobConfig(spec);
    // Inner simulations are memoised and must stay byte-identical
    // whether or not the fleet run is instrumented: never hand them
    // the scheduler's registry.
    config.metrics = nullptr;
    config.clusterSpec =
        sim::subsetSpec(options_.node, spec.gpusRequested);
    return config;
}

core::RunReport
FleetScheduler::simulate(const JobSpec &spec, const Placement &placement,
                         int segment_index)
{
    const std::string key = memoKey(spec, placement.envelopes);
    const bool tracing = !options_.tracePrefix.empty();
    if (!tracing) {
        const auto it = memo_.find(key);
        if (it != memo_.end()) {
            count("fleet.memo.hit");
            return it->second;
        }
    }

    auto config = jobConfig(spec);
    config.gpuSubset = placement.gpuIds;
    if (!wholeDevices(placement))
        config.envelopes = placement.envelopes;
    if (tracing) {
        config.tracePath = options_.tracePrefix + ".job" +
                           std::to_string(spec.id) + ".seg" +
                           std::to_string(segment_index) + ".json";
    }

    const auto report =
        core::RunRequest(config).run(planCache_.at(planKey(spec)));
    ++report_.simulationsRun;
    memo_[key] = report;
    count("fleet.memo.miss");
    return report;
}

serve::BatchReplay
FleetScheduler::replayServe(const JobSpec &spec,
                            const core::RunReport &report,
                            Seconds serve_start) const
{
    // The batch service model is calibrated from the simulated
    // forward-only iteration on this placement's envelope: the
    // steady-state iteration latency at the profiling batch size is
    // the full-batch cost; smaller batches shed the per-row share.
    serve::ServiceModel model;
    model.fullBatchLatency = report.avgIterationLatency;
    model.profileBatch = spec.batchPerGpu;
    return serve::replayBatches(
        requestArrivals_[static_cast<std::size_t>(spec.id)],
        spec.window, model, serve_start);
}

void
FleetScheduler::precomputeReferences()
{
    obs::Span span(options_.metrics, "fleet.precompute", labels_);
    // One exclusive whole-device reference run per distinct workload
    // variant: it yields both the demand estimate placement reserves
    // (mean SM/BW utilisation) and the healthy-exclusive service time.
    // Each run of the fan-out writes its own submission-indexed slot,
    // so results are bit-identical at any thread count.
    std::vector<std::size_t> unique_jobs;
    std::set<std::string> seen;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
        if (seen.insert(jobs_[j].variantKey()).second)
            unique_jobs.push_back(j);
        const std::string plan_key = planKey(jobs_[j]);
        if (planCache_.find(plan_key) == planCache_.end())
            planCache_.emplace(plan_key, buildJobPlan(jobs_[j]));
    }

    count("fleet.reference_sims", unique_jobs.size());
    std::vector<core::RunReport> references(unique_jobs.size());
    parallelFor(pool_, unique_jobs.size(), [&](std::size_t u) {
        const auto &spec = jobs_[unique_jobs[u]];
        references[u] = core::RunRequest(jobConfig(spec))
                            .run(planCache_.at(planKey(spec)));
    });

    std::map<std::string, DemandEstimate> demand_by_key;
    for (std::size_t u = 0; u < unique_jobs.size(); ++u) {
        const auto &spec = jobs_[unique_jobs[u]];
        const auto &report = references[u];
        ++report_.simulationsRun;
        // Seed the memo with the whole-device entry so an exclusive
        // healthy placement reuses the reference run.
        const std::vector<core::GpuEnvelope> whole(
            static_cast<std::size_t>(spec.gpusRequested));
        memo_[memoKey(spec, whole)] = report;
        DemandEstimate demand;
        demand.sm = std::clamp(report.avgSmUtil, 0.05, 1.0);
        demand.bw = std::clamp(report.avgBwUtil, 0.05, 1.0);
        demand_by_key[spec.variantKey()] = demand;
    }
    demand_.resize(jobs_.size());
    for (std::size_t j = 0; j < jobs_.size(); ++j)
        demand_[j] = demand_by_key.at(jobs_[j].variantKey());
}

void
FleetScheduler::applyReservation(const JobSpec &spec,
                                 const Placement &placement,
                                 int direction)
{
    // Reservations use the same discounted demand the admission check
    // compares against, so bookkeeping and placement stay consistent.
    const auto &demand = demand_[static_cast<std::size_t>(spec.id)];
    const double scale = options_.placement.demandScale;
    for (int id : placement.gpuIds) {
        auto &gpu = gpus_[static_cast<std::size_t>(id)];
        gpu.smUsed += direction * scale * demand.sm;
        gpu.bwUsed += direction * scale * demand.bw;
        gpu.residents += direction;
        RAP_ASSERT(gpu.residents >= 0, "negative residency on GPU ",
                   id);
        if (gpu.residents == 0) {
            // Clear reservation dust so exact emptiness is restored.
            gpu.smUsed = 0.0;
            gpu.bwUsed = 0.0;
        }
    }
}

void
FleetScheduler::accumulateBusy(Seconds until)
{
    const auto occupied =
        std::count_if(gpus_.begin(), gpus_.end(),
                      [](const GpuState &gpu) { return gpu.residents > 0; });
    report_.busyGpuSeconds +=
        static_cast<double>(occupied) * (until - lastBusyUpdate_);
    lastBusyUpdate_ = until;
}

void
FleetScheduler::count(const char *name, std::uint64_t delta)
{
    if (options_.metrics != nullptr)
        options_.metrics->counter(name, labels_).inc(delta);
}

void
FleetScheduler::logOp(Json op)
{
    if (options_.catalog != nullptr)
        frameOps_.push(std::move(op));
}

Seconds
FleetScheduler::restartCharge(const QueuedJob &queued) const
{
    // A resumed segment pays the process-restart latency before any
    // useful iteration runs (restore cost is already inside the job's
    // composed makespan when it checkpoints).
    return queued.requeues > 0 ? options_.restartOverhead : 0.0;
}

void
FleetScheduler::markFinished(std::size_t ji, Seconds now)
{
    // Stamp a finished job's fleet-clock lifecycle into its report.
    auto &outcome = report_.jobs[ji];
    outcome.finish = now;
    outcome.report.submittedAt = jobs_[ji].arrival;
    outcome.report.startedAt = outcome.firstStart;
    outcome.report.finishedAt = now;
    logOp(jobOp("finish", jobs_[ji].id));
}

void
FleetScheduler::attachCatalog()
{
    // A fresh catalog gets the genesis record committed before any
    // event takes effect; a catalog that already holds one switches
    // this run into resume mode — the loop re-executes every frame
    // from event zero and byte-verifies the recomputed transactions
    // against the durable prefix instead of re-committing them.
    if (options_.catalog == nullptr)
        return;
    const Json genesis = genesisTransaction();
    if (options_.catalog->state().hasGenesis()) {
        durableLsn_ = options_.catalog->state().lastLsn;
        RAP_ASSERT(options_.catalog->state().genesis.dump() ==
                       ctrl::Catalog::serializeTransaction(genesis, 1),
                   "catalog genesis does not match this run's trace and "
                   "options — resuming a different run?");
    } else {
        options_.catalog->commit(genesis);
    }
}

void
FleetScheduler::startSegment(const QueuedJob &queued, Placement placement,
                             Seconds now)
{
    const auto ji = static_cast<std::size_t>(queued.jobId);
    const auto &spec = jobs_[ji];
    auto &outcome = report_.jobs[ji];
    placement = quantised(std::move(placement));
    const auto report = simulate(spec, placement, outcome.placements);
    const Seconds charge = restartCharge(queued);
    RunningJob running;
    Seconds duration = 0.0;
    if (spec.kind == JobKind::Inference) {
        // A serving segment runs until its request trace drains: the
        // batch replay on this envelope's service model sets both the
        // per-request latencies and the finish time.
        running.replay = replayServe(spec, report, now + charge);
        duration = std::max(running.replay.lastCompletion - now, charge);
    } else {
        duration = queued.remainingFraction * report.makespan + charge;
    }
    applyReservation(spec, placement, +1);
    running.placement = placement;
    running.segmentStart = now;
    running.segmentDuration = duration;
    running.restartCharge = charge;
    running.remainingAtStart = queued.remainingFraction;
    running.generation = outcome.placements;
    running_[queued.jobId] = running;
    // The placement-decision record: granted devices plus the exact
    // (quantised) envelope reservation the job holds.
    Json op = jobOp("place", spec.id);
    op.set("segment", Json(running.generation));
    op.set("start", Json(now));
    op.set("duration", Json(duration));
    op.set("remaining", Json(queued.remainingFraction));
    op.set("placement", placement.toJson());
    logOp(std::move(op));
    count("fleet.placements");
    if (options_.metrics != nullptr) {
        obs::Labels seg_labels = labels_;
        seg_labels.set("job", std::to_string(spec.id));
        options_.metrics->recordSimSpan("fleet.segment", seg_labels, now,
                                        now + duration);
    }
    ++outcome.placements;
    if (outcome.firstStart < 0.0)
        outcome.firstStart = now;
    outcome.requeues = queued.requeues;
    outcome.lastGpus = placement.gpuIds;
    outcome.demand = demand_[ji];
    outcome.report = report;
    events_.push({now + duration, EventKind::Finish, queued.jobId,
                  running.generation});
}

bool
FleetScheduler::sloRejects(const QueuedJob &queued,
                           const Placement &placement, Seconds now)
{
    // SLO admission gate: project the serving replay on the candidate
    // envelope; a placement whose projected tail latency violates the
    // SLO is skipped — the job stays queued and is re-planned on a
    // later scan, exactly like a degraded training job. Whole-device
    // grants are never gated (nothing shares them), and the final
    // relaxed scan bypasses the gate so the fleet always drains.
    const auto ji = static_cast<std::size_t>(queued.jobId);
    const auto &spec = jobs_[ji];
    const auto candidate = quantised(placement);
    if (spec.kind != JobKind::Inference || wholeDevices(candidate))
        return false;
    const auto projection =
        simulate(spec, candidate, report_.jobs[ji].placements);
    const auto replay =
        replayServe(spec, projection, now + restartCharge(queued));
    if (replay.latencies.empty() ||
        rap::p99(replay.latencies) <= spec.sloLatency)
        return false;
    count("fleet.slo_rejections");
    return true;
}

void
FleetScheduler::placeScan(Seconds now, const PlacementOptions &opts,
                          bool enforce_slo)
{
    std::size_t i = 0;
    while (i < queue_.size()) {
        const auto &queued = queue_.jobs()[i];
        const auto ji = static_cast<std::size_t>(queued.jobId);
        const auto placement = placeJob(
            opts, gpus_, jobs_[ji].gpusRequested, demand_[ji]);
        if (!placement ||
            (enforce_slo && sloRejects(queued, *placement, now))) {
            ++i; // backfill: later jobs may still fit
            continue;
        }
        startSegment(queue_.take(i), *placement, now);
    }
}

void
FleetScheduler::onArrival(const Event &event)
{
    queue_.push({event.id, 1.0, event.time, 0});
    logOp(jobOp("admit", event.id));
}

void
FleetScheduler::onFinish(const Event &event)
{
    const auto it = running_.find(event.id);
    if (it == running_.end() || it->second.generation != event.generation)
        return; // stale: the segment was preempted
    const auto ji = static_cast<std::size_t>(event.id);
    const auto &spec = jobs_[ji];
    auto &outcome = report_.jobs[ji];
    outcome.serviceTime += it->second.segmentDuration;
    markFinished(ji, event.time);
    if (spec.kind == JobKind::Inference) {
        const auto &replay = it->second.replay;
        outcome.serve = serve::computeSloStats(
            replay.latencies, replay.batchSizes.size(), spec.sloLatency);
        pooledLatencies_.insert(pooledLatencies_.end(),
                                replay.latencies.begin(),
                                replay.latencies.end());
        count("serve.requests", outcome.serve->requests);
        count("serve.batches", outcome.serve->batches);
        count("serve.slo_attained", outcome.serve->attained);
        if (options_.metrics != nullptr) {
            // Bucket edges span the sub-millisecond service floor up
            // to SLO-busting tails (100 us .. 100 ms).
            static const std::vector<double> kLatencyEdges{
                0.0001, 0.0002, 0.0005, 0.001, 0.002,
                0.005,  0.01,   0.02,   0.05,  0.1};
            auto &latency_hist = options_.metrics->histogram(
                "serve.request_latency_seconds", kLatencyEdges, labels_);
            for (Seconds latency : replay.latencies)
                latency_hist.observe(latency);
            static const std::vector<double> kBatchEdges{
                1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0};
            auto &batch_hist = options_.metrics->histogram(
                "serve.batch_size", kBatchEdges, labels_);
            for (int batch : replay.batchSizes)
                batch_hist.observe(static_cast<double>(batch));
        }
    }
    applyReservation(spec, it->second.placement, -1);
    running_.erase(it);
}

void
FleetScheduler::onDegrade(const Event &event)
{
    const auto &fault =
        options_.faults.events[static_cast<std::size_t>(event.id)];
    const bool crash = fault.kind == sim::FaultKind::DeviceCrash;
    const int first = fault.device < 0 ? 0 : fault.device;
    const int last =
        fault.device < 0 ? options_.node.gpuCount - 1 : fault.device;
    for (int g = first; g <= last; ++g) {
        auto &gpu = gpus_[static_cast<std::size_t>(g)];
        if (crash) {
            gpu.alive = false;
        } else if (fault.kind == sim::FaultKind::SmDegrade) {
            // Degradations compose by min: plain assignment let a
            // later, milder fault *raise* an already worse device back
            // to stale healthier capacity, which admission would then
            // happily fill.
            gpu.healthSm = std::min(gpu.healthSm, fault.factor);
        } else {
            gpu.healthBw = std::min(gpu.healthBw, fault.factor);
        }
    }
    Json op = Json::object();
    op.set("op", Json("fault"));
    op.set("fault", Json(sim::faultKindId(fault.kind)));
    op.set("device", Json(fault.device));
    op.set("factor", Json(fault.factor));
    logOp(std::move(op));
    // Preempt every job resident on an affected GPU — including
    // co-located survivors sharing a crashed device — highest id
    // first, so the lowest id ends up frontmost in the queue.
    std::vector<int> affected;
    for (const auto &[job_id, running] : running_) {
        const auto &ids = running.placement.gpuIds;
        if (std::any_of(ids.begin(), ids.end(), [first, last](int id) {
                return id >= first && id <= last;
            }))
            affected.push_back(job_id);
    }
    for (auto it = affected.rbegin(); it != affected.rend(); ++it)
        preempt(*it, event.time, crash);
}

void
FleetScheduler::preempt(int job_id, Seconds now, bool crash)
{
    // Credit the last *durable* fraction, requeue at the front, and
    // let the placement scan re-place — and thereby replan — the job
    // against the surviving envelopes.
    const auto ji = static_cast<std::size_t>(job_id);
    const auto &running = running_.at(job_id);
    const auto &spec = jobs_[ji];
    auto &outcome = report_.jobs[ji];
    const Seconds elapsed = now - running.segmentStart;
    // Fraction of this segment's *work* completed; the restart charge
    // at its head advances nothing.
    const Seconds work_time =
        running.segmentDuration - running.restartCharge;
    const double per =
        work_time > 0.0
            ? std::clamp((elapsed - running.restartCharge) / work_time,
                         0.0, 1.0)
            : 1.0;
    // Progress only survives preemption once a checkpoint seals it:
    // round the completed fraction down to the last checkpoint
    // boundary. A job that never checkpoints has no durable point and
    // restarts from scratch — crediting the raw elapsed fraction would
    // resume from state nobody saved.
    const double before = 1.0 - running.remainingAtStart;
    const double progress = before + running.remainingAtStart * per;
    double durable = 0.0;
    if (spec.checkpointInterval > 0) {
        const double chk_frac =
            static_cast<double>(spec.checkpointInterval) /
            static_cast<double>(spec.iterations);
        durable = std::min(
            progress, std::floor(progress / chk_frac + 1e-9) * chk_frac);
    }
    if (durable > lastDurable_[ji]) {
        // The durable fraction advanced: seal a manifest so the
        // catalog records exactly which checkpoint the requeued job
        // restarts from.
        core::CheckpointManifest manifest;
        manifest.jobId = spec.id;
        manifest.sequence = sealCount_[ji]++;
        manifest.fraction = durable;
        manifest.sealedAt = now;
        manifest.segment = running.generation;
        lastDurable_[ji] = durable;
        Json op = jobOp("seal", spec.id);
        op.set("manifest", manifest.toJson());
        logOp(std::move(op));
    }
    // The segment slice that advanced the job from `before` to
    // `durable` is kept; everything else it ran here — volatile
    // iterations plus the restart charge — is lost and will be re-run.
    const Seconds credited =
        running.remainingAtStart > 0.0
            ? std::max(0.0, durable - before) / running.remainingAtStart *
                  work_time
            : elapsed;
    outcome.lostWork += std::max(0.0, elapsed - credited);
    outcome.serviceTime += elapsed;
    if (crash)
        ++outcome.crashRequeues;
    const QueuedJob queued{job_id, 1.0 - durable, now,
                           outcome.requeues + 1};
    applyReservation(spec, running.placement, -1);
    running_.erase(job_id);
    if (queued.remainingFraction <= 0.0) {
        // Preempted at the exact finish instant with every iteration
        // sealed: done.
        markFinished(ji, now);
        return;
    }
    queue_.pushFront(queued);
    Json op = jobOp("preempt", job_id);
    op.set("remaining", Json(queued.remainingFraction));
    logOp(std::move(op));
    count("fleet.requeues");
    if (crash)
        count("fleet.crash_requeues");
}

void
FleetScheduler::scanQueue(Seconds now)
{
    if (options_.metrics != nullptr) {
        // Pre-scan depth: the backlog this event left to admit.
        options_.metrics->gauge("fleet.queue.max_depth", labels_)
            .max(static_cast<double>(queue_.size()));
    }
    placeScan(now, options_.placement, /*enforce_slo=*/true);
    if (events_.empty() && running_.empty() && !queue_.empty()) {
        // Every remaining event has drained but jobs are still queued:
        // the cluster is idle yet no GPU passes the admission bar
        // (e.g. degraded below minEnvelope). Relax the co-location
        // guards so the fleet always drains.
        auto relaxed = options_.placement;
        relaxed.minEnvelope = 0.0;
        relaxed.headroom = 1.0;
        count("fleet.relaxed_scans");
        placeScan(now, relaxed, /*enforce_slo=*/false);
        RAP_ASSERT(queue_.empty() || !running_.empty(),
                   "fleet deadlock: ", queue_.size(),
                   " jobs unplaceable on an idle cluster");
    }
    if (options_.metrics != nullptr) {
        // Post-scan depth: jobs the policy could not admit yet.
        options_.metrics->series("fleet.queue_depth", labels_)
            .append(now, static_cast<double>(queue_.size()));
    }
}

bool
FleetScheduler::commitFrame(const Event &event)
{
    if (options_.catalog == nullptr)
        return false;
    Json txn = Json::object();
    txn.set("kind", Json("frame"));
    txn.set("frame", Json(frame_));
    txn.set("time", Json(event.time));
    Json ev = Json::object();
    ev.set("kind", Json(static_cast<int>(event.kind)));
    ev.set("id", Json(event.id));
    ev.set("generation", Json(event.generation));
    txn.set("event", std::move(ev));
    txn.set("ops", std::move(frameOps_));
    const auto lsn = static_cast<std::uint64_t>(frame_) + 2;
    if (lsn <= durableLsn_) {
        // This frame was durable before the crash; the resumed loop
        // must recompute it bit-for-bit. Compacted frames left no
        // bytes to compare — the recovered WAL tail did.
        const auto &tail = options_.catalog->recoveredTail();
        const auto it = tail.find(lsn);
        RAP_ASSERT(it == tail.end() ||
                       ctrl::Catalog::serializeTransaction(txn, lsn) ==
                           it->second,
                   "resume diverged from the committed WAL at frame ",
                   frame_);
    } else {
        // Commit-before-effect: the record is in the log (and fsync'd
        // when configured) before the loop moves past this event — a
        // kill here replays the frame, never invents or loses one.
        options_.catalog->commit(std::move(txn));
    }
    ++frame_;
    if (options_.stopAfterEvents <= 0 ||
        frame_ < options_.stopAfterEvents || events_.empty())
        return false;
    if (options_.stopMode == StopMode::HardKill) {
        // The deterministic "power cut" the resume gate exercises: no
        // destructors, no flushes, exit code 137.
        std::raise(SIGKILL);
    }
    stopped_ = true;
    report_.catalogDegraded = options_.catalog->degraded();
    return true;
}

FleetReport
FleetScheduler::run()
{
    obs::Span run_span(options_.metrics, "fleet.run", labels_);
    precomputeReferences();
    attachCatalog();
    for (const auto &spec : jobs_)
        events_.push({spec.arrival, EventKind::Arrival, spec.id, 0});
    for (std::size_t e = 0; e < options_.faults.events.size(); ++e) {
        events_.push({options_.faults.events[e].time, EventKind::Degrade,
                      static_cast<int>(e), 0});
    }
    while (!events_.empty()) {
        const Event event = events_.top();
        events_.pop();
        frameOps_ = Json::array();
        accumulateBusy(event.time);
        if (event.kind == EventKind::Arrival)
            onArrival(event);
        else if (event.kind == EventKind::Finish)
            onFinish(event);
        else
            onDegrade(event);
        scanQueue(event.time);
        if (commitFrame(event))
            return report_;
    }

    RAP_ASSERT(queue_.empty() && running_.empty(),
               "fleet drained with work outstanding");
    if (options_.catalog != nullptr && options_.catalog->degraded()) {
        // The run itself is fine — the numbers below are exact — but
        // nothing past the last durable commit survives a restart.
        report_.catalogDegraded = true;
        logWarn("fleet run finished with a degraded catalog: results "
                "are complete but the run is not resumable");
    }
    Seconds makespan = 0.0;
    for (const auto &outcome : report_.jobs)
        makespan = std::max(makespan, outcome.finish);
    report_.makespan = makespan;
    // Pooled request-latency percentiles need the raw latencies, which
    // only the scheduler holds — finalize() recomputes everything else
    // and leaves these intact.
    if (!pooledLatencies_.empty()) {
        report_.serveP50Latency = rap::p50(pooledLatencies_);
        report_.serveP95Latency = rap::p95(pooledLatencies_);
        report_.serveP99Latency = rap::p99(pooledLatencies_);
    }
    return report_;
}

} // namespace rap::fleet
