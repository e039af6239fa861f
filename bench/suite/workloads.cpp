/**
 * @file
 * The four rap_bench workloads. Each builds its inputs from the seed
 * in its constructor (the measured set-up), issues its calls through
 * the validated public APIs only — core::RunRequest::run,
 * fleet::FleetRequest::run, ingest::IngestPipeline::run and
 * ctrl::Catalog::open — and checks the invariants of what came back.
 */

#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/run_request.hpp"
#include "ctrl/catalog.hpp"
#include "fleet/fleet.hpp"
#include "ingest/pipeline.hpp"
#include "preproc/plan.hpp"
#include "suite.hpp"

namespace rapbench {

namespace {

using namespace rap;

/** Calls in flight for workloads whose calls are single-threaded. */
constexpr int kClients = 2;

/**
 * Fixed seed of the fleet job mixes (plans, GPU counts, batch sizes,
 * request traces). The run seed draws only their arrival times, so a
 * seed moves the schedule without changing how much work a trace is.
 */
constexpr std::uint64_t kMixSeed = 0x6d6978;

/**
 * fig_grid: the paper's Fig. 9/10 grid. Every (GPUs, plan, batch)
 * cell runs all six systems; Plans 2 and 3 draw their operator chains
 * from the seed. The planner dominates the RAP cells.
 */
class FigGrid : public Workload
{
  public:
    explicit FigGrid(const PassContext &context)
    {
        gpus_ = context.tiny ? std::vector<int>{2}
                             : std::vector<int>{8, 4, 2};
        const std::vector<int> plan_ids =
            context.tiny ? std::vector<int>{2, 0}
                         : std::vector<int>{3, 2, 1, 0};
        batches_ = context.tiny ? std::vector<std::int64_t>{4096}
                                : std::vector<std::int64_t>{8192, 4096};
        const std::uint64_t plan_seed = deriveSeed(context.seed, 1);
        for (int id : plan_ids)
            plans_.push_back(preproc::makePlan(id, plan_seed));
        // Largest cells first, so the closed loop ends without a long
        // single-client tail.
        for (int g : gpus_)
            for (std::size_t p = 0; p < plans_.size(); ++p)
                for (auto b : batches_)
                    cells_.push_back({g, p, b});
    }

    void
    run(CallLog &log) override
    {
        const std::size_t systems = kSystems.size();
        reports_.assign(cells_.size() * systems, {});
        closedLoop(reports_.size(), kClients, [&](std::size_t i) {
            const Cell &cell = cells_[i / systems];
            const core::System system = kSystems[i % systems];
            const std::string id =
                std::string("g") + std::to_string(cell.gpus) + ".p" +
                std::to_string(plans_[cell.plan].spec.id) + ".b" +
                std::to_string(cell.batch) + "." +
                core::systemId(system);
            reports_[i] = log.call("core", id, [&] {
                return core::RunRequest(system)
                    .gpus(cell.gpus)
                    .batchPerGpu(cell.batch)
                    .metrics(log.metrics(), id)
                    .run(plans_[cell.plan]);
            });
        });
        for (std::size_t c = 0; c < cells_.size(); ++c) {
            const double ideal = throughput(c, core::System::Ideal);
            const double rap = throughput(c, core::System::Rap);
            // RAP that hides all preprocessing matches Ideal up to
            // floating-point rounding.
            if (!(rap > 0.0 && rap <= ideal * (1.0 + 1e-9))) {
                log.fail("fig_grid cell " + std::to_string(c) +
                         ": RAP throughput " + std::to_string(rap) +
                         " outside (0, Ideal=" + std::to_string(ideal) +
                         "]");
            }
        }
    }

    Metrics
    simulated() const override
    {
        std::vector<double> mps, stream, seq, ta, ideal;
        for (std::size_t c = 0; c < cells_.size(); ++c) {
            const double rap = throughput(c, core::System::Rap);
            mps.push_back(rap / throughput(c, core::System::Mps));
            stream.push_back(rap /
                             throughput(c, core::System::CudaStream));
            seq.push_back(rap /
                          throughput(c, core::System::SequentialGpu));
            ta.push_back(rap /
                         throughput(c, core::System::TorchArrowCpu));
            ideal.push_back(rap / throughput(c, core::System::Ideal));
        }
        return {{"model.rap_vs_mps", {geomean(mps), "x"}},
                {"model.rap_vs_stream", {geomean(stream), "x"}},
                {"model.rap_vs_seq", {geomean(seq), "x"}},
                {"model.rap_vs_ta", {geomean(ta), "x"}},
                {"model.rap_ideal_frac", {geomean(ideal), "frac"}}};
    }

  private:
    struct Cell
    {
        int gpus = 0;
        std::size_t plan = 0;
        std::int64_t batch = 0;
    };

    inline static const std::vector<core::System> kSystems = {
        core::System::Ideal,      core::System::SequentialGpu,
        core::System::CudaStream, core::System::Mps,
        core::System::Rap,        core::System::TorchArrowCpu,
    };

    double
    throughput(std::size_t cell, core::System system) const
    {
        for (std::size_t s = 0; s < kSystems.size(); ++s) {
            if (kSystems[s] == system)
                return reports_[cell * kSystems.size() + s].throughput;
        }
        return 0.0;
    }

    std::vector<int> gpus_;
    std::vector<std::int64_t> batches_;
    std::vector<preproc::PreprocPlan> plans_;
    std::vector<Cell> cells_;
    std::vector<core::RunReport> reports_;
};

/**
 * stream_train: 8-GPU Plan 3 training gated on a bursty 4-stream
 * ingest feed carried by 2 producer threads, for RAP and MPS under
 * the block and spill backpressure policies. Ingest does most of the
 * work; each call already keeps 3 threads busy, so one is in flight.
 */
class StreamTrain : public Workload
{
  public:
    explicit StreamTrain(const PassContext &context)
        : plan_(preproc::makePlan(3, deriveSeed(context.seed, 1))),
          iterations_(context.tiny ? 10 : 20)
    {
        for (auto policy : {ingest::BackpressurePolicy::Block,
                            ingest::BackpressurePolicy::Spill}) {
            ingest::IngestConfig config;
            config.streams = 4;
            config.producers = 2;
            config.seed = deriveSeed(context.seed, 2);
            config.profile.kind = ingest::RateProfileKind::Burst;
            config.profile.eventsPerSec = 60000.0;
            config.stagingEventsPerSec = 300000.0;
            config.duration = context.tiny ? 0.012 : 0.1;
            config.batchRows = context.tiny ? 64 : 128;
            config.stagingQueueCap = 512;
            config.policy = policy;
            config.spillPath = context.workDir + "/spill." +
                               ingest::backpressurePolicyId(policy) +
                               ".log";
            configs_.push_back(std::move(config));
        }
    }

    void
    run(CallLog &log) override
    {
        reports_.assign(kSystems.size() * configs_.size(), {});
        closedLoop(reports_.size(), 1, [&](std::size_t i) {
            const core::System system = kSystems[i / configs_.size()];
            const auto &config = configs_[i % configs_.size()];
            const std::string id =
                core::systemId(system) + "." +
                ingest::backpressurePolicyId(config.policy);
            reports_[i] = log.call("core", id, [&] {
                return core::RunRequest(system)
                    .gpus(8)
                    .batchPerGpu(4096)
                    .iterations(iterations_, 3)
                    .ingest(config)
                    .metrics(log.metrics(), id)
                    .run(plan_);
            });
        });
        for (std::size_t i = 0; i < reports_.size(); ++i) {
            const auto &report = reports_[i];
            if (report.ingestDropped != 0 ||
                report.ingestBatches <
                    static_cast<std::uint64_t>(iterations_)) {
                log.fail("stream_train call " + std::to_string(i) +
                         ": ingest dropped " +
                         std::to_string(report.ingestDropped) +
                         " events, staged " +
                         std::to_string(report.ingestBatches) +
                         " batches");
            }
        }
    }

    void
    probe(CallLog &log, Metrics &layers) override
    {
        // The same ingest configs, standalone: ingest's own host cost
        // and counts, without the training simulation behind them.
        double ms = 0.0;
        double events = 0.0, spilled = 0.0, replayed = 0.0;
        double dropped = 0.0, batches = 0.0;
        for (const auto &config : configs_) {
            const std::string id =
                "ingest." + ingest::backpressurePolicyId(config.policy);
            const auto report = log.call("ingest", id, [&] {
                return ingest::IngestPipeline(config).run(
                    {}, log.metrics(), obs::Labels{{"run", id}});
            });
            ms += log.ms(id);
            events += static_cast<double>(report.events);
            spilled += static_cast<double>(report.spilled);
            replayed += static_cast<double>(report.replayed);
            dropped += static_cast<double>(report.dropped);
            batches += static_cast<double>(report.batches);
        }
        layers["ingest.run_ms"] = {ms, "ms"};
        layers["ingest.events_per_s"] = {events / (ms / 1e3), "1/s"};
        layers["ingest.events"] = {events, "count"};
        layers["ingest.spilled"] = {spilled, "count"};
        layers["ingest.replayed"] = {replayed, "count"};
        layers["ingest.dropped"] = {dropped, "count"};
        layers["ingest.batches"] = {batches, "count"};
    }

    Metrics
    simulated() const override
    {
        std::vector<double> gain;
        double p99 = 0.0;
        const std::size_t policies = configs_.size();
        for (std::size_t p = 0; p < policies; ++p) {
            gain.push_back(reports_[p].throughput /
                           reports_[policies + p].throughput);
        }
        for (const auto &report : reports_)
            p99 += report.ingestStagingP99 * 1e3;
        p99 /= static_cast<double>(reports_.size());
        return {{"model.rap_vs_mps", {geomean(gain), "x"}},
                {"model.ingest_stage_p99_ms", {p99, "ms"}}};
    }

  private:
    /** RAP first: simulated() pairs index p with policies + p. */
    inline static const std::vector<core::System> kSystems = {
        core::System::Rap, core::System::Mps};

    preproc::PreprocPlan plan_;
    int iterations_;
    std::vector<ingest::IngestConfig> configs_;
    std::vector<core::RunReport> reports_;
};

/**
 * A trace whose job mix is fixed and whose arrival times come from
 * @p seed: the mix is drawn once from the trace options' own seed, then
 * every gap is redrawn from an exponential with the trace's mean gap,
 * keeping the arrival order (and so the dense ids) intact.
 */
std::vector<fleet::JobSpec>
seededArrivals(const fleet::ArrivalTraceOptions &options,
               std::uint64_t seed)
{
    auto jobs = fleet::makeArrivalTrace(options);
    const double mean_gap =
        jobs.back().arrival / static_cast<double>(jobs.size());
    Rng rng(seed);
    Seconds clock = 0.0;
    for (auto &job : jobs) {
        clock += -mean_gap * std::log(1.0 - rng.uniform());
        job.arrival = clock;
    }
    return jobs;
}

/** Fails @p log unless every job of @p report finished. */
void
checkJobsFinish(CallLog &log, const std::string &id,
                const fleet::FleetReport &report)
{
    for (const auto &job : report.jobs) {
        if (job.finish < 0.0) {
            log.fail(id + ": job " + std::to_string(job.spec.id) +
                     " never finished");
        }
    }
}

/** Fleet per-layer values every fleet workload reads from reports. */
void
fleetReportLayers(const std::vector<fleet::FleetReport> &reports,
                  Metrics &layers)
{
    double sims = 0.0, requeues = 0.0;
    double requests = 0.0, batches = 0.0, attained = 0.0;
    for (const auto &report : reports) {
        sims += report.simulationsRun;
        requeues += report.requeues;
        requests += static_cast<double>(report.serveRequests);
        batches += static_cast<double>(report.serveBatches);
        attained += static_cast<double>(report.serveAttained);
    }
    layers["fleet.sims"] = {sims, "count"};
    layers["fleet.requeues"] = {requeues, "count"};
    layers["serve.requests"] = {requests, "count"};
    layers["serve.batches"] = {batches, "count"};
    layers["serve.mean_batch"] = {batches > 0 ? requests / batches : 0.0,
                                  "count"};
    layers["serve.slo_attained_ratio"] = {
        requests > 0 ? attained / requests : 0.0, "frac"};
}

/**
 * fleet_train: two 40-job training traces, each under three
 * arms — exclusive first-fit, RAP-shared backed by a durable catalog,
 * and RAP-shared with GPU 0 degraded to 70% SM halfway through the
 * arrival window. The six calls are independent, so the closed loop
 * balances them, largest arms first.
 */
class FleetTrain : public Workload
{
  public:
    explicit FleetTrain(const PassContext &context)
        : workDir_(context.workDir)
    {
        for (std::uint64_t k = 0; k < 2; ++k) {
            fleet::ArrivalTraceOptions options;
            options.tiny = context.tiny;
            options.jobCount = context.tiny ? 8 : 40;
            options.meanInterarrival = context.tiny ? 0.004 : 0.005;
            options.seed = kMixSeed + k;
            traces_.push_back(
                seededArrivals(options, deriveSeed(context.seed, 10 + k)));
        }
    }

    void
    run(CallLog &log) override
    {
        const std::size_t traces = traces_.size();
        reports_.assign(kArms.size() * traces, {});
        recoverMs_.assign(traces, 0.0);
        closedLoop(reports_.size(), kClients, [&](std::size_t i) {
            const std::size_t k = i % traces;
            const std::string id = tag(k) + "." + kArms[i / traces];
            reports_[i] = runArm(log, k, kArms[i / traces], id);
            checkJobsFinish(log, id, reports_[i]);
        });
    }

    void
    probe(CallLog &log, Metrics &layers) override
    {
        // The shared arm again without the catalog: its report must be
        // byte-identical, and the wall difference is the commit cost.
        double commit_ms = 0.0;
        for (std::size_t k = 0; k < traces_.size(); ++k) {
            const std::string id = tag(k) + ".shared_nocat";
            const auto report = runArm(log, k, "shared_nocat", id);
            if (report.toJson().dump() != shared(k).toJson().dump()) {
                log.fail(id + ": report differs from the catalog-"
                              "backed run");
            }
            commit_ms += log.ms(tag(k) + ".shared") - log.ms(id);
        }
        layers["ctrl.commit_ms"] = {commit_ms, "ms"};
        double recover_ms = 0.0;
        for (double ms : recoverMs_)
            recover_ms += ms;
        layers["ctrl.recover_ms"] = {recover_ms, "ms"};
    }

    Metrics
    simulated() const override
    {
        std::vector<double> gain;
        double jct_ms = 0.0;
        for (std::size_t k = 0; k < traces_.size(); ++k) {
            const auto &exclusive =
                reports_[(kArms.size() - 1) * traces_.size() + k];
            gain.push_back(exclusive.meanJct / shared(k).meanJct);
            jct_ms += shared(k).meanJct * 1e3;
        }
        jct_ms /= static_cast<double>(traces_.size());
        return {{"model.fleet_jct_gain", {geomean(gain), "x"}},
                {"model.fleet_mean_jct_ms", {jct_ms, "ms"}}};
    }

    void
    reportLayers(Metrics &layers) const override
    {
        fleetReportLayers(reports_, layers);
    }

  private:
    /** Largest first; "shared" must stay at index 0 (see shared()). */
    inline static const std::vector<std::string> kArms = {
        "shared", "shared_degrade", "first_fit"};

    static std::string
    tag(std::size_t k)
    {
        return std::string("t") + std::to_string(k);
    }

    const fleet::FleetReport &
    shared(std::size_t k) const
    {
        return reports_[k];
    }

    fleet::FleetReport
    runArm(CallLog &log, std::size_t k, const std::string &arm,
           const std::string &id)
    {
        const auto &trace = traces_[k];
        fleet::FleetRequest request(trace);
        request.policy(arm == "first_fit"
                           ? fleet::PlacementPolicy::ExclusiveFirstFit
                           : fleet::PlacementPolicy::RapShared)
            .metrics(log.metrics(), id);
        if (arm == "shared_degrade") {
            request.addFault(sim::FaultEvent::smDegrade(
                0, trace.back().arrival / 2.0, 0.7));
        }
        if (arm != "shared")
            return log.call("fleet", id, [&] { return request.run(); });

        ctrl::CatalogOptions catalog_options;
        catalog_options.dir = workDir_ + "/catalog." + tag(k);
        catalog_options.compactEvery = 8;
        catalog_options.metrics = log.metrics();
        std::filesystem::remove_all(catalog_options.dir);
        std::uint64_t last_lsn = 0;
        auto report = log.call("fleet", id, [&] {
            auto catalog = ctrl::Catalog::open(catalog_options);
            auto result = request.catalog(catalog.get()).run();
            last_lsn = catalog->state().lastLsn;
            return result;
        });
        // Recovery: reopening the written catalog replays it to the
        // run's last LSN.
        const double reopen_begin = log.now();
        const std::uint64_t recovered =
            ctrl::Catalog::open(catalog_options)->state().lastLsn;
        recoverMs_[k] = (log.now() - reopen_begin) * 1e3;
        if (last_lsn == 0 || recovered != last_lsn) {
            log.fail(id + ": catalog reopened at LSN " +
                     std::to_string(recovered) + ", run ended at " +
                     std::to_string(last_lsn));
        }
        std::filesystem::remove_all(catalog_options.dir);
        return report;
    }

    std::string workDir_;
    std::vector<std::vector<fleet::JobSpec>> traces_;
    /** Indexed arm * traces + trace; each call writes only its slot. */
    std::vector<fleet::FleetReport> reports_;
    std::vector<double> recoverMs_;
};

/**
 * fleet_serve: two traces of 8 training and 12 inference jobs
 * at 1x and 4x serving load, under exclusive first-fit and RAP-shared
 * placement — the projected-p99 SLO gate, forward-only memo keys and
 * serve batching replay.
 */
class FleetServe : public Workload
{
  public:
    explicit FleetServe(const PassContext &context)
    {
        for (std::uint64_t k = 0; k < 2; ++k) {
            for (int load : {4, 1}) {
                fleet::ArrivalTraceOptions options;
                options.tiny = context.tiny;
                options.jobCount = context.tiny ? 3 : 8;
                options.meanInterarrival = context.tiny ? 0.004 : 0.005;
                options.seed = kMixSeed + 2 + k;
                options.serving.jobCount = context.tiny ? 2 : 12;
                options.serving.meanInterarrival =
                    context.tiny ? 0.006 : 0.008;
                options.serving.qps =
                    (context.tiny ? 3000.0 : 4000.0) * load;
                options.serving.seed = kMixSeed + 4 + k;
                points_.push_back(
                    {std::string("t") + std::to_string(k) + ".load" +
                         std::to_string(load),
                     seededArrivals(options,
                                    deriveSeed(context.seed, 20 + k))});
            }
        }
    }

    void
    run(CallLog &log) override
    {
        const std::size_t points = points_.size();
        reports_.assign(kPolicies.size() * points, {});
        closedLoop(reports_.size(), kClients, [&](std::size_t i) {
            const auto &point = points_[i % points];
            const auto policy = kPolicies[i / points];
            const std::string id =
                point.id + "." + fleet::policyId(policy);
            reports_[i] = log.call("fleet", id, [&] {
                return fleet::FleetRequest(point.trace)
                    .policy(policy)
                    .metrics(log.metrics(), id)
                    .run();
            });
            checkJobsFinish(log, id, reports_[i]);
        });
    }

    Metrics
    simulated() const override
    {
        std::vector<double> gain;
        double goodput = 0.0;
        const std::size_t points = points_.size();
        for (std::size_t p = 0; p < points; ++p) {
            const double shared =
                reports_[p].serveGoodputRps.value_or(0.0);
            const double exclusive =
                reports_[points + p].serveGoodputRps.value_or(0.0);
            gain.push_back(shared / exclusive);
            goodput += shared;
        }
        goodput /= static_cast<double>(points);
        return {{"model.slo_goodput_gain", {geomean(gain), "x"}},
                {"model.slo_goodput_rps", {goodput, "1/s"}}};
    }

    void
    reportLayers(Metrics &layers) const override
    {
        fleetReportLayers(reports_, layers);
    }

  private:
    struct Point
    {
        std::string id;
        std::vector<fleet::JobSpec> trace;
    };

    /** Shared (the larger calls) first; simulated() relies on it. */
    inline static const std::vector<fleet::PlacementPolicy> kPolicies = {
        fleet::PlacementPolicy::RapShared,
        fleet::PlacementPolicy::ExclusiveFirstFit};

    std::vector<Point> points_;
    std::vector<fleet::FleetReport> reports_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fig_grid", "stream_train", "fleet_train", "fleet_serve"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const PassContext &context)
{
    if (name == "fig_grid")
        return std::make_unique<FigGrid>(context);
    if (name == "stream_train")
        return std::make_unique<StreamTrain>(context);
    if (name == "fleet_train")
        return std::make_unique<FleetTrain>(context);
    if (name == "fleet_serve")
        return std::make_unique<FleetServe>(context);
    return nullptr;
}

} // namespace rapbench
