/**
 * @file
 * One pass, run in a child process: build the workload's inputs (the
 * measured set-up), issue its calls, and print one JSON document on
 * stdout for the parent. A traced pass also runs the workload's
 * probes, folds the program's own spans and counters into per-layer
 * metrics, checks that each call's span tree accounts for its wall
 * time, and writes a Chrome trace with one span per call.
 */

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iostream>

#include "pass.hpp"

namespace rapbench {

namespace {

using rap::obs::MetricRegistry;
using rap::obs::SpanRecord;

/** Input builds per pass; setup_s is their median. */
constexpr int kSetups = 20;

/** Every per-layer metric; a workload that skips a layer reads 0. */
const Metrics &
layerDefaults()
{
    static const Metrics defaults = [] {
        Metrics m;
        for (const char *name :
             {"core.run_ms", "core.plan_ms", "core.plan.profile_ms",
              "core.plan.mapping_ms", "core.plan.schedule_ms",
              "sim.run_ms", "ingest.run_ms", "fleet.run_ms",
              "fleet.precompute_ms", "fleet.loop_ms", "ctrl.commit_ms",
              "ctrl.recover_ms"})
            m[name] = {0.0, "ms"};
        for (const char *name :
             {"core.mapping.pricings", "milp.nodes_explored",
              "sim.events", "sim.kernels_launched", "ingest.events",
              "ingest.spilled", "ingest.replayed", "ingest.dropped",
              "ingest.batches", "fleet.sims", "fleet.memo_lookups",
              "fleet.reference_sims", "fleet.placements",
              "fleet.requeues", "fleet.slo_rejections",
              "serve.requests", "serve.batches", "serve.mean_batch",
              "ctrl.wal_appends", "ctrl.wal_bytes",
              "ctrl.snapshot_writes"})
            m[name] = {0.0, "count"};
        for (const char *name :
             {"core.plan_share", "core.mapping.accept_ratio",
              "fleet.memo_hit_ratio", "serve.slo_attained_ratio",
              "obs.reconcile_err"})
            m[name] = {0.0, "frac"};
        m["sim.ns_per_event"] = {0.0, "ns"};
        m["ingest.events_per_s"] = {0.0, "1/s"};
        return m;
    }();
    return defaults;
}

/** @p simulated over zeros for the outcomes other workloads report. */
Metrics
withSimulatedDefaults(const Metrics &simulated)
{
    Metrics m = {{"model.rap_vs_mps", {0.0, "x"}},
                 {"model.rap_vs_stream", {0.0, "x"}},
                 {"model.rap_vs_seq", {0.0, "x"}},
                 {"model.rap_vs_ta", {0.0, "x"}},
                 {"model.rap_ideal_frac", {0.0, "frac"}},
                 {"model.ingest_stage_p99_ms", {0.0, "ms"}},
                 {"model.fleet_jct_gain", {0.0, "x"}},
                 {"model.fleet_mean_jct_ms", {0.0, "ms"}},
                 {"model.slo_goodput_gain", {0.0, "x"}},
                 {"model.slo_goodput_rps", {0.0, "1/s"}}};
    for (const auto &[name, metric] : simulated)
        m[name] = metric;
    return m;
}

double
counterSum(const MetricRegistry &registry, const std::string &name)
{
    double total = 0.0;
    for (const auto &[key, counter] : registry.counters()) {
        if (key.first == name)
            total += static_cast<double>(counter->value());
    }
    return total;
}

std::string
runScope(const SpanRecord &span)
{
    for (const auto &[key, value] : span.labels.pairs()) {
        if (key == "run")
            return value;
    }
    return "";
}

/** Length of the union of @p intervals (sorted by begin). */
double
coveredLength(const std::vector<std::pair<double, double>> &intervals)
{
    double total = 0.0, begin = 0.0, end = -1.0;
    for (const auto &[b, e] : intervals) {
        if (b > end) {
            total += std::max(0.0, end - begin);
            begin = b;
            end = e;
        } else {
            end = std::max(end, e);
        }
    }
    return total + std::max(0.0, end - begin);
}

/**
 * Sum of self times over a call and its spans: each node's duration
 * minus the part its direct children cover. It equals the call's wall
 * time exactly when the spans nest inside the call and siblings do
 * not overlap.
 */
double
selfTimeSum(const CallRecord &call, std::vector<SpanRecord> spans)
{
    struct Node
    {
        double begin, end;
        std::vector<std::pair<double, double>> children;
    };
    std::vector<Node> nodes = {{call.begin, call.end, {}}};
    std::sort(spans.begin(), spans.end(),
              [](const SpanRecord &a, const SpanRecord &b) {
                  return a.wallBegin != b.wallBegin
                             ? a.wallBegin < b.wallBegin
                             : a.wallEnd > b.wallEnd;
              });
    std::vector<std::size_t> open = {0};
    for (const auto &span : spans) {
        while (open.size() > 1 && nodes[open.back()].end <= span.wallBegin)
            open.pop_back();
        nodes[open.back()].children.emplace_back(span.wallBegin,
                                                 span.wallEnd);
        nodes.push_back({span.wallBegin, span.wallEnd, {}});
        open.push_back(nodes.size() - 1);
    }
    double total = 0.0;
    for (const auto &node : nodes)
        total += (node.end - node.begin) - coveredLength(node.children);
    return total;
}

Json
chromeEvent(const std::string &name, const std::string &category,
            double begin, double end, int lane, const std::string &call)
{
    Json event = Json::object();
    event.set("name", Json(name));
    event.set("cat", Json(category));
    event.set("ph", Json("X"));
    event.set("ts", Json(begin * 1e6));
    event.set("dur", Json((end - begin) * 1e6));
    event.set("pid", Json(1));
    event.set("tid", Json(lane));
    Json args = Json::object();
    args.set("call", Json(call));
    event.set("args", std::move(args));
    return event;
}

/**
 * Fold the registry into per-layer metrics, check each call's span
 * tree against its wall time, and write the Chrome trace.
 */
void
traceLayers(const MetricRegistry &registry, const CallLog &log,
            const std::string &trace_path, Metrics &layers)
{
    std::map<std::string, std::vector<SpanRecord>> spans_by_call;
    std::map<std::string, double> span_ms;
    for (auto &span : registry.spanRecords()) {
        if (!span.hasWall)
            continue;
        span_ms[span.name] += (span.wallEnd - span.wallBegin) * 1e3;
        spans_by_call[runScope(span)].push_back(std::move(span));
    }

    Json events = Json::array();
    double core_ms = 0.0, worst_error = 0.0;
    for (const auto &call : log.records()) {
        if (call.api == "core")
            core_ms += call.ms();
        const auto &spans = spans_by_call[call.id];
        const double wall = call.end - call.begin;
        const double error =
            wall > 0.0 ? std::abs(selfTimeSum(call, spans) - wall) / wall
                       : 0.0;
        worst_error = std::max(worst_error, error);
        events.push(chromeEvent(call.id, call.api, call.begin, call.end,
                                call.lane, call.id));
        for (const auto &span : spans) {
            events.push(chromeEvent(span.name, "span", span.wallBegin,
                                    span.wallEnd, call.lane, call.id));
        }
    }
    Json trace = Json::object();
    trace.set("traceEvents", std::move(events));
    rap::writeJsonFile(trace, trace_path);

    const double plan_ms = span_ms["plan.offline"];
    const double events_run = counterSum(registry, "sim.engine.events");
    const double evaluated =
        counterSum(registry, "plan.mapping.moves_evaluated");
    const double hits = counterSum(registry, "fleet.memo.hit");
    const double lookups = hits + counterSum(registry, "fleet.memo.miss");
    layers["core.run_ms"].value = core_ms;
    layers["core.plan_ms"].value = plan_ms;
    layers["core.plan.profile_ms"].value = span_ms["plan.profile"];
    layers["core.plan.mapping_ms"].value = span_ms["plan.mapping"];
    layers["core.plan.schedule_ms"].value = span_ms["plan.schedule"];
    layers["core.plan_share"].value =
        core_ms > 0.0 ? plan_ms / core_ms : 0.0;
    layers["core.mapping.pricings"].value =
        counterSum(registry, "plan.mapping.pricings");
    layers["core.mapping.accept_ratio"].value =
        evaluated > 0.0
            ? counterSum(registry, "plan.mapping.moves_accepted") /
                  evaluated
            : 0.0;
    layers["milp.nodes_explored"].value =
        counterSum(registry, "plan.milp.nodes_explored");
    layers["sim.run_ms"].value = core_ms - plan_ms;
    layers["sim.events"].value = events_run;
    layers["sim.kernels_launched"].value =
        counterSum(registry, "sim.device.kernels_launched");
    layers["sim.ns_per_event"].value =
        events_run > 0.0 ? (core_ms - plan_ms) * 1e6 / events_run : 0.0;
    layers["fleet.run_ms"].value = span_ms["fleet.run"];
    layers["fleet.precompute_ms"].value = span_ms["fleet.precompute"];
    layers["fleet.loop_ms"].value =
        span_ms["fleet.run"] - span_ms["fleet.precompute"];
    layers["fleet.memo_lookups"].value = lookups;
    layers["fleet.memo_hit_ratio"].value =
        lookups > 0.0 ? hits / lookups : 0.0;
    layers["fleet.reference_sims"].value =
        counterSum(registry, "fleet.reference_sims");
    layers["fleet.placements"].value =
        counterSum(registry, "fleet.placements");
    layers["fleet.slo_rejections"].value =
        counterSum(registry, "fleet.slo_rejections");
    layers["ctrl.wal_appends"].value =
        counterSum(registry, "ctrl.wal.appends");
    layers["ctrl.wal_bytes"].value = counterSum(registry, "ctrl.wal.bytes");
    layers["ctrl.snapshot_writes"].value =
        counterSum(registry, "ctrl.snapshot.writes");
    layers["obs.reconcile_err"].value = worst_error;
}

Json
callsToJson(const std::vector<CallRecord> &calls)
{
    Json out = Json::array();
    for (const auto &call : calls) {
        Json entry = Json::object();
        entry.set("id", Json(call.id));
        entry.set("ms", Json(call.ms()));
        entry.set("digest", Json(hex64(call.digest)));
        out.push(std::move(entry));
    }
    return out;
}

} // namespace

int
runPass(const PassOptions &options, double main_entry)
{
    std::filesystem::create_directories(options.context.workDir);
    // Set-up is milliseconds, so one timing is mostly scheduler noise:
    // build the inputs kSetups times (the first timed from main()
    // entry) and report the median.
    std::unique_ptr<Workload> workload;
    std::vector<double> setups;
    double mark = main_entry;
    for (int i = 0; i < kSetups; ++i) {
        workload = makeWorkload(options.workload, options.context);
        if (workload == nullptr) {
            std::cerr << "rap_bench: unknown workload "
                      << options.workload << "\n";
            return 2;
        }
        const double built = steadyNow();
        setups.push_back(built - mark);
        mark = built;
    }
    const double setup_s = median(setups);

    std::unique_ptr<MetricRegistry> registry;
    if (options.traced)
        registry = std::make_unique<MetricRegistry>();
    CallLog log(registry.get());
    const double run_begin = log.now();
    workload->run(log);
    const double run_s = log.now() - run_begin;
    const auto calls = log.records();

    Json out = Json::object();
    out.set("setup_s", Json(setup_s));
    out.set("run_s", Json(run_s));
    out.set("calls", callsToJson(calls));
    out.set("sim",
            metricsToJson(withSimulatedDefaults(workload->simulated())));
    if (options.traced) {
        Metrics layers = layerDefaults();
        workload->probe(log, layers);
        workload->reportLayers(layers);
        std::filesystem::create_directories(options.traceDir);
        traceLayers(*registry, log,
                    options.traceDir + "/trace." + options.workload +
                        ".json",
                    layers);
        if (layers["obs.reconcile_err"].value > 0.01)
            log.fail("traced pass: span self-times do not reconcile "
                     "with call wall time within 1%");
        out.set("layers", metricsToJson(layers));
    }
    Json failures = Json::array();
    for (const auto &failure : log.failures())
        failures.push(Json(failure));
    out.set("failures", std::move(failures));
    std::filesystem::remove_all(options.context.workDir);
    std::cout << out.dump() << std::endl;
    return 0;
}

} // namespace rapbench
