/**
 * @file
 * rap_bench: one benchmark for the simulator's host cost and its
 * simulated results (README.md has the metric dictionary).
 *
 *   rap_bench --workload all --seed 1
 *   rap_bench --workload fig_grid --seed 2 --seconds 20 --trace 1
 *   rap_bench --workload all --seed 3 --out runs.jsonl
 *   rap_bench --compare parent.jsonl change.jsonl
 *
 * Each pass is a fresh child process (posix_spawn of this binary,
 * reaped with wait4 for its rusage), so every pass pays start-up and
 * set-up and no cache survives between passes. Timed passes repeat
 * until --seconds is spent (at least three); with --trace 1 they take
 * half of it and one traced pass follows. The last stdout line is
 * {"correct", "attempted", "failed", "metrics"} with the end-to-end
 * metrics BENCHMARK.json names (--trace 0) or its per-layer metrics
 * (--trace 1).
 */

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>

#include "compare.hpp"
#include "pass.hpp"

extern char **environ;

namespace {

using namespace rapbench;

constexpr int kMinPasses = 3;

/** Metric names, units and bounds live in the repository's spec. */
constexpr const char *kSpecPath = RAP_BENCH_SOURCE_DIR "/../../BENCHMARK.json";

struct Options
{
    std::string workload = "all";
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    bool tiny = false;
    std::string traceDir = RAP_BENCH_BINARY_DIR "/trace";
    std::string workDir = RAP_BENCH_BINARY_DIR "/work";
    bool regenGolden = false;
    std::string outPath;
    /** Child mode: run one pass of this workload. */
    std::string child;
    std::vector<std::string> compare;
};

[[noreturn]] void
usage(const std::string &error)
{
    std::cerr
        << "rap_bench: " << error << "\n"
        << "usage: rap_bench [--workload NAME|all] [--seed N] "
           "[--seconds S] [--trace 0|1]\n"
           "                 [--trace-dir DIR] [--work-dir DIR] "
           "[--tiny] [--out FILE]\n"
           "                 [--regen-golden]\n"
           "       rap_bench --compare A.jsonl B.jsonl\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(flag + " needs a value");
            return argv[++i];
        };
        auto number = [&](auto parse) {
            const std::string text = value();
            try {
                return parse(text);
            } catch (const std::exception &) {
                usage(flag + " needs a number, not '" + text + "'");
            }
        };
        if (flag == "--workload")
            options.workload = value();
        else if (flag == "--seed")
            options.seed = number([](const std::string &t) {
                return std::stoull(t);
            });
        else if (flag == "--seconds")
            options.seconds = number([](const std::string &t) {
                return std::stod(t);
            });
        else if (flag == "--trace")
            options.trace = value() != "0";
        else if (flag == "--trace-dir")
            options.traceDir = value();
        else if (flag == "--work-dir")
            options.workDir = value();
        else if (flag == "--tiny")
            options.tiny = true;
        else if (flag == "--out")
            options.outPath = value();
        else if (flag == "--regen-golden")
            options.regenGolden = true;
        else if (flag == "--child")
            options.child = value();
        else if (flag == "--compare") {
            options.compare.push_back(value());
            options.compare.push_back(value());
        } else
            usage("unknown flag " + flag);
    }
    return options;
}

/** Metric names, units and bounds, as BENCHMARK.json fixes them. */
struct Spec
{
    struct Entry
    {
        std::string name;
        std::string unit;
    };
    std::vector<Entry> endToEnd;
    std::vector<Entry> perLayer;
};

Spec
readSpec(const std::string &path)
{
    const Json json = rap::readJsonFile(path);
    Spec spec;
    for (const auto &m : json.at("end_to_end").elements())
        spec.endToEnd.push_back({m.at("name").asString(),
                                 m.at("unit").asString()});
    for (const auto &m : json.at("per_layer").elements())
        spec.perLayer.push_back({m.at("name").asString(),
                                 m.at("unit").asString()});
    return spec;
}

/** Per-call digests, by workload then call id. */
using Digests = std::map<std::string, std::string>;
using Golden = std::map<std::string, Digests>;

Golden
readGolden(const std::string &path)
{
    Golden golden;
    std::ifstream in(path);
    std::string workload, id, digest;
    while (in >> workload >> id >> digest)
        golden[workload][id] = digest;
    return golden;
}

void
writeGolden(const std::string &path, const Golden &golden)
{
    std::ofstream out(path);
    for (const auto &[workload, digests] : golden) {
        for (const auto &[id, digest] : digests)
            out << workload << " " << id << " " << digest << "\n";
    }
    if (!out.flush())
        usage("cannot write " + path);
}

/** One child pass as the parent saw it. */
struct Pass
{
    bool ok = false;
    double wallS = 0.0;
    double cpuS = 0.0;
    double rssMb = 0.0;
    Json doc;
};

std::string
selfExe()
{
    std::vector<char> buf(4096);
    const ssize_t n = ::readlink("/proc/self/exe", buf.data(), buf.size());
    if (n <= 0)
        usage("cannot resolve /proc/self/exe");
    return std::string(buf.data(), static_cast<std::size_t>(n));
}

Pass
spawnPass(const Options &options, const std::string &workload,
          bool traced, int index)
{
    std::vector<std::string> args = {
        selfExe(),
        "--child",
        workload,
        "--seed",
        std::to_string(options.seed),
        "--work-dir",
        options.workDir + "/" + workload + ".pass" +
            std::to_string(index),
        "--trace-dir",
        options.traceDir,
        "--trace",
        traced ? "1" : "0",
    };
    if (options.tiny)
        args.push_back("--tiny");
    std::vector<char *> argv;
    for (auto &arg : args)
        argv.push_back(arg.data());
    argv.push_back(nullptr);

    int fds[2];
    if (::pipe(fds) != 0)
        usage("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);

    Pass pass;
    const double begin = steadyNow();
    pid_t pid = 0;
    const int rc = ::posix_spawn(&pid, argv[0], &actions, nullptr,
                                 argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    std::string out;
    if (rc == 0) {
        char buf[65536];
        for (;;) {
            const ssize_t n = ::read(fds[0], buf, sizeof(buf));
            if (n > 0)
                out.append(buf, static_cast<std::size_t>(n));
            else if (n == 0 || errno != EINTR)
                break;
        }
    }
    ::close(fds[0]);
    if (rc != 0)
        return pass;
    int status = 0;
    struct rusage usage_info = {};
    while (::wait4(pid, &status, 0, &usage_info) < 0 && errno == EINTR) {
    }
    pass.wallS = steadyNow() - begin;
    pass.cpuS = static_cast<double>(usage_info.ru_utime.tv_sec +
                                    usage_info.ru_stime.tv_sec) +
                static_cast<double>(usage_info.ru_utime.tv_usec +
                                    usage_info.ru_stime.tv_usec) *
                    1e-6;
    pass.rssMb = static_cast<double>(usage_info.ru_maxrss) / 1024.0;

    // The document is the child's last stdout line.
    while (!out.empty() && out.back() == '\n')
        out.pop_back();
    const auto line = out.substr(out.rfind('\n') + 1);
    pass.doc = Json::parse(line);
    pass.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
              pass.doc.isObject();
    if (!pass.ok) {
        std::cerr << "rap_bench: " << workload << " pass " << index
                  << " failed (status " << status << ")\n";
    }
    return pass;
}

/** Everything one workload's passes add up to. */
struct Outcome
{
    long attempted = 0;
    long failed = 0;
    int passes = 0;
    /** Every metric computed, end-to-end and per-layer. */
    Metrics metrics;
    /** The samples behind each metric (for n and quartiles). */
    std::map<std::string, std::vector<double>> samples;
    Digests digests;
};

Digests
passDigests(const Pass &pass)
{
    Digests digests;
    for (const auto &call : pass.doc.at("calls").elements())
        digests[call.at("id").asString()] = call.at("digest").asString();
    return digests;
}

/**
 * Count @p pass's calls against @p expected (golden or first-pass
 * digests) and its invariant failures; simulated results must match
 * @p sim exactly.
 */
void
checkPass(const std::string &workload, const Pass &pass,
          const Digests &expected, const Json &sim, Outcome &outcome)
{
    if (!pass.ok) {
        const long calls =
            std::max<long>(1, static_cast<long>(expected.size()));
        outcome.attempted += calls;
        outcome.failed += calls;
        return;
    }
    const Digests got = passDigests(pass);
    std::set<std::string> ids;
    for (const auto &[id, digest] : expected)
        ids.insert(id);
    for (const auto &[id, digest] : got)
        ids.insert(id);
    for (const auto &id : ids) {
        ++outcome.attempted;
        const auto want = expected.find(id);
        const auto have = got.find(id);
        if (want == expected.end() || have == got.end() ||
            want->second != have->second) {
            ++outcome.failed;
            std::cerr << "rap_bench: " << workload << " call " << id
                      << " digest "
                      << (have == got.end() ? "missing" : have->second)
                      << ", expected "
                      << (want == expected.end() ? "none" : want->second)
                      << "\n";
        }
    }
    for (const auto &failure : pass.doc.at("failures").elements()) {
        ++outcome.failed;
        std::cerr << "rap_bench: " << workload << ": "
                  << failure.asString() << "\n";
    }
    if (pass.doc.at("sim").dump() != sim.dump()) {
        ++outcome.failed;
        std::cerr << "rap_bench: " << workload
                  << ": simulated results differ between passes\n";
    }
}

void
addMetric(Outcome &outcome, const std::string &name, double value,
          const std::string &unit, std::vector<double> samples)
{
    outcome.metrics[name] = {value, unit};
    outcome.samples[name] = std::move(samples);
}

Outcome
runWorkload(const Options &options, const std::string &workload,
            const Digests &golden)
{
    const double budget =
        options.trace ? options.seconds / 2.0 : options.seconds;
    const double start = steadyNow();
    std::vector<Pass> timed;
    for (;;) {
        timed.push_back(spawnPass(options, workload, false,
                                  static_cast<int>(timed.size())));
        const double elapsed = steadyNow() - start;
        const double per_pass = elapsed / static_cast<double>(timed.size());
        if (!timed.back().ok ||
            (timed.size() >= kMinPasses && elapsed + per_pass > budget))
            break;
    }
    Pass traced;
    if (options.trace) {
        traced = spawnPass(options, workload, true,
                           static_cast<int>(timed.size()));
    }

    Outcome outcome;
    outcome.passes = static_cast<int>(timed.size());
    const Pass *reference = nullptr;
    for (const auto &pass : timed) {
        if (pass.ok) {
            reference = &pass;
            break;
        }
    }
    Json sim = Json::object();
    if (reference != nullptr) {
        outcome.digests = passDigests(*reference);
        sim = reference->doc.at("sim");
    }
    const Digests &expected =
        golden.empty() || options.regenGolden ? outcome.digests : golden;
    for (const auto &pass : timed)
        checkPass(workload, pass, expected, sim, outcome);
    if (options.trace)
        checkPass(workload, traced, expected, sim, outcome);

    std::vector<double> walls, setups, runs, cpus, rss, calls;
    for (const auto &pass : timed) {
        if (!pass.ok)
            continue;
        walls.push_back(pass.wallS);
        setups.push_back(pass.doc.at("setup_s").asDouble());
        runs.push_back(pass.doc.at("run_s").asDouble());
        cpus.push_back(pass.cpuS);
        rss.push_back(pass.rssMb);
        for (const auto &call : pass.doc.at("calls").elements())
            calls.push_back(call.at("ms").asDouble());
    }
    if (walls.empty())
        return outcome;
    addMetric(outcome, "setup_s", median(setups), "s", setups);
    addMetric(outcome, "wall_s", median(walls), "s", walls);
    addMetric(outcome, "call_ms_p50", median(calls), "ms", calls);
    addMetric(outcome, "peak_rss_mb", median(rss), "MB", rss);
    addMetric(outcome, "process.cpu_s", median(cpus), "s", cpus);
    for (const auto &[name, metric] : metricsFromJson(sim)) {
        addMetric(outcome, name, metric.value, metric.unit,
                  std::vector<double>(walls.size(), metric.value));
    }
    if (options.trace && traced.ok) {
        for (const auto &[name, metric] :
             metricsFromJson(traced.doc.at("layers")))
            addMetric(outcome, name, metric.value, metric.unit,
                      {metric.value});
        const double overhead =
            traced.doc.at("run_s").asDouble() / median(runs) - 1.0;
        addMetric(outcome, "obs.trace_overhead", overhead, "frac",
                  {overhead});
    }
    return outcome;
}

void
printTable(const std::string &workload, const Options &options,
           const Outcome &outcome,
           const std::vector<Spec::Entry> &entries)
{
    std::printf("== %s (seed %llu, %d timed passes%s) ==\n",
                workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                outcome.passes, options.trace ? " + 1 traced" : "");
    std::printf("%-28s %-6s %6s %14s %14s %14s\n", "metric", "unit", "n",
                "q1", "median", "q3");
    for (const auto &entry : entries) {
        const auto it = outcome.samples.find(entry.name);
        if (it == outcome.samples.end())
            continue;
        const auto [q1, q3] = quartiles(it->second);
        std::printf("%-28s %-6s %6zu %14.6g %14.6g %14.6g\n",
                    entry.name.c_str(), entry.unit.c_str(),
                    it->second.size(), q1,
                    outcome.metrics.at(entry.name).value, q3);
    }
}

/**
 * @return The result line. A metric missing from a run that failed
 * reads 0; missing from a correct run, or in another unit than
 * BENCHMARK.json gives, it is fatal (the two have drifted apart).
 */
Json
resultLine(const std::string &workload, const Outcome &outcome,
           const std::vector<Spec::Entry> &entries)
{
    Metrics selected;
    for (const auto &entry : entries) {
        const auto it = outcome.metrics.find(entry.name);
        if (it == outcome.metrics.end() && outcome.failed > 0) {
            selected[entry.name] = {0.0, entry.unit};
            continue;
        }
        if (it == outcome.metrics.end() || it->second.unit != entry.unit) {
            std::cerr << "rap_bench: " << workload << " has no metric "
                      << entry.name << " in " << entry.unit << "\n";
            std::exit(2);
        }
        selected[entry.name] = it->second;
    }
    Json line = Json::object();
    line.set("correct", Json(outcome.failed == 0 && outcome.attempted > 0));
    line.set("attempted", Json(std::max<long>(1, outcome.attempted)));
    line.set("failed", Json(std::min(outcome.failed,
                                     std::max<long>(1, outcome.attempted))));
    line.set("metrics", metricsToJson(selected));
    return line;
}

void
writeLayers(const Options &options, const std::string &workload,
            const Outcome &outcome, const Spec &spec)
{
    Metrics layers;
    for (const auto &[name, metric] : outcome.metrics) {
        const bool end_to_end =
            std::any_of(spec.endToEnd.begin(), spec.endToEnd.end(),
                        [&](const Spec::Entry &e) { return e.name == name; });
        if (!end_to_end)
            layers[name] = metric;
    }
    Json doc = Json::object();
    doc.set("workload", Json(workload));
    doc.set("seed", Json(options.seed));
    doc.set("layers", metricsToJson(layers));
    rap::writeJsonFile(doc, options.traceDir + "/layers." + workload +
                                ".json");
}

int
runParent(Options options)
{
    const Spec spec = readSpec(kSpecPath);
    std::vector<std::string> workloads = workloadNames();
    if (options.workload != "all") {
        if (std::find(workloads.begin(), workloads.end(),
                      options.workload) == workloads.end())
            usage("unknown workload " + options.workload);
        workloads = {options.workload};
    }
    const std::string golden_path = std::string(RAP_BENCH_SOURCE_DIR) +
                                    "/golden/" +
                                    (options.tiny ? "tiny" : "seed1") +
                                    ".digests";
    Golden golden;
    if (options.seed == 1)
        golden = readGolden(golden_path);
    // A private work directory, so concurrent runs never share one.
    options.workDir += "/run." + std::to_string(::getpid());
    std::filesystem::create_directories(options.workDir);
    if (options.trace)
        std::filesystem::create_directories(options.traceDir);

    bool correct = true;
    for (const auto &workload : workloads) {
        const Outcome outcome =
            runWorkload(options, workload, golden[workload]);
        std::vector<Spec::Entry> shown = spec.endToEnd;
        if (options.trace) {
            shown.insert(shown.end(), spec.perLayer.begin(),
                         spec.perLayer.end());
            writeLayers(options, workload, outcome, spec);
        }
        printTable(workload, options, outcome, shown);
        const Json line = resultLine(
            workload, outcome,
            options.trace ? spec.perLayer : spec.endToEnd);
        correct = correct && line.at("correct").asBool();
        if (!options.outPath.empty()) {
            Json record = line;
            record.set("workload", Json(workload));
            record.set("seed", Json(options.seed));
            record.set("trace", Json(options.trace));
            std::ofstream(options.outPath, std::ios::app)
                << record.dump() << "\n";
        }
        if (options.regenGolden)
            golden[workload] = outcome.digests;
        std::cout << line.dump() << std::endl;
    }
    if (options.regenGolden)
        writeGolden(golden_path, golden);
    std::filesystem::remove_all(options.workDir);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const double main_entry = steadyNow();
    const Options options = parseArgs(argc, argv);
    if (!options.compare.empty()) {
        return compareRuns(kSpecPath, options.compare[0],
                           options.compare[1]);
    }
    if (!options.child.empty()) {
        PassOptions pass;
        pass.workload = options.child;
        pass.context = {options.seed, options.tiny, options.workDir};
        pass.traced = options.trace;
        pass.traceDir = options.traceDir;
        return runPass(pass, main_entry);
    }
    return runParent(options);
}
