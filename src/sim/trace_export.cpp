#include "sim/trace_export.hpp"

#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace rap::sim {

namespace {

/** Minimal JSON string escaping (names are ASCII identifiers). */
std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          default: out += c;
        }
    }
    return out;
}

} // namespace

std::string
toChromeTraceJson(const Cluster &cluster, const obs::MetricRegistry *spans)
{
    std::ostringstream oss;
    oss << "{\"traceEvents\":[";
    bool first = true;
    auto emit = [&](const std::string &event) {
        if (!first)
            oss << ",";
        first = false;
        oss << "\n" << event;
    };

    for (int g = 0; g < cluster.gpuCount(); ++g) {
        const auto &trace = cluster.device(g).trace();
        const int pid = g;

        // Process metadata: one "process" per GPU, named after the
        // physical ordinal so subset-cluster traces (fleet jobs) show
        // which GPUs of the node the job co-ran on.
        {
            std::ostringstream e;
            e << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":"
              << pid << ",\"args\":{\"name\":\"GPU "
              << cluster.globalGpuId(g) << "\"}}";
            emit(e.str());
        }

        // Kernel events: one thread track per stream.
        std::map<std::string, int> stream_tids;
        for (const auto &record : trace.kernels()) {
            auto [it, inserted] = stream_tids.try_emplace(
                record.stream,
                static_cast<int>(stream_tids.size()) + 1);
            if (inserted) {
                std::ostringstream m;
                m << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":"
                  << pid << ",\"tid\":" << it->second
                  << ",\"args\":{\"name\":\""
                  << escape(record.stream) << "\"}}";
                emit(m.str());
            }
            std::ostringstream e;
            e << "{\"name\":\"" << escape(record.name)
              << "\",\"ph\":\"X\",\"pid\":" << pid
              << ",\"tid\":" << it->second
              << ",\"ts\":" << record.start * 1e6
              << ",\"dur\":" << record.duration() * 1e6
              << ",\"args\":{\"exclusive_us\":"
              << record.exclusiveLatency * 1e6
              << ",\"stretch_us\":" << record.stretch() * 1e6 << "}}";
            emit(e.str());
        }

        for (const auto &segment : trace.segments()) {
            std::ostringstream e;
            e << "{\"name\":\"utilisation\",\"ph\":\"C\",\"pid\":"
              << pid << ",\"ts\":" << segment.begin * 1e6
              << ",\"args\":{\"sm\":" << segment.smUsage
              << ",\"bw\":" << segment.bwUsage << "}}";
            emit(e.str());
        }
    }

    if (spans != nullptr) {
        // Sim-time spans land on their GPU's process (track 0, which
        // stream tracks never use) or on a run-wide process; planner
        // wall-clock spans get their own host process past the GPUs.
        const int run_pid = cluster.gpuCount();
        const int planner_pid = cluster.gpuCount() + 1;
        std::set<std::pair<int, int>> named_tracks;
        auto nameTrack = [&](int pid, int tid, const std::string &name) {
            if (!named_tracks.insert({pid, tid}).second)
                return;
            std::ostringstream m;
            m << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":"
              << pid << ",\"tid\":" << tid << ",\"args\":{\"name\":\""
              << escape(name) << "\"}}";
            emit(m.str());
        };
        auto nameProcess = [&](int pid, const std::string &name) {
            std::ostringstream m;
            m << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":"
              << pid << ",\"args\":{\"name\":\"" << escape(name)
              << "\"}}";
            emit(m.str());
        };
        bool run_named = false;
        bool planner_named = false;

        for (const auto &record : spans->spanRecords()) {
            const std::string title =
                record.name + record.labels.render();
            if (record.hasSim) {
                int pid = run_pid;
                for (const auto &[key, value] : record.labels.pairs()) {
                    if (key != "gpu")
                        continue;
                    for (int g = 0; g < cluster.gpuCount(); ++g) {
                        if (value ==
                            std::to_string(cluster.globalGpuId(g))) {
                            pid = g;
                            break;
                        }
                    }
                }
                if (pid == run_pid && !run_named) {
                    nameProcess(run_pid, "run");
                    run_named = true;
                }
                nameTrack(pid, 0, "phases");
                std::ostringstream e;
                e << "{\"name\":\"" << escape(title)
                  << "\",\"ph\":\"X\",\"pid\":" << pid
                  << ",\"tid\":0,\"ts\":" << record.simBegin * 1e6
                  << ",\"dur\":"
                  << (record.simEnd - record.simBegin) * 1e6 << "}";
                emit(e.str());
            } else if (record.hasWall) {
                if (!planner_named) {
                    nameProcess(planner_pid, "planner (host)");
                    planner_named = true;
                }
                const int tid = record.depth + 1;
                nameTrack(planner_pid, tid,
                          "depth " + std::to_string(record.depth));
                std::ostringstream e;
                e << "{\"name\":\"" << escape(title)
                  << "\",\"ph\":\"X\",\"pid\":" << planner_pid
                  << ",\"tid\":" << tid
                  << ",\"ts\":" << record.wallBegin * 1e6 << ",\"dur\":"
                  << (record.wallEnd - record.wallBegin) * 1e6 << "}";
                emit(e.str());
            }
        }
    }

    oss << "\n],\"displayTimeUnit\":\"ms\"}";
    return oss.str();
}

void
writeChromeTrace(const Cluster &cluster, const std::string &path,
                 const obs::MetricRegistry *spans)
{
    std::ofstream out(path);
    if (!out)
        RAP_FATAL("cannot open trace output file: ", path);
    out << toChromeTraceJson(cluster, spans);
    if (!out)
        RAP_FATAL("failed writing trace output file: ", path);
}

} // namespace rap::sim
