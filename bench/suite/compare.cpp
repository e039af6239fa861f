#include "compare.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <vector>

#include "suite.hpp"

namespace rapbench {

namespace {

/** Values by workload, then metric, one per recorded run. */
using Runs =
    std::map<std::string, std::map<std::string, std::vector<double>>>;

Runs
readRuns(const std::string &path)
{
    Runs runs;
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "rap_bench: cannot read %s\n", path.c_str());
        std::exit(2);
    }
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        const Json record = Json::parse(line);
        if (!record.isObject() || record.at("trace").asBool())
            continue;
        auto &by_metric = runs[record.at("workload").asString()];
        const Metrics metrics = metricsFromJson(record.at("metrics"));
        for (const auto &[name, metric] : metrics)
            by_metric[name].push_back(metric.value);
    }
    return runs;
}

/**
 * The verdict on one (workload, metric). Unresolved when either side's
 * quartile spread is wider than the bound, unless every change run
 * beats every base run; worse when the median moved the wrong way by
 * more than the bound; better when the change's quartile range clears
 * the base's on the good side by more than the base's own spread.
 */
std::string
verdict(bool lower_is_better, double bound, const std::vector<double> &base,
        const std::vector<double> &change)
{
    const double base_med = median(base);
    const double change_med = median(change);
    const auto [base_q1, base_q3] = quartiles(base);
    const auto [change_q1, change_q3] = quartiles(change);
    const double scale = std::abs(base_med);
    const double sign = lower_is_better ? 1.0 : -1.0;
    const double worse_by = sign * (change_med - base_med) / scale;
    const double base_spread = (base_q3 - base_q1) / scale;
    const double change_spread = (change_q3 - change_q1) / scale;
    const auto [base_min, base_max] =
        std::minmax_element(base.begin(), base.end());
    const auto [change_min, change_max] =
        std::minmax_element(change.begin(), change.end());
    const bool all_better = lower_is_better ? *change_max < *base_min
                                            : *change_min > *base_max;
    if (std::max(base_spread, change_spread) > bound)
        return all_better ? "better" : "unresolved";
    if (worse_by > bound)
        return "worse";
    const bool clear = lower_is_better ? change_q3 < base_q1
                                       : change_q1 > base_q3;
    if (clear && -worse_by > base_spread)
        return "better";
    return "unchanged";
}

} // namespace

int
compareRuns(const std::string &spec_path, const std::string &base_path,
            const std::string &change_path)
{
    const Json spec = rap::readJsonFile(spec_path);
    const Runs base = readRuns(base_path);
    const Runs change = readRuns(change_path);
    std::printf("%-13s %-14s %5s %-38s %-38s %8s  %s\n", "workload",
                "metric", "bound", "base median [q1, q3]",
                "change median [q1, q3]", "delta", "verdict");
    bool any_worse = false;
    for (const auto &w : spec.at("workloads").elements()) {
        const std::string workload = w.at("name").asString();
        for (const auto &m : spec.at("end_to_end").elements()) {
            const std::string name = m.at("name").asString();
            const auto b = base.find(workload);
            const auto c = change.find(workload);
            if (b == base.end() || c == change.end() ||
                b->second.count(name) == 0 || c->second.count(name) == 0)
                continue;
            const auto &bv = b->second.at(name);
            const auto &cv = c->second.at(name);
            const double bound = m.at("bound").asDouble();
            const std::string v =
                verdict(m.at("better").asString() == "lower", bound, bv, cv);
            any_worse = any_worse || v == "worse";
            const auto [bq1, bq3] = quartiles(bv);
            const auto [cq1, cq3] = quartiles(cv);
            char base_text[64], change_text[64];
            std::snprintf(base_text, sizeof(base_text), "%.5g [%.5g, %.5g]",
                          median(bv), bq1, bq3);
            std::snprintf(change_text, sizeof(change_text),
                          "%.5g [%.5g, %.5g]", median(cv), cq1, cq3);
            std::printf("%-13s %-14s %5.2f %-38s %-38s %+7.2f%%  %s\n",
                        workload.c_str(), name.c_str(), bound, base_text,
                        change_text,
                        (median(cv) / median(bv) - 1.0) * 100.0,
                        v.c_str());
        }
    }
    return any_worse ? 1 : 0;
}

} // namespace rapbench
