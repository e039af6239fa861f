#include "obs/snapshot.hpp"

#include <algorithm>
#include <map>

namespace rap::obs {

namespace {

Json
labelsJson(const Labels &labels)
{
    Json out = Json::object();
    for (const auto &[key, value] : labels.pairs())
        out.set(key, Json(value));
    return out;
}

/** Aggregate of all occurrences of one (name, labels) span. */
struct SpanAggregate
{
    std::uint64_t count = 0;
    int maxDepth = 0;
    double simSeconds = 0.0;
    bool hasSim = false;
};

} // namespace

Json
snapshotJson(const MetricRegistry &registry)
{
    Json doc = Json::object();
    doc.set("schema", Json("rap.metrics.v1"));

    Json counters = Json::array();
    for (const auto &[key, counter] : registry.counters()) {
        Json entry = Json::object();
        entry.set("name", Json(key.first));
        entry.set("labels", labelsJson(key.second));
        entry.set("value", Json(counter->value()));
        counters.push(std::move(entry));
    }
    doc.set("counters", std::move(counters));

    Json gauges = Json::array();
    for (const auto &[key, gauge] : registry.gauges()) {
        Json entry = Json::object();
        entry.set("name", Json(key.first));
        entry.set("labels", labelsJson(key.second));
        entry.set("value", Json(gauge->value()));
        gauges.push(std::move(entry));
    }
    doc.set("gauges", std::move(gauges));

    Json histograms = Json::array();
    for (const auto &[key, histogram] : registry.histograms()) {
        Json entry = Json::object();
        entry.set("name", Json(key.first));
        entry.set("labels", labelsJson(key.second));
        Json edges = Json::array();
        for (double edge : histogram->edges())
            edges.push(Json(edge));
        entry.set("edges", std::move(edges));
        Json counts = Json::array();
        for (std::uint64_t c : histogram->bucketCounts())
            counts.push(Json(c));
        entry.set("counts", std::move(counts));
        entry.set("count", Json(histogram->count()));
        entry.set("sum", Json(histogram->sum()));
        histograms.push(std::move(entry));
    }
    doc.set("histograms", std::move(histograms));

    Json series = Json::array();
    for (const auto &[key, entry_series] : registry.seriesEntries()) {
        Json entry = Json::object();
        entry.set("name", Json(key.first));
        entry.set("labels", labelsJson(key.second));
        Json points = Json::array();
        for (const auto &[x, y] : entry_series->points()) {
            Json point = Json::array();
            point.push(Json(x));
            point.push(Json(y));
            points.push(std::move(point));
        }
        entry.set("points", std::move(points));
        series.push(std::move(entry));
    }
    doc.set("series", std::move(series));

    // Spans aggregate per (name, labels): counts, max depth and summed
    // sim duration all commute, so the result is independent of which
    // worker recorded which occurrence first.
    std::map<MetricRegistry::Key, SpanAggregate> aggregates;
    for (const SpanRecord &record : registry.spanRecords()) {
        SpanAggregate &agg = aggregates[{record.name, record.labels}];
        ++agg.count;
        agg.maxDepth = std::max(agg.maxDepth, record.depth);
        if (record.hasSim) {
            agg.hasSim = true;
            agg.simSeconds += record.simEnd - record.simBegin;
        }
    }
    Json spans = Json::array();
    for (const auto &[key, agg] : aggregates) {
        Json entry = Json::object();
        entry.set("name", Json(key.first));
        entry.set("labels", labelsJson(key.second));
        entry.set("count", Json(agg.count));
        entry.set("maxDepth", Json(static_cast<std::int64_t>(
                                  agg.maxDepth)));
        entry.set("simSeconds",
                  agg.hasSim ? Json(agg.simSeconds) : Json());
        spans.push(std::move(entry));
    }
    doc.set("spans", std::move(spans));

    return doc;
}

void
writeSnapshot(const MetricRegistry &registry, const std::string &path)
{
    writeJsonFile(snapshotJson(registry), path);
}

} // namespace rap::obs
