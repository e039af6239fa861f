/**
 * @file
 * The MetricRegistry exporter: the deterministic JSON snapshot (the
 * `--metrics` artifact CI diffs and schema-checks).
 *
 * Snapshot schema ("rap.metrics.v1", mirrored in
 * schemas/metrics.schema.json and enforced by tools/validate_metrics):
 *
 *   {"schema": "rap.metrics.v1",
 *    "counters":   [{"name", "labels", "value"}...],
 *    "gauges":     [{"name", "labels", "value"}...],
 *    "histograms": [{"name", "labels", "edges", "counts",
 *                    "count", "sum"}...],
 *    "series":     [{"name", "labels", "points": [[x, y]...]}...],
 *    "spans":      [{"name", "labels", "count", "maxDepth",
 *                    "simSeconds"}...]}
 *
 * Entries are ordered by (name, rendered labels); spans are aggregated
 * per (name, labels). Wall-clock durations are never emitted: the
 * snapshot contains only simulation-derived and count-derived values,
 * which is what makes `--jobs 1` and `--jobs 4` runs byte-identical.
 */

#ifndef RAP_OBS_SNAPSHOT_HPP
#define RAP_OBS_SNAPSHOT_HPP

#include <string>

#include "common/json.hpp"
#include "obs/metrics.hpp"

namespace rap::obs {

/** @return The snapshot as a Json document (schema above). */
Json snapshotJson(const MetricRegistry &registry);

/** Write the snapshot to @p path; fatal on I/O failure. */
void writeSnapshot(const MetricRegistry &registry,
                   const std::string &path);

} // namespace rap::obs

#endif // RAP_OBS_SNAPSHOT_HPP
