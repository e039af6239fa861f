/**
 * @file
 * Chrome-tracing (about://tracing / Perfetto) export of simulation
 * traces: every kernel becomes a complete event on its stream's track,
 * grouped per GPU, with SM / DRAM-bandwidth counter tracks.
 */

#ifndef RAP_SIM_TRACE_EXPORT_HPP
#define RAP_SIM_TRACE_EXPORT_HPP

#include <string>

#include "sim/cluster.hpp"

namespace rap::obs {
class MetricRegistry;
}

namespace rap::sim {

/**
 * Render the cluster's recorded traces as a Chrome trace-event JSON
 * document (the "traceEvents" array format). Timestamps are emitted
 * in microseconds as the format requires.
 *
 * @param spans When non-null, also render the spans recorded in this
 *        registry: sim-time spans appear on their GPU's process (a
 *        dedicated "phases" track, or the run-wide process when the
 *        span has no `gpu` label), and wall-clock spans (planner
 *        phases) on an extra "planner (host)" process past the GPUs.
 */
std::string toChromeTraceJson(const Cluster &cluster,
                              const obs::MetricRegistry *spans = nullptr);

/** Convenience: write the JSON to @p path; fatal on I/O failure. */
void writeChromeTrace(const Cluster &cluster, const std::string &path,
                      const obs::MetricRegistry *spans = nullptr);

} // namespace rap::sim

#endif // RAP_SIM_TRACE_EXPORT_HPP
