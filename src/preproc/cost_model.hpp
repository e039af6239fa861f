/**
 * @file
 * Analytic cost models for preprocessing kernels.
 *
 * For each operator type the model maps an OpShape to:
 *  - a GPU KernelProfile (flops, bytes, warps) that the simulator turns
 *    into an exclusive latency and a resource demand;
 *  - a CPU cost (core-seconds) used by the TorchArrow baseline;
 *  - the host-side data-preparation cost and H2D transfer volume that
 *    precede the kernel (motivating inter-batch interleaving, §6.3).
 *
 * The constants are calibrated so that relative magnitudes match the
 * paper's observations: element-wise operators are tiny and
 * launch-overhead dominated, feature-generation operators (Ngram) are
 * orders of magnitude heavier (§2.3, Fig. 1b).
 */

#ifndef RAP_PREPROC_COST_MODEL_HPP
#define RAP_PREPROC_COST_MODEL_HPP

#include "common/units.hpp"
#include "data/schema.hpp"
#include "preproc/graph.hpp"
#include "preproc/op_params.hpp"
#include "preproc/op_types.hpp"
#include "sim/kernel.hpp"

namespace rap::preproc {

/** @return GPU work profile of a (fused) kernel of @p type and @p shape. */
sim::KernelProfile opKernelProfile(OpType type, const OpShape &shape);

/**
 * @return A fully-characterised simulator kernel for the given fused
 *         operator under @p spec; the name encodes type and width.
 */
sim::KernelDesc makeOpKernel(OpType type, const OpShape &shape,
                             const sim::GpuSpec &spec);

/** @return CPU core-seconds to execute the operator on the host. */
Seconds opCpuSeconds(OpType type, const OpShape &shape);

/**
 * @return CPU core-seconds under an optimised native backend
 *         (GoldMiner-class compiled pipelines rather than an eager
 *         DataFrame library); used by the hybrid GPU+CPU extension.
 */
Seconds opCpuSecondsOptimized(OpType type, const OpShape &shape);

/** @return Host-side data-preparation CPU time preceding the kernel. */
Seconds opPrepCpuSeconds(OpType type, const OpShape &shape);

/** @return Bytes staged host-to-device before the kernel can run. */
Bytes opInputBytes(OpType type, const OpShape &shape);

/** @return Bytes produced by the kernel (consumed by training). */
Bytes opOutputBytes(OpType type, const OpShape &shape);

/**
 * @return The operator's performance-related parameter extracted from
 *         @p params (n, X, bins, borders), or 0 for 1D ops; this is the
 *         OpShape::param the predictor trains on.
 */
double opPerfParam(OpType type, const OpParams &params);

/**
 * Derive the kernel workload shape of a single (unfused) node: width 1,
 * the batch row count, the primary input feature's mean list length
 * (from the schema) and the operator's performance parameter. The
 * node's input columns must lie in @p schema (PreprocGraph::validate).
 */
OpShape nodeShape(const OpNode &node, const data::Schema &schema,
                  std::int64_t rows);

/**
 * Total standalone GPU latency of @p graph at the given batch size if
 * each node ran as its own kernel under @p spec (no fusion, no launch
 * overhead). Useful as a workload-size metric.
 */
Seconds graphExclusiveLatency(const PreprocGraph &graph,
                              std::int64_t rows,
                              const sim::GpuSpec &spec);

} // namespace rap::preproc

#endif // RAP_PREPROC_COST_MODEL_HPP
