#include "preproc/cost_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"

namespace rap::preproc {

namespace {

/** Effective elements for FirstX: only the kept prefix is written. */
double
firstXElements(const OpShape &shape)
{
    const double kept = std::min(shape.avgListLength,
                                 std::max(shape.param, 1.0));
    return static_cast<double>(shape.rows) * shape.width * kept;
}

/** N-gram windows enumerated by the kernel (one per list position). */
double
ngramCombos(const OpShape &shape)
{
    return static_cast<double>(shape.rows) * shape.width *
           std::max(shape.avgListLength, 1.0);
}

} // namespace

sim::KernelProfile
opKernelProfile(OpType type, const OpShape &shape)
{
    RAP_ASSERT(shape.rows > 0 && shape.width > 0,
               "op shape needs positive rows/width");
    const double rows_width =
        static_cast<double>(shape.rows) * shape.width;
    const double el = shape.elements();

    sim::KernelProfile p;
    // One thread per input element (per id for sparse lists).
    p.warps = el / 32.0;

    switch (type) {
      case OpType::FillNull:
        p.flops = 2.0 * el;
        p.bytes = 9.0 * el;
        break;
      case OpType::Cast:
        p.flops = 2.0 * el;
        p.bytes = 8.0 * el;
        break;
      case OpType::Logit:
        p.flops = 25.0 * el;
        p.bytes = 8.0 * el;
        break;
      case OpType::BoxCox:
        p.flops = 30.0 * el;
        p.bytes = 8.0 * el;
        break;
      case OpType::Onehot: {
        const double bins = std::max(shape.param, 2.0);
        p.flops = (4.0 + bins) * rows_width;
        p.bytes = rows_width * (4.0 + 4.0 * bins);
        break;
      }
      case OpType::Bucketize: {
        const double borders = std::max(shape.param, 2.0);
        p.flops = 3.0 * std::log2(borders) * rows_width;
        p.bytes = 8.0 * rows_width + 4.0 * borders;
        break;
      }
      case OpType::SigridHash:
        p.flops = 12.0 * el;
        p.bytes = 16.0 * el;
        break;
      case OpType::FirstX:
        p.flops = 1.0 * firstXElements(shape);
        p.bytes = 8.0 * el + 8.0 * firstXElements(shape);
        break;
      case OpType::Clamp:
        p.flops = 2.0 * el;
        p.bytes = 16.0 * el;
        break;
      case OpType::MapId:
        p.flops = 4.0 * el;
        p.bytes = 16.0 * el;
        break;
      case OpType::Ngram: {
        // One thread per window; each window hashes n ids.
        const double combos = ngramCombos(shape);
        const double n = std::max(shape.param, 1.0);
        p.flops = 15.0 * n * combos;
        p.bytes = 16.0 * el + 8.0 * combos * n;
        p.warps = combos / 32.0;
        break;
      }
    }
    return p;
}

sim::KernelDesc
makeOpKernel(OpType type, const OpShape &shape, const sim::GpuSpec &spec)
{
    auto profile = opKernelProfile(type, shape);
    const std::string name = opTypeName(type) + "_x" +
                             std::to_string(shape.width);
    auto desc = sim::KernelDesc::fromProfile(name, profile, spec);
    // Short, irregular preprocessing kernels never reach the streaming
    // efficiency the peak-rate model assumes; floor their latency at a
    // measured small-kernel cost and rescale the achieved bandwidth.
    constexpr Seconds kPreprocKernelFloor = 6e-6;
    if (desc.exclusiveLatency < kPreprocKernelFloor) {
        desc.exclusiveLatency = kPreprocKernelFloor;
        desc.demand.bw = std::clamp(profile.bytes /
                                        desc.exclusiveLatency /
                                        spec.dramBandwidth,
                                    0.0, 1.0);
    }
    return desc;
}

Seconds
opCpuSeconds(OpType type, const OpShape &shape)
{
    // Single-core host throughput (elements/s) of an eager CPython
    // DataFrame pipeline — orders of magnitude below the hardware's
    // streaming rate, which is precisely why industrial deployments
    // need hundreds of preprocessing nodes (§1). Feature generation is
    // markedly slower still.
    constexpr double k1dRate = 4e6;
    constexpr double kHashRate = 2e6;
    constexpr double kNgramRate = 2e6;
    constexpr Seconds kDispatch = 100e-6; // per-operator dispatch cost

    switch (type) {
      case OpType::Ngram:
        return kDispatch + ngramCombos(shape) *
                               std::max(shape.param, 1.0) / kNgramRate;
      case OpType::SigridHash:
      case OpType::MapId:
        return kDispatch + shape.elements() / kHashRate;
      case OpType::Onehot:
        return kDispatch + shape.elements() *
                               std::max(shape.param, 2.0) / k1dRate;
      case OpType::Bucketize:
        return kDispatch + shape.elements() *
                               std::log2(std::max(shape.param, 2.0)) /
                               k1dRate;
      default:
        return kDispatch + shape.elements() / k1dRate;
    }
}

Seconds
opCpuSecondsOptimized(OpType type, const OpShape &shape)
{
    // Compiled, vectorised single-core rates (no interpreter
    // dispatch): roughly memory-bandwidth-bound per core.
    constexpr double k1dRate = 2e8;
    constexpr double kHashRate = 1e8;
    constexpr double kNgramRate = 5e7;
    constexpr Seconds kDispatch = 2e-6;

    switch (type) {
      case OpType::Ngram:
        return kDispatch + ngramCombos(shape) *
                               std::max(shape.param, 1.0) / kNgramRate;
      case OpType::SigridHash:
      case OpType::MapId:
        return kDispatch + shape.elements() / kHashRate;
      case OpType::Onehot:
        return kDispatch + shape.elements() *
                               std::max(shape.param, 2.0) / k1dRate;
      case OpType::Bucketize:
        return kDispatch + shape.elements() *
                               std::log2(std::max(shape.param, 2.0)) /
                               k1dRate;
      default:
        return kDispatch + shape.elements() / k1dRate;
    }
}

Seconds
opPrepCpuSeconds(OpType type, const OpShape &shape)
{
    // Device-side output allocation (cached allocator) plus kernel
    // argument assembly; grows mildly with fused width. The raw-column
    // H2D staging is charged separately, once per feature, by the
    // pipeline (see GraphMapper::featureRawBytes).
    constexpr Seconds kFixed = 3e-6;
    constexpr Seconds kPerMember = 0.3e-6;
    return kFixed + kPerMember * shape.width;
}

Bytes
opInputBytes(OpType type, const OpShape &shape)
{
    if (isDenseOp(type))
        return 5.0 * shape.elements(); // fp32 + validity byte
    return 8.0 * shape.elements() +
           8.0 * static_cast<double>(shape.rows) * shape.width;
}

Bytes
opOutputBytes(OpType type, const OpShape &shape)
{
    switch (type) {
      case OpType::FirstX:
        return 8.0 * firstXElements(shape);
      case OpType::Ngram:
        return 8.0 * ngramCombos(shape);
      case OpType::Onehot:
      case OpType::Bucketize:
        return 4.0 * static_cast<double>(shape.rows) * shape.width;
      default:
        return opInputBytes(type, shape);
    }
}

double
opPerfParam(OpType type, const OpParams &params)
{
    switch (type) {
      case OpType::Ngram: return params.ngramN;
      case OpType::FirstX: return params.firstX;
      case OpType::Onehot: return params.onehotBins;
      case OpType::Bucketize: return params.bucketBorders;
      default: return 0.0;
    }
}

OpShape
nodeShape(const OpNode &node, const data::Schema &schema,
          std::int64_t rows)
{
    OpShape shape;
    shape.rows = rows;
    shape.width = 1;
    shape.param = opPerfParam(node.type, node.params);
    shape.avgListLength = 1.0;
    RAP_ASSERT(!node.inputs.empty(), "node ", node.id, " has no inputs");
    const auto &primary = node.inputs.front();
    if (primary.kind == data::FeatureKind::Sparse) {
        RAP_ASSERT(primary.index < schema.sparseCount(), "node ", node.id,
                   " reads sparse column ", primary.index, " of ",
                   schema.sparseCount());
        shape.avgListLength = schema.sparse(primary.index).avgListLength;
        // Ngram reads all of its inputs.
        if (node.type == OpType::Ngram)
            shape.avgListLength *=
                static_cast<double>(node.inputs.size());
    }
    return shape;
}

Seconds
graphExclusiveLatency(const PreprocGraph &graph, std::int64_t rows,
                      const sim::GpuSpec &spec)
{
    Seconds total = 0.0;
    for (const auto &node : graph.nodes()) {
        const auto shape = nodeShape(node, graph.schema(), rows);
        total += makeOpKernel(node.type, shape, spec).exclusiveLatency;
    }
    return total;
}

} // namespace rap::preproc
