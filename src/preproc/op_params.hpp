/**
 * @file
 * Operator parameters and kernel shapes.
 *
 * OpParams carries the parameters of one operator instance that its
 * cost depends on (n-gram length, kept prefix, bins, borders). OpShape describes the
 * *workload* of a (possibly horizontally fused) kernel instance: batch
 * rows, the number of features fused into the kernel, the mean id-list
 * length, and the operator's performance-related parameter. The cost
 * model and the latency predictor consume OpShape.
 */

#ifndef RAP_PREPROC_OP_PARAMS_HPP
#define RAP_PREPROC_OP_PARAMS_HPP

#include <cstdint>

#include "preproc/op_types.hpp"

namespace rap::preproc {

/** Cost-relevant parameters of one operator instance (opPerfParam). */
struct OpParams
{
    /** FirstX: number of leading ids to keep. */
    int firstX = 8;
    /** Ngram: window length n. */
    int ngramN = 2;
    /** Onehot: number of bins. */
    int onehotBins = 16;
    /** Bucketize: number of borders. */
    int bucketBorders = 16;
};

/** Workload shape of one (fused) kernel instance. */
struct OpShape
{
    /** Rows in the batch. */
    std::int64_t rows = 4096;
    /** Number of features fused horizontally into this kernel. */
    int width = 1;
    /** Mean id-list length (sparse inputs; 1.0 for dense). */
    double avgListLength = 1.0;
    /**
     * Operator performance parameter: n for Ngram, X for FirstX, bins
     * for Onehot, borders for Bucketize; unused (0) for 1D ops.
     */
    double param = 0.0;

    /** @return Total input elements touched by the kernel. */
    double
    elements() const
    {
        return static_cast<double>(rows) * width * avgListLength;
    }
};

} // namespace rap::preproc

#endif // RAP_PREPROC_OP_PARAMS_HPP
