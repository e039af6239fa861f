/**
 * @file
 * The ML-based preprocessing-latency predictor (paper §5.2, Table 5).
 *
 * Offline, RAP samples preprocessing kernels under varying
 * configurations, measures their standalone execution latency, and
 * trains one gradient-boosted-tree model per operator category:
 * Ngram, Onehot, Bucketize and FirstX (each with a unique
 * performance-related parameter) plus a shared "1D Ops" model for all
 * shape-determined operators. Online, the predictor replaces hardware
 * profiling when the scheduler evaluates candidate co-running plans.
 *
 * Measurement here means running the kernel cost model with
 * multiplicative measurement noise, standing in for real-hardware
 * timing jitter; models are trained on log-latency.
 */

#ifndef RAP_CORE_LATENCY_PREDICTOR_HPP
#define RAP_CORE_LATENCY_PREDICTOR_HPP

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "ml/gbdt.hpp"
#include "ml/metrics.hpp"
#include "preproc/cost_model.hpp"
#include "sim/gpu_spec.hpp"

namespace rap::core {

/** Per-category evaluation of the trained predictor (Table 5). */
struct PredictorReport
{
    struct Category
    {
        std::string name;
        std::size_t trainSamples = 0;
        std::size_t evalSamples = 0;
        /** Fraction of eval samples predicted within 10%. */
        double within10 = 0.0;
        double mae = 0.0;
    };
    std::array<Category, preproc::kPredictorCategoryCount> categories;
};

/** Offline-training knobs. */
struct PredictorTrainOptions
{
    /** Total kernels sampled across all categories (paper: ~11K). */
    std::size_t totalSamples = 11'000;
    std::uint64_t seed = 2024;
};

/**
 * Per-category GBDT latency models with an offline training pipeline.
 */
class LatencyPredictor
{
  public:
    /**
     * Run the offline phase: sample kernel configurations, measure
     * latencies under @p spec, train and evaluate the five models.
     */
    static LatencyPredictor trainOffline(
        const sim::GpuSpec &spec, PredictorTrainOptions options = {});

    /**
     * Predict the standalone execution latency of a (fused) kernel of
     * @p type and @p shape.
     */
    Seconds predict(preproc::OpType type,
                    const preproc::OpShape &shape) const;

    /** @return The offline evaluation report (Table 5 numbers). */
    const PredictorReport &report() const { return report_; }

    /** @return True once models are trained. */
    bool trained() const { return trained_; }

    /**
     * Ground-truth measurement: the cost model's exclusive latency
     * under the training spec (no noise). Exposed for evaluation.
     */
    Seconds measure(preproc::OpType type,
                    const preproc::OpShape &shape) const;

  private:
    static std::vector<double> featurize(preproc::OpType type,
                                         const preproc::OpShape &shape);

    sim::GpuSpec spec_;
    std::array<ml::Gbdt, preproc::kPredictorCategoryCount> models_;
    PredictorReport report_;
    bool trained_ = false;
};

} // namespace rap::core

#endif // RAP_CORE_LATENCY_PREDICTOR_HPP
