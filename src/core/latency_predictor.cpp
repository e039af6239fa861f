#include "core/latency_predictor.hpp"

#include <cmath>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "ml/dataset.hpp"

namespace rap::core {

namespace {

using preproc::OpType;
using preproc::PredictorCategory;

/** Multiplicative log-normal measurement noise (sigma). */
constexpr double kMeasurementNoise = 0.035;
/** Train fraction of the 9:1 split. */
constexpr double kTrainFraction = 0.9;

/** Representative op types per predictor category for sampling. */
std::vector<OpType>
categoryOps(PredictorCategory cat)
{
    switch (cat) {
      case PredictorCategory::OneDimensional:
        return {OpType::FillNull, OpType::Cast, OpType::Logit,
                OpType::BoxCox, OpType::SigridHash, OpType::Clamp,
                OpType::MapId};
      case PredictorCategory::FirstX: return {OpType::FirstX};
      case PredictorCategory::Ngram: return {OpType::Ngram};
      case PredictorCategory::Onehot: return {OpType::Onehot};
      case PredictorCategory::Bucketize: return {OpType::Bucketize};
    }
    RAP_PANIC("unknown predictor category");
}

/** Draw a random kernel configuration for sampling. */
preproc::OpShape
sampleShape(PredictorCategory cat, Rng &rng)
{
    preproc::OpShape shape;
    shape.rows = 1 << rng.uniformInt(9, 14);              // 512..16384
    shape.width = static_cast<int>(rng.uniformInt(1, 128));
    shape.avgListLength = rng.uniform(1.0, 12.0);
    switch (cat) {
      case PredictorCategory::Ngram:
        shape.param = static_cast<double>(rng.uniformInt(1, 4));
        break;
      case PredictorCategory::FirstX:
        shape.param = static_cast<double>(rng.uniformInt(1, 16));
        break;
      case PredictorCategory::Onehot:
      case PredictorCategory::Bucketize:
        shape.param = static_cast<double>(rng.uniformInt(2, 64));
        shape.avgListLength = 1.0;
        break;
      case PredictorCategory::OneDimensional:
        shape.param = 0.0;
        break;
    }
    return shape;
}

} // namespace

std::vector<double>
LatencyPredictor::featurize(preproc::OpType type,
                            const preproc::OpShape &shape)
{
    return {
        std::log2(static_cast<double>(shape.rows)),
        std::log2(static_cast<double>(shape.width)),
        shape.avgListLength,
        shape.param,
        static_cast<double>(static_cast<int>(type)),
        std::log2(std::max(shape.elements(), 1.0)),
    };
}

Seconds
LatencyPredictor::measure(preproc::OpType type,
                          const preproc::OpShape &shape) const
{
    return preproc::makeOpKernel(type, shape, spec_).exclusiveLatency;
}

LatencyPredictor
LatencyPredictor::trainOffline(const sim::GpuSpec &spec,
                               PredictorTrainOptions options)
{
    RAP_ASSERT(options.totalSamples >= 100,
               "predictor needs a reasonable sample count");
    LatencyPredictor predictor;
    predictor.spec_ = spec;

    Rng rng(options.seed);
    const std::size_t per_category =
        options.totalSamples / preproc::kPredictorCategoryCount;

    for (std::size_t c = 0; c < preproc::kPredictorCategoryCount; ++c) {
        const auto cat = static_cast<PredictorCategory>(c);
        const auto ops = categoryOps(cat);

        ml::MlDataset dataset;
        for (std::size_t s = 0; s < per_category; ++s) {
            const OpType type = ops[static_cast<std::size_t>(
                rng.uniformInt(0,
                               static_cast<std::int64_t>(ops.size()) -
                                   1))];
            const auto shape = sampleShape(cat, rng);
            const Seconds truth =
                preproc::makeOpKernel(type, shape, spec).exclusiveLatency;
            // "Measured" latency: truth with timing jitter.
            const Seconds measured =
                truth * std::exp(rng.normal(0.0, kMeasurementNoise));
            dataset.add(featurize(type, shape), std::log(measured));
        }

        auto [train, eval] = ml::trainEvalSplit(
            dataset, kTrainFraction, options.seed + c);

        ml::Gbdt model;
        model.fit(train);

        // Evaluate in linear space (the paper's 10%-gap criterion).
        std::vector<double> pred_lin, actual_lin;
        pred_lin.reserve(eval.size());
        actual_lin.reserve(eval.size());
        for (std::size_t i = 0; i < eval.size(); ++i) {
            pred_lin.push_back(std::exp(model.predict(eval.x[i])));
            actual_lin.push_back(std::exp(eval.y[i]));
        }

        auto &report = predictor.report_.categories[c];
        report.name = preproc::predictorCategoryName(cat);
        report.trainSamples = train.size();
        report.evalSamples = eval.size();
        report.within10 =
            ml::withinToleranceAccuracy(pred_lin, actual_lin, 0.10);
        report.mae = ml::meanAbsoluteError(pred_lin, actual_lin);

        predictor.models_[c] = std::move(model);
    }
    predictor.trained_ = true;
    return predictor;
}

Seconds
LatencyPredictor::predict(preproc::OpType type,
                          const preproc::OpShape &shape) const
{
    RAP_ASSERT(trained_, "latency predictor used before training");
    const auto cat = static_cast<std::size_t>(
        preproc::predictorCategory(type));
    const double log_latency = models_[cat].predict(
        featurize(type, shape));
    return std::exp(log_latency);
}

} // namespace rap::core
