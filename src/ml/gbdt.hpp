/**
 * @file
 * Gradient-boosted decision trees for regression (squared loss).
 *
 * A from-scratch stand-in for XGBoost, which the paper uses as its
 * preprocessing-latency predictor (§5.2). Squared loss makes each
 * boosting round a tree fit to the current residuals with shrinkage.
 */

#ifndef RAP_ML_GBDT_HPP
#define RAP_ML_GBDT_HPP

#include <cstdint>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/tree.hpp"

namespace rap::ml {

/** Boosting hyper-parameters. */
struct GbdtParams
{
    int trees = 120;
    double learningRate = 0.12;
    TreeParams tree;
    /** Row subsample fraction per round (1.0 = none). */
    double subsample = 0.85;
    std::uint64_t seed = 17;
};

/**
 * Gradient-boosted regression model.
 */
class Gbdt
{
  public:
    explicit Gbdt(GbdtParams params = {});

    /** Fit on @p train (targets as-is; callers may pre-transform). */
    void fit(const MlDataset &train);

    /** @return Prediction for one feature row. */
    double predict(const std::vector<double> &row) const;

    /** @return Predictions for every row of @p data. */
    std::vector<double> predictAll(const MlDataset &data) const;

  private:
    GbdtParams params_;
    double bias_ = 0.0;
    std::vector<RegressionTree> trees_;
    bool fitted_ = false;
};

} // namespace rap::ml

#endif // RAP_ML_GBDT_HPP
