/**
 * @file
 * The validated run API: RunRequest is a fluent builder over
 * SystemConfig whose run() validates before anything runs and exits
 * with structured errors (common/validation.hpp) instead of asserting
 * mid-run; validate() returns the same errors without exiting.
 *
 *   auto request = RunRequest(System::Rap)
 *                      .gpus(4)
 *                      .batchPerGpu(2048)
 *                      .iterations(10, 2)   // 10 total, 2 warmup
 *                      .metrics(&registry, "fig09.b2048");
 *   RunReport report = request.run(plan);   // fatal on invalid config
 *
 * Knobs without a setter (faults, gpuSubset, tracePath, …) are set
 * on config(). run() is the only way to run a system
 * (core/pipeline.cpp); it validates once, fault specs and the plan's
 * graph included, so a bad configuration or a hand-built graph whose
 * columns or feature ids leave its schema exits before planning.
 * planOffline validates the same way.
 */

#ifndef RAP_CORE_RUN_REQUEST_HPP
#define RAP_CORE_RUN_REQUEST_HPP

#include "core/pipeline.hpp"

namespace rap::core {

/** Fluent, validated builder for one system run. */
class RunRequest
{
  public:
    explicit RunRequest(System system) { config_.system = system; }

    /** Start from an existing configuration. */
    explicit RunRequest(SystemConfig config)
        : config_(std::move(config))
    {
    }

    RunRequest &
    gpus(int count)
    {
        config_.gpuCount = count;
        return *this;
    }

    RunRequest &
    batchPerGpu(std::int64_t rows)
    {
        config_.batchPerGpu = rows;
        return *this;
    }

    /** Total iterations and the warmup excluded from statistics. */
    RunRequest &
    iterations(int total, int warmup)
    {
        config_.iterations = total;
        config_.warmup = warmup;
        return *this;
    }

    /** Gate each iteration on a streaming ingestion front-end. */
    RunRequest &
    ingest(ingest::IngestConfig config)
    {
        config_.ingest = std::move(config);
        return *this;
    }

    /** Attach an observability registry and this run's scope label. */
    RunRequest &
    metrics(obs::MetricRegistry *registry, std::string scope = "")
    {
        config_.metrics = registry;
        config_.metricsScope = std::move(scope);
        return *this;
    }

    /** Direct access for knobs without a dedicated setter. */
    SystemConfig &config() { return config_; }
    const SystemConfig &config() const { return config_; }

    /** @return The validation outcome for the current configuration. */
    ValidationResult validate() const { return config_.validate(); }

    /**
     * Validate the configuration and @p plan's graph (errors under
     * "graph."), then execute the run over @p plan; fatal, with every
     * error rendered, when either is invalid.
     */
    RunReport run(const preproc::PreprocPlan &plan) const;

  private:
    SystemConfig config_;
};

} // namespace rap::core

#endif // RAP_CORE_RUN_REQUEST_HPP
