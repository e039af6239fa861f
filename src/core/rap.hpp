/**
 * @file
 * Umbrella header: the complete RAP public API.
 *
 * Include this to get the end-to-end pipeline plus every building
 * block (cost model, fusion, scheduling, mapping, codegen) and the
 * substrates they run on.
 */

#ifndef RAP_CORE_RAP_HPP
#define RAP_CORE_RAP_HPP

#include "core/capacity.hpp"
#include "core/codegen.hpp"
#include "core/corun_scheduler.hpp"
#include "core/cost_model.hpp"
#include "core/fusion.hpp"
#include "core/kernel_sharding.hpp"
#include "core/latency_predictor.hpp"
#include "core/mapping.hpp"
#include "core/pipeline.hpp"
#include "core/run_request.hpp"
#include "data/criteo.hpp"
#include "dlrm/trainer.hpp"
#include "preproc/cost_model.hpp"
#include "preproc/plan.hpp"
#include "sim/cluster.hpp"

#endif // RAP_CORE_RAP_HPP
