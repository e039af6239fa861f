#include "fleet/job.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/log.hpp"
#include "common/rng.hpp"

namespace rap::fleet {

namespace {

/** Largest GPU request a synthesised job may make (the node size). */
constexpr int kMaxGpusPerJob = 8;

/** Pick a GPU request in {1, 2, 4, 8}, skewed toward small jobs. */
int
drawGpuRequest(Rng &rng)
{
    // Weights over {1, 2, 4, 8}: most jobs are small, which is where
    // envelope-shared placement wins; the occasional full-node job
    // keeps the queue honest.
    static constexpr int kSizes[] = {1, 2, 4, 8};
    static constexpr double kWeights[] = {0.40, 0.30, 0.20, 0.10};
    const double u = rng.uniform();
    double acc = 0.0;
    int pick = 1;
    for (std::size_t i = 0; i < 4; ++i) {
        acc += kWeights[i];
        if (u < acc) {
            pick = kSizes[i];
            break;
        }
    }
    return pick;
}

} // namespace

std::string
jobKindId(JobKind kind)
{
    switch (kind) {
      case JobKind::Training:
        return "training";
      case JobKind::Inference:
        return "inference";
    }
    RAP_PANIC("unknown job kind");
}

JobKind
jobKindFromId(const std::string &id)
{
    if (id == "training")
        return JobKind::Training;
    if (id == "inference")
        return JobKind::Inference;
    RAP_FATAL("unknown job-kind id '", id, "'");
}

std::string
JobSpec::variantKey() const
{
    // The request trace / batching window are replayed analytically
    // outside the inner simulation, so they stay out of the key; the
    // kind is in because it flips the iteration to forward-only.
    return "sys" + std::to_string(static_cast<int>(system)) + ".p" +
           std::to_string(planId) + ".s" + std::to_string(ngramStress) +
           ".b" + std::to_string(batchPerGpu) + ".i" +
           std::to_string(iterations) + ".g" +
           std::to_string(gpusRequested) + ".c" +
           std::to_string(checkpointInterval) + ".k" +
           std::to_string(static_cast<int>(kind));
}

Json
JobSpec::toJson() const
{
    Json json = Json::object();
    json.set("id", Json(id));
    json.set("name", Json(name));
    json.set("arrival", Json(arrival));
    json.set("gpusRequested", Json(gpusRequested));
    json.set("planId", Json(planId));
    json.set("ngramStress", Json(ngramStress));
    json.set("batchPerGpu", Json(batchPerGpu));
    json.set("iterations", Json(iterations));
    json.set("system", Json(core::systemId(system)));
    json.set("checkpointInterval", Json(checkpointInterval));
    json.set("kind", Json(jobKindId(kind)));
    Json requests_json = Json::object();
    requests_json.set("qps", Json(requests.qps));
    requests_json.set("qpsAmplitude", Json(requests.qpsAmplitude));
    requests_json.set("qpsPeriod", Json(requests.qpsPeriod));
    requests_json.set("duration", Json(requests.duration));
    // Request seeds are masked to 53 bits at synthesis, so the double
    // round trip below is exact.
    requests_json.set("seed", Json(requests.seed));
    json.set("requests", std::move(requests_json));
    Json window_json = Json::object();
    window_json.set("maxBatch", Json(window.maxBatch));
    window_json.set("maxWait", Json(window.maxWait));
    json.set("window", std::move(window_json));
    json.set("sloLatency", Json(sloLatency));
    return json;
}

JobSpec
JobSpec::fromJson(const Json &json)
{
    if (!json.isObject())
        RAP_FATAL("JobSpec JSON must be an object");
    JobSpec spec;
    spec.id = static_cast<int>(json.at("id").asDouble());
    spec.name = json.at("name").asString();
    spec.arrival = json.at("arrival").asDouble();
    spec.gpusRequested =
        static_cast<int>(json.at("gpusRequested").asDouble());
    spec.planId = static_cast<int>(json.at("planId").asDouble());
    spec.ngramStress =
        static_cast<int>(json.at("ngramStress").asDouble());
    spec.batchPerGpu =
        static_cast<std::int64_t>(json.at("batchPerGpu").asDouble());
    spec.iterations =
        static_cast<int>(json.at("iterations").asDouble());
    const auto system =
        core::systemFromId(json.at("system").asString());
    if (!system) {
        RAP_FATAL("unknown system id '", json.at("system").asString(),
                  "' in JobSpec JSON");
    }
    spec.system = *system;
    spec.checkpointInterval =
        static_cast<int>(json.at("checkpointInterval").asDouble());
    spec.kind = jobKindFromId(json.at("kind").asString());
    const Json &requests = json.at("requests");
    spec.requests.qps = requests.at("qps").asDouble();
    spec.requests.qpsAmplitude =
        requests.at("qpsAmplitude").asDouble();
    spec.requests.qpsPeriod = requests.at("qpsPeriod").asDouble();
    spec.requests.duration = requests.at("duration").asDouble();
    spec.requests.seed = static_cast<std::uint64_t>(
        requests.at("seed").asDouble());
    const Json &window = json.at("window");
    spec.window.maxBatch =
        static_cast<int>(window.at("maxBatch").asDouble());
    spec.window.maxWait = window.at("maxWait").asDouble();
    spec.sloLatency = json.at("sloLatency").asDouble();
    return spec;
}

std::vector<JobSpec>
makeArrivalTrace(const ArrivalTraceOptions &options)
{
    RAP_ASSERT(options.jobCount >= 1, "trace needs at least one job");
    Rng rng(options.seed);
    std::vector<JobSpec> jobs;
    jobs.reserve(static_cast<std::size_t>(options.jobCount));
    Seconds clock = 0.0;
    for (int j = 0; j < options.jobCount; ++j) {
        JobSpec spec;
        spec.id = j;
        // Poisson arrivals: exponential gaps via inverse transform,
        // hardened so a u == 0 draw or a denormal gap absorbed by the
        // running sum can never stack two jobs on one timestamp —
        // downstream event ordering keys on (time, kind, id) and a
        // collapsed clock silently reorders admissions.
        const Seconds prev = clock;
        clock += exponentialGap(rng.uniform(), options.meanInterarrival);
        if (clock <= prev)
            clock = std::nextafter(
                prev, std::numeric_limits<double>::infinity());
        spec.arrival = clock;
        spec.gpusRequested = drawGpuRequest(rng);
        spec.planId = static_cast<int>(
            rng.uniformInt(0, options.tiny ? 1 : 3));
        spec.batchPerGpu = rng.bernoulli(0.5) ? 2048 : 4096;
        spec.iterations =
            options.tiny ? 8 : 10 + static_cast<int>(rng.uniformInt(0, 8));
        spec.ngramStress = 0;
        spec.system = core::System::Rap;
        spec.checkpointInterval = options.checkpointInterval;
        spec.name = "job" + std::to_string(j) + ".p" +
                    std::to_string(spec.planId) + "x" +
                    std::to_string(spec.gpusRequested);
        jobs.push_back(std::move(spec));
    }

    if (options.serving.jobCount > 0) {
        const auto &serving = options.serving;
        RAP_ASSERT(serving.gpusPerJob >= 1 &&
                       serving.gpusPerJob <= kMaxGpusPerJob,
                   "inference jobs must fit the node");
        // Inference submissions ride their own Poisson stream (own
        // seed, own clock) and are merged by arrival: the serving mix
        // can be scaled up or down without perturbing the training
        // trace.
        Rng srng(serving.seed);
        Seconds sclock = 0.0;
        for (int j = 0; j < serving.jobCount; ++j) {
            JobSpec spec;
            const Seconds prev = sclock;
            sclock +=
                exponentialGap(srng.uniform(), serving.meanInterarrival);
            if (sclock <= prev)
                sclock = std::nextafter(
                    prev, std::numeric_limits<double>::infinity());
            spec.arrival = sclock;
            spec.kind = JobKind::Inference;
            spec.gpusRequested = serving.gpusPerJob;
            spec.planId = static_cast<int>(
                srng.uniformInt(0, options.tiny ? 1 : 3));
            spec.batchPerGpu = serving.batchPerGpu;
            spec.iterations = serving.iterations;
            spec.ngramStress = 0;
            spec.system = core::System::Rap;
            spec.checkpointInterval = 0;
            spec.requests.qps = serving.qps;
            spec.requests.qpsAmplitude = serving.qpsAmplitude;
            spec.requests.qpsPeriod = serving.qpsPeriod;
            spec.requests.duration = serving.duration;
            // Per-job request seed, masked to 53 bits so it survives
            // the JSON round trip (numbers are doubles) exactly.
            spec.requests.seed = srng.next() & ((1ULL << 53) - 1);
            spec.window.maxBatch = serving.maxBatch;
            spec.window.maxWait = serving.maxWait;
            spec.sloLatency = serving.sloLatency;
            spec.name = "srv" + std::to_string(j) + ".p" +
                        std::to_string(spec.planId) + "x" +
                        std::to_string(spec.gpusRequested);
            jobs.push_back(std::move(spec));
        }
        // Stable merge: the training stream sits first, so it wins
        // the (practically impossible) arrival tie deterministically.
        std::stable_sort(jobs.begin(), jobs.end(),
                         [](const JobSpec &a, const JobSpec &b) {
                             return a.arrival < b.arrival;
                         });
        for (std::size_t j = 0; j < jobs.size(); ++j)
            jobs[j].id = static_cast<int>(j);
    }
    return jobs;
}

preproc::PreprocPlan
buildJobPlan(const JobSpec &spec)
{
    auto plan = preproc::makePlan(spec.planId);
    if (spec.ngramStress > 0)
        preproc::addNgramStress(plan, spec.ngramStress);
    return plan;
}

core::SystemConfig
makeJobConfig(const JobSpec &spec)
{
    core::SystemConfig config;
    config.system = spec.system;
    config.gpuCount = spec.gpusRequested;
    config.batchPerGpu = spec.batchPerGpu;
    config.iterations = spec.iterations;
    config.warmup = std::min(3, spec.iterations - 2);
    config.inference = spec.kind == JobKind::Inference;
    if (spec.checkpointInterval > 0) {
        // The inner simulation measures the drain cost and composes
        // the checkpoint overhead into its makespan; fleet crash
        // events themselves stay on the fleet clock.
        config.checkpoint.mode = core::CheckpointMode::FixedInterval;
        config.checkpoint.interval = spec.checkpointInterval;
    }
    return config;
}

} // namespace rap::fleet
