#include "ingest/config.hpp"

namespace rap::ingest {

std::string
backpressurePolicyId(BackpressurePolicy policy)
{
    switch (policy) {
      case BackpressurePolicy::Block: return "block";
      case BackpressurePolicy::DropOldest: return "drop-oldest";
      case BackpressurePolicy::Spill: return "spill";
    }
    return "?";
}

ValidationResult
validateIngestConfig(const IngestConfig &config)
{
    ValidationResult result;
    if (config.streams < 1 || config.streams > 4096) {
        result.addError("streams", "need 1..4096 logical streams");
    }
    if (config.producers < 0) {
        result.addError(
            "producers",
            "generation thread count cannot be negative "
            "(0 = one per stream)");
    }
    if (config.duration <= 0.0)
        result.addError("duration", "emission horizon must be > 0");
    if (config.batchRows < 1)
        result.addError("batchRows", "batches need at least 1 row");
    if (config.windowEvents < 1) {
        result.addError(
            "windowEvents",
            "a generation window must hold at least 1 event");
    }
    if (config.stagingEventsPerSec <= 0.0) {
        result.addError("stagingEventsPerSec",
                        "staging service rate must be > 0");
    }
    if (config.policy != BackpressurePolicy::Block &&
        config.stagingQueueCap < 1) {
        result.addError(
            "stagingQueueCap",
            "drop/spill policies need a queue capacity >= 1");
    }
    if (config.profile.eventsPerSec <= 0.0) {
        result.addError("profile.eventsPerSec",
                        "base emission rate must be > 0");
    }
    if (config.profile.kind == RateProfileKind::Diurnal &&
        (config.profile.amplitude < 0.0 ||
         config.profile.amplitude >= 1.0)) {
        result.addError(
            "profile.amplitude",
            "diurnal amplitude must be in [0, 1) so the rate stays "
            "positive");
    }
    if (config.profile.kind != RateProfileKind::Steady &&
        config.profile.period <= 0.0) {
        result.addError("profile.period",
                        "rate modulation needs a positive period");
    }
    if (config.profile.kind == RateProfileKind::Burst) {
        if (config.profile.burstFactor < 1.0) {
            result.addError("profile.burstFactor",
                            "burst peak multiplier must be >= 1");
        }
        if (config.profile.burstFraction <= 0.0 ||
            config.profile.burstFraction > 1.0) {
            result.addError("profile.burstFraction",
                            "burst duty cycle must be in (0, 1]");
        }
    }
    return result;
}

} // namespace rap::ingest
