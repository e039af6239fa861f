#include "ingest/rate_profile.hpp"

#include <cmath>

#include "common/log.hpp"

namespace rap::ingest {

double
rateAt(const RateProfile &profile, Seconds t)
{
    switch (profile.kind) {
      case RateProfileKind::Steady:
        return profile.eventsPerSec;
      case RateProfileKind::Diurnal:
        return profile.eventsPerSec *
               (1.0 + profile.amplitude *
                          std::sin(2.0 * M_PI * t / profile.period));
      case RateProfileKind::Burst: {
        const double phase =
            std::fmod(t, profile.period) / profile.period;
        return phase < profile.burstFraction
                   ? profile.eventsPerSec * profile.burstFactor
                   : profile.eventsPerSec;
      }
    }
    RAP_FATAL("unknown rate profile kind");
}

double
peakRate(const RateProfile &profile)
{
    switch (profile.kind) {
      case RateProfileKind::Steady:
        return profile.eventsPerSec;
      case RateProfileKind::Diurnal:
        return profile.eventsPerSec * (1.0 + profile.amplitude);
      case RateProfileKind::Burst:
        return profile.eventsPerSec * profile.burstFactor;
    }
    RAP_FATAL("unknown rate profile kind");
}

std::string
rateProfileId(RateProfileKind kind)
{
    switch (kind) {
      case RateProfileKind::Steady: return "steady";
      case RateProfileKind::Diurnal: return "diurnal";
      case RateProfileKind::Burst: return "burst";
    }
    return "?";
}

} // namespace rap::ingest
