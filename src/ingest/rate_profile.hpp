/**
 * @file
 * Time-varying per-stream emission rate profiles for the ingest
 * front-end: steady, diurnal (sinusoidal, the serve-layer idiom from
 * serve/request.hpp), and burst (square-wave on/off peaks). The
 * emitters sample arrivals against these via Lewis-Shedler thinning,
 * so the instantaneous rate can vary continuously while the draw
 * stays a pure function of (seed, stream).
 */

#ifndef RAP_INGEST_RATE_PROFILE_HPP
#define RAP_INGEST_RATE_PROFILE_HPP

#include <string>

#include "common/units.hpp"

namespace rap::ingest {

enum class RateProfileKind {
    Steady,
    Diurnal,
    Burst,
};

/** Per-stream emission rate as a function of time. */
struct RateProfile
{
    RateProfileKind kind = RateProfileKind::Steady;
    /** Base (off-peak) rate, events per second per stream. */
    double eventsPerSec = 200000.0;
    /** Diurnal swing fraction in [0, 1). */
    double amplitude = 0.6;
    /** Diurnal / burst cycle length. */
    Seconds period = 0.02;
    /** Burst peak rate as a multiple of the base rate (>= 1). */
    double burstFactor = 6.0;
    /** Fraction of each cycle spent at the burst peak, in (0, 1]. */
    double burstFraction = 0.15;
};

/** @return The instantaneous rate at time @p t (events/second). */
double rateAt(const RateProfile &profile, Seconds t);

/** @return The supremum of rateAt over all t (thinning envelope). */
double peakRate(const RateProfile &profile);

/** @return Stable lowercase id: "steady" / "diurnal" / "burst". */
std::string rateProfileId(RateProfileKind kind);

} // namespace rap::ingest

#endif // RAP_INGEST_RATE_PROFILE_HPP
