/**
 * @file
 * Deterministic random number generation for workload synthesis.
 *
 * All randomness in RAP flows through Rng so that every experiment is
 * reproducible from a single seed. The generator is xoshiro256**, seeded
 * via SplitMix64 as recommended by its authors.
 */

#ifndef RAP_COMMON_RNG_HPP
#define RAP_COMMON_RNG_HPP

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace rap {

/**
 * A small, fast, deterministic pseudo-random generator (xoshiro256**).
 *
 * Ships its own distribution helpers to guarantee cross-platform
 * determinism.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed; equal seeds yield equal streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** @return The next raw 64-bit value. */
    std::uint64_t next();

    /** @return Uniform double in [0, 1). */
    double uniform();

    /** @return Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** @return Uniform integer in [lo, hi] inclusive; requires lo <= hi. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** @return Standard normal variate (Box-Muller, deterministic). */
    double normal();

    /** @return Normal variate with the given mean and stddev. */
    double normal(double mean, double stddev);

    /** @return True with probability @p p. */
    bool bernoulli(double p);

    /** In-place Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T> &items)
    {
        for (std::size_t i = items.size(); i > 1; --i) {
            auto j = static_cast<std::size_t>(
                uniformInt(0, static_cast<std::int64_t>(i) - 1));
            std::swap(items[i - 1], items[j]);
        }
    }

  private:
    std::uint64_t s_[4];
    bool haveSpareNormal_ = false;
    double spareNormal_ = 0.0;
};

/**
 * Inverse-transform exponential interarrival gap with mean @p mean,
 * hardened for event-stream synthesis: computed as -mean * log1p(-u)
 * so a uniform draw of exactly 0 yields a zero (not infinite or NaN)
 * raw gap, then floored at mean * 1e-9 so no draw can produce a zero
 * or denormal gap that a cumulative arrival clock would absorb —
 * collapsing two events onto one timestamp. The result is always
 * strictly positive and finite for u in [0, 1).
 */
double exponentialGap(double u, double mean);

/**
 * One step of Lewis-Shedler thinning: advance @p clock to the next
 * arrival of a Poisson process whose rate @p rate(t) never exceeds
 * @p rate_max. Candidates are drawn at the peak rate with
 * exponentialGap and each is kept with probability rate(t) / rate_max.
 *
 * On entry @p clock is the previous arrival (0 before the first). An
 * accepted candidate that the clock's ulp absorbed, so that it does not
 * lie past that arrival, moves to the next representable time, which
 * keeps arrivals strictly increasing.
 *
 * @return False, with @p clock at or past @p horizon, once the process
 *         reaches the horizon; call again only after a true return.
 */
template <typename RateFn>
bool
nextThinnedArrival(Rng &rng, double rate_max, const RateFn &rate,
                   double horizon, double &clock)
{
    const double last = clock;
    for (;;) {
        clock += exponentialGap(rng.uniform(), 1.0 / rate_max);
        if (clock >= horizon)
            return false;
        if (rng.uniform() * rate_max > rate(clock))
            continue; // thinned out
        if (clock <= last) {
            clock = std::nextafter(
                last, std::numeric_limits<double>::infinity());
            if (clock >= horizon)
                return false;
        }
        return true;
    }
}

} // namespace rap

#endif // RAP_COMMON_RNG_HPP
