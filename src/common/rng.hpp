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
 * Satisfies the essentials of UniformRandomBitGenerator so it can also be
 * plugged into standard distributions if ever needed, but ships its own
 * distribution helpers to guarantee cross-platform determinism.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed; equal seeds yield equal streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }

    /** @return The next raw 64-bit value. */
    std::uint64_t next();

    /** Alias for next() so Rng models UniformRandomBitGenerator. */
    result_type operator()() { return next(); }

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

    /** @return Log-normal variate with underlying N(mu, sigma). */
    double logNormal(double mu, double sigma);

    /** @return True with probability @p p. */
    bool bernoulli(double p);

    /** Fork an independent child stream (for per-column generators). */
    Rng fork();

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
 * Zipf distribution over {0, ..., n-1}, sampled by rejection-inversion
 * (Hörmann, 1996) so a draw stays O(1) even for the hundred-million-row
 * hash spaces of the Criteo Terabyte preset.
 *
 * Everything that depends only on (n, alpha) is computed once: the two
 * ends of the inversion interval, and the acceptance bound
 * h(k + 0.5) - k^-alpha for the ranks k <= kTabulated where most draws
 * land. Each is built from the same expression the rejection loop
 * would evaluate, so a draw, and the generator state it leaves behind,
 * is bit-identical to evaluating every pow() per draw.
 */
class ZipfSampler
{
  public:
    /** Ranks whose acceptance bound is tabulated. */
    static constexpr std::int64_t kTabulated = 1024;

    /**
     * @param n Support size (must be >= 1).
     * @param alpha Skew parameter (> 0); larger means more skewed.
     */
    ZipfSampler(std::int64_t n, double alpha);

    /** @return One rank in [0, n), drawn from @p rng. */
    std::int64_t operator()(Rng &rng) const;

  private:
    double h(double x) const;
    double hInv(double x) const;

    std::int64_t n_;
    double alpha_;
    /** alpha == 1 (within 1e-12): h is log, hInv is exp. */
    bool logarithmic_;
    double hx0_ = 0.0;
    double hn_ = 0.0;
    /** bound_[k - 1] = h(k + 0.5) - k^-alpha, k <= min(n, kTabulated). */
    std::vector<double> bound_;
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
