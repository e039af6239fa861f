#include "common/rng.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"

namespace rap {

namespace {

/** SplitMix64 step used to expand a single seed into generator state. */
std::uint64_t
splitMix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitMix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    RAP_ASSERT(lo <= hi, "uniformInt requires lo <= hi");
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) // full 64-bit range
        return static_cast<std::int64_t>(next());
    // Rejection sampling to remove modulo bias.
    const std::uint64_t limit = (~0ULL) - ((~0ULL) % span) - 1;
    std::uint64_t draw;
    do {
        draw = next();
    } while (draw > limit);
    return lo + static_cast<std::int64_t>(draw % span);
}

double
Rng::normal()
{
    if (haveSpareNormal_) {
        haveSpareNormal_ = false;
        return spareNormal_;
    }
    double u1;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    spareNormal_ = mag * std::sin(2.0 * M_PI * u2);
    haveSpareNormal_ = true;
    return mag * std::cos(2.0 * M_PI * u2);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

double
exponentialGap(double u, double mean)
{
    RAP_ASSERT(mean > 0.0, "exponential gap needs a positive mean");
    RAP_ASSERT(u >= 0.0 && u < 1.0,
               "exponential gap needs a uniform draw in [0, 1)");
    // log1p(-u) is exact near u = 0 and finite for every u < 1, so the
    // raw gap is in [0, ~37 * mean] for 53-bit uniforms — never inf.
    const double gap = -mean * std::log1p(-u);
    return std::max(gap, mean * 1e-9);
}

} // namespace rap
