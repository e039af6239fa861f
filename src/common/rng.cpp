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

double
Rng::logNormal(double mu, double sigma)
{
    return std::exp(normal(mu, sigma));
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

Rng
Rng::fork()
{
    return Rng(next() ^ 0xd1b54a32d192ed03ULL);
}

ZipfSampler::ZipfSampler(std::int64_t n, double alpha)
    : n_(n), alpha_(alpha), logarithmic_(std::abs(alpha - 1.0) < 1e-12)
{
    RAP_ASSERT(n >= 1, "zipf support size must be >= 1");
    RAP_ASSERT(alpha > 0.0, "zipf skew must be > 0");
    if (n == 1)
        return;
    hx0_ = h(0.5) - 1.0;
    hn_ = h(static_cast<double>(n) + 0.5);
    bound_.resize(static_cast<std::size_t>(std::min(n, kTabulated)));
    for (std::size_t i = 0; i < bound_.size(); ++i) {
        const double k = static_cast<double>(i + 1);
        bound_[i] = h(k + 0.5) - std::pow(k, -alpha_);
    }
}

double
ZipfSampler::h(double x) const
{
    if (logarithmic_)
        return std::log(x);
    return (std::pow(x, 1.0 - alpha_) - 1.0) / (1.0 - alpha_);
}

double
ZipfSampler::hInv(double x) const
{
    if (logarithmic_)
        return std::exp(x);
    return std::pow(1.0 + x * (1.0 - alpha_), 1.0 / (1.0 - alpha_));
}

std::int64_t
ZipfSampler::operator()(Rng &rng) const
{
    if (n_ == 1)
        return 0;
    // Rejection-inversion over ranks 1..n.
    const double nd = static_cast<double>(n_);
    for (;;) {
        const double u = hx0_ + rng.uniform() * (hn_ - hx0_);
        const double x = hInv(u);
        const double k = std::floor(x + 0.5);
        const double clamped = std::min(std::max(k, 1.0), nd);
        const double bound =
            clamped <= static_cast<double>(bound_.size())
                ? bound_[static_cast<std::size_t>(clamped) - 1]
                : h(clamped + 0.5) - std::pow(clamped, -alpha_);
        if (u >= bound)
            return static_cast<std::int64_t>(clamped) - 1;
    }
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
