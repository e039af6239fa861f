#include "ingest/stream.hpp"

namespace rap::ingest {

namespace {

/** Derive an independent per-stream arrival seed from the root seed. */
std::uint64_t
streamSeed(std::uint64_t root, std::uint32_t stream)
{
    std::uint64_t v = root ^ 0x717261ULL;
    v += (static_cast<std::uint64_t>(stream) + 1) *
         0x9e3779b97f4a7c15ULL;
    v ^= v >> 30;
    v *= 0xbf58476d1ce4e5b9ULL;
    v ^= v >> 27;
    v *= 0x94d049bb133111ebULL;
    v ^= v >> 31;
    return v;
}

} // namespace

StreamEmitter::StreamEmitter(const IngestConfig &config,
                             std::uint32_t stream)
    : profile_(config.profile), peakRate_(peakRate(config.profile)),
      duration_(config.duration), stream_(stream),
      rng_(streamSeed(config.seed, stream))
{
}

bool
StreamEmitter::next(Event &out)
{
    if (exhausted_)
        return false;
    const auto rate = [this](Seconds t) { return rateAt(profile_, t); };
    if (!nextThinnedArrival(rng_, peakRate_, rate, duration_, clock_)) {
        exhausted_ = true;
        return false;
    }
    out.stream = stream_;
    out.seq = seq_++;
    out.emitTime = clock_;
    return true;
}

} // namespace rap::ingest
