/**
 * @file
 * Deterministic per-stream event source. A StreamEmitter is a pure
 * function of (config.seed, stream): it owns a private Rng for
 * arrival thinning, so the keys and emit times it yields never depend
 * on which pool thread drives it, how fast the consumer drains, or
 * what other streams do.
 */

#ifndef RAP_INGEST_STREAM_HPP
#define RAP_INGEST_STREAM_HPP

#include <cstdint>

#include "common/rng.hpp"
#include "ingest/config.hpp"
#include "ingest/event.hpp"

namespace rap::ingest {

class StreamEmitter
{
  public:
    StreamEmitter(const IngestConfig &config, std::uint32_t stream);

    /**
     * Produce the stream's next event. Emit times are strictly
     * increasing within the stream (nextThinnedArrival in
     * common/rng.hpp, the arrival model serve/request.cpp shares).
     *
     * @return False once the emission horizon is reached; the stream
     *         is then exhausted for good.
     */
    bool next(Event &out);

    /** @return True once next() has reached the emission horizon. */
    bool exhausted() const { return exhausted_; }

  private:
    RateProfile profile_;
    double peakRate_;
    Seconds duration_;
    std::uint32_t stream_;
    Rng rng_;
    Seconds clock_ = 0.0;
    std::uint64_t seq_ = 0;
    bool exhausted_ = false;
};

} // namespace rap::ingest

#endif // RAP_INGEST_STREAM_HPP
