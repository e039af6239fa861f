/**
 * @file
 * Deterministic per-stream event source. A StreamEmitter is a pure
 * function of (config.seed, stream): it owns a private Rng for
 * arrival thinning and a private CriteoGenerator for row content, so
 * the sequence it yields never depends on which pool thread drives
 * it, how fast the consumer drains, or what other streams do.
 */

#ifndef RAP_INGEST_STREAM_HPP
#define RAP_INGEST_STREAM_HPP

#include <cstdint>

#include "common/rng.hpp"
#include "data/criteo.hpp"
#include "ingest/config.hpp"
#include "ingest/event.hpp"

namespace rap::ingest {

class StreamEmitter
{
  public:
    /** @param schema Shared event schema (copied into the generator). */
    StreamEmitter(const IngestConfig &config,
                  const data::Schema &schema, std::uint32_t stream);

    /**
     * Produce the stream's next event. Emit times are strictly
     * increasing within the stream (serve/request.cpp's thinning
     * loop, including the nextafter tie-break).
     *
     * @return False once the emission horizon is reached; the stream
     *         is then exhausted for good.
     */
    bool next(Event &out);

    std::uint32_t stream() const { return stream_; }

  private:
    RateProfile profile_;
    Seconds duration_;
    std::uint32_t stream_;
    Rng rng_;
    data::CriteoGenerator generator_;
    Seconds clock_ = 0.0;
    Seconds last_ = -1.0;
    std::uint64_t seq_ = 0;
    bool exhausted_ = false;
};

} // namespace rap::ingest

#endif // RAP_INGEST_STREAM_HPP
