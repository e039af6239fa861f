/**
 * @file
 * The streaming ingest event: one record emitted by a logical stream
 * at a point in (simulated) time, carried as its key alone. Every
 * staging decision, and so every reported number, is a function of
 * the key and the emit time; no record body is generated.
 *
 * Events carry their total-order key explicitly: (emitTime, stream,
 * seq). Within one stream emit times are strictly increasing (the
 * emitter enforces it, see nextThinnedArrival); across streams
 * ties break on the stream id. The staging consumer k-way-merges
 * each generation window's per-stream slabs on this key, which is
 * what makes every downstream decision independent of which thread
 * generated which stream.
 */

#ifndef RAP_INGEST_EVENT_HPP
#define RAP_INGEST_EVENT_HPP

#include <cstdint>

#include "common/units.hpp"

namespace rap::ingest {

/** One emitted record's key in the global event order. */
struct Event
{
    /** Logical stream ordinal in [0, IngestConfig::streams). */
    std::uint32_t stream = 0;
    /** Per-stream emission ordinal (0-based, gapless). */
    std::uint64_t seq = 0;
    /** Emission time on the shared virtual clock. */
    Seconds emitTime = 0.0;
};

/** @return True when @p a precedes @p b in the global event order. */
inline bool
eventBefore(const Event &a, const Event &b)
{
    if (a.emitTime != b.emitTime)
        return a.emitTime < b.emitTime;
    if (a.stream != b.stream)
        return a.stream < b.stream;
    return a.seq < b.seq;
}

} // namespace rap::ingest

#endif // RAP_INGEST_EVENT_HPP
