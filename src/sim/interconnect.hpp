/**
 * @file
 * Interconnect models: point-to-point link servers (PCIe / NVLink) and
 * synchronised multi-GPU collectives (all-to-all, all-reduce).
 */

#ifndef RAP_SIM_INTERCONNECT_HPP
#define RAP_SIM_INTERCONNECT_HPP

#include <functional>
#include <memory>
#include <vector>

#include "common/units.hpp"
#include "sim/engine.hpp"

namespace rap::sim {

/**
 * A FIFO transfer server with fixed bandwidth and per-transfer latency.
 *
 * Transfers submitted while the link is busy queue behind it; this
 * naturally serialises concurrent copies on the same physical link.
 */
class LinkServer
{
  public:
    /**
     * @param engine Owning simulation engine.
     * @param bandwidth Link bandwidth in bytes/second.
     * @param latency Fixed per-transfer startup latency.
     */
    LinkServer(Engine &engine, BytesPerSecond bandwidth, Seconds latency);

    /**
     * Submit a transfer of @p bytes; @p done runs at completion.
     *
     * @return The absolute completion time.
     */
    Seconds submit(Bytes bytes, std::function<void()> done);

    /** @return Total bytes moved so far. */
    Bytes totalBytes() const { return totalBytes_; }

    /**
     * Scale the link's effective bandwidth (fault injection). Applies
     * to transfers submitted after the call; in-flight transfers keep
     * their already-scheduled completion.
     */
    void setRateScale(double scale);

  private:
    Engine &engine_;
    BytesPerSecond bandwidth_;
    Seconds latency_;
    Seconds nextFree_ = 0.0;
    Bytes totalBytes_ = 0.0;
    double rateScale_ = 1.0;
};

/** Kind of multi-GPU collective operation. */
enum class CollectiveKind {
    AllToAll,
    AllReduce,
};

/**
 * A single-use synchronised collective across N participants.
 *
 * Each participating stream calls arrive() when it reaches the
 * collective; once all participants have arrived, the collective runs
 * for its modelled duration and releases every participant at the same
 * completion instant (bulk-synchronous NCCL-style behaviour).
 */
class Collective
{
  public:
    /**
     * @param engine Owning simulation engine.
     * @param kind Collective flavour.
     * @param bytes_per_gpu Payload contributed by each GPU.
     * @param participants Number of GPUs taking part.
     * @param bandwidth Per-GPU unidirectional NVLink bandwidth.
     * @param latency Per-hop NVLink latency.
     */
    Collective(Engine &engine, CollectiveKind kind, Bytes bytes_per_gpu,
               int participants, BytesPerSecond bandwidth, Seconds latency);

    /** Register one participant's arrival; @p done runs at completion. */
    void arrive(std::function<void()> done);

    /** @return The modelled busy duration of the collective. */
    Seconds duration() const;

  private:
    Engine &engine_;
    CollectiveKind kind_;
    Bytes bytesPerGpu_;
    int participants_;
    BytesPerSecond bandwidth_;
    Seconds latency_;
    int arrived_ = 0;
    std::vector<std::function<void()>> callbacks_;
};

using CollectivePtr = std::shared_ptr<Collective>;

} // namespace rap::sim

#endif // RAP_SIM_INTERCONNECT_HPP
