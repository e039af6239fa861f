#include "sim/interconnect.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace rap::sim {

LinkServer::LinkServer(Engine &engine, BytesPerSecond bandwidth,
                       Seconds latency)
    : engine_(engine), bandwidth_(bandwidth), latency_(latency)
{
    RAP_ASSERT(bandwidth_ > 0, "link bandwidth must be positive");
}

void
LinkServer::setRateScale(double scale)
{
    RAP_ASSERT(scale > 0.0 && scale <= 1.0,
               "link rate scale must be in (0, 1]");
    rateScale_ = scale;
}

Seconds
LinkServer::submit(Bytes bytes, std::function<void()> done)
{
    RAP_ASSERT(bytes >= 0, "cannot transfer negative bytes");
    const Seconds start = std::max(engine_.now(), nextFree_);
    const Seconds duration = latency_ + bytes / (bandwidth_ * rateScale_);
    nextFree_ = start + duration;
    totalBytes_ += bytes;
    if (done)
        engine_.schedule(nextFree_, std::move(done));
    return nextFree_;
}

Collective::Collective(Engine &engine, CollectiveKind kind,
                       Bytes bytes_per_gpu, int participants,
                       BytesPerSecond bandwidth, Seconds latency)
    : engine_(engine), kind_(kind), bytesPerGpu_(bytes_per_gpu),
      participants_(participants), bandwidth_(bandwidth),
      latency_(latency)
{
    RAP_ASSERT(participants_ >= 1, "collective needs >= 1 participant");
    RAP_ASSERT(bytesPerGpu_ >= 0, "collective payload must be >= 0");
}

Seconds
Collective::duration() const
{
    if (participants_ == 1)
        return latency_;
    const double g = participants_;
    switch (kind_) {
      case CollectiveKind::AllToAll:
        // Each GPU sends (G-1)/G of its payload to peers.
        return latency_ + bytesPerGpu_ * (g - 1.0) / g / bandwidth_;
      case CollectiveKind::AllReduce:
        // Ring all-reduce: 2(G-1)/G payload volume, (G-1) latency hops.
        return latency_ * (g - 1.0) +
               2.0 * bytesPerGpu_ * (g - 1.0) / g / bandwidth_;
    }
    return latency_;
}

void
Collective::arrive(std::function<void()> done)
{
    RAP_ASSERT(arrived_ < participants_,
               "collective got more arrivals than participants");
    callbacks_.push_back(std::move(done));
    if (++arrived_ < participants_)
        return;
    const Seconds end = engine_.now() + duration();
    for (auto &cb : callbacks_) {
        if (cb)
            engine_.schedule(end, std::move(cb));
    }
    callbacks_.clear();
}

} // namespace rap::sim
