#include "sim/device.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"
#include "sim/fault.hpp"

namespace rap::sim {

namespace {

constexpr double kDemandEps = 1e-9;
constexpr Seconds kTimeEps = 1e-12;

} // namespace

Device::Device(Engine &engine, GpuSpec spec, int id,
               BytesPerSecond h2d_bandwidth, Seconds h2d_latency,
               BytesPerSecond p2p_bandwidth, Seconds p2p_latency)
    : engine_(engine), spec_(std::move(spec)), id_(id),
      h2d_(engine, h2d_bandwidth, h2d_latency),
      p2p_(engine, p2p_bandwidth, p2p_latency)
{
}

Stream &
Device::newStream(std::string name, int launch_group, int priority)
{
    streams_.push_back(std::make_unique<Stream>(
        engine_, std::move(name), this, nullptr, launch_group,
        priority));
    return *streams_.back();
}

void
Device::launchKernel(const Stream &stream, KernelPtr desc,
                     std::function<void()> done)
{
    queueLaunch(stream, std::move(desc), std::move(done), /*attempt=*/1);
}

void
Device::queueLaunch(const Stream &stream, KernelPtr desc,
                    std::function<void()> done, int attempt)
{
    if (offline_)
        return; // crashed devices drop launches on the floor
    auto &free_at = launchFree_[stream.launchGroup()];
    const Seconds start = std::max(engine_.now(), free_at);
    const Seconds resident_at = start + spec_.kernelLaunchOverhead;
    free_at = resident_at;
    engine_.schedule(resident_at,
                     [this, &stream, desc = std::move(desc),
                      done = std::move(done), attempt]() mutable {
                         admitKernel(stream, std::move(desc), std::move(done),
                                     attempt);
                     });
}

void
Device::admitKernel(const Stream &stream, KernelPtr desc,
                    std::function<void()> done, int attempt)
{
    if (offline_)
        return; // crashed between launch and admission
    if (injector_ != nullptr &&
        injector_->shouldFailLaunch(engine_.now(), id_, attempt)) {
        // The attempt dies after the detection fraction of its work,
        // waits out the backoff, then relaunches through the regular
        // launch path (charging launch overhead again). All of it is
        // charged to the timeline, so faults are visible in makespan.
        auto probe = std::make_shared<KernelDesc>(*desc);
        probe->name += ".fault" + std::to_string(attempt);
        probe->exclusiveLatency *= injector_->retry().detectFraction;
        const Seconds backoff = injector_->backoff(attempt);
        ++kernelRetries_;
        retryBackoff_ += backoff;
        auto relaunch = [this, &stream, desc = std::move(desc),
                         done = std::move(done), attempt, backoff]() mutable {
            engine_.scheduleAfter(
                backoff, [this, &stream, desc = std::move(desc),
                          done = std::move(done), attempt]() mutable {
                    queueLaunch(stream, std::move(desc), std::move(done),
                                attempt + 1);
                });
        };
        addResident(std::move(probe), stream, std::move(relaunch));
        return;
    }
    addResident(std::move(desc), stream, std::move(done));
}

void
Device::degradeSm(double capacity)
{
    RAP_ASSERT(capacity > 0.0 && capacity <= 1.0,
               "SM capacity must be in (0, 1]");
    advanceToNow();
    smCapacity_ = capacity;
    refresh();
}

void
Device::degradeBw(double capacity)
{
    RAP_ASSERT(capacity > 0.0 && capacity <= 1.0,
               "HBM capacity must be in (0, 1]");
    advanceToNow();
    bwCapacity_ = capacity;
    refresh();
}

void
Device::crash()
{
    if (offline_)
        return;
    advanceToNow();
    // Discard in-flight kernels without firing their completion
    // callbacks: dependent ops stall, mirroring a real fail-stop.
    discardedKernels_ += resident_.size();
    resident_.clear();
    ++wakeGeneration_; // invalidate any pending refresh wake
    currentSmUsage_ = 0.0;
    currentBwUsage_ = 0.0;
    offline_ = true;
}

void
Device::submitCopy(CopyKind kind, Bytes bytes, std::function<void()> done)
{
    if (offline_)
        return; // crashed devices drop copies on the floor
    switch (kind) {
      case CopyKind::HostToDevice:
      case CopyKind::DeviceToHost:
        // Checkpoint (D2H) traffic shares the PCIe link with input
        // staging, so checkpoints contend with H2D copies.
        h2d_.submit(bytes, std::move(done));
        return;
      case CopyKind::PeerToPeer:
        p2p_.submit(bytes, std::move(done));
        return;
    }
    RAP_PANIC("unknown copy kind");
}

ResourceDemand
Device::residentDemand() const
{
    ResourceDemand total;
    for (const auto &r : resident_)
        total = total + r.desc->demand;
    return total;
}

void
Device::advanceToNow()
{
    const Seconds now = engine_.now();
    const Seconds dt = now - lastUpdate_;
    if (dt > 0) {
        UtilSegment seg;
        seg.begin = lastUpdate_;
        seg.end = now;
        seg.smUsage = currentSmUsage_;
        seg.bwUsage = currentBwUsage_;
        seg.residentKernels = static_cast<int>(resident_.size());
        trace_.addSegment(seg);
        for (auto &r : resident_)
            r.remaining -= dt * r.rate;
    }
    lastUpdate_ = now;
}

void
Device::refresh()
{
    // Retire finished kernels (their remaining work hit zero).
    for (std::size_t i = 0; i < resident_.size();) {
        if (resident_[i].remaining <= kTimeEps) {
            Resident finished = std::move(resident_[i]);
            resident_.erase(resident_.begin() +
                            static_cast<std::ptrdiff_t>(i));
            KernelRecord record;
            record.start = finished.start;
            record.end = engine_.now();
            record.exclusiveLatency = finished.desc->exclusiveLatency;
            ++kernelsRetired_;
            stallSeconds_ += std::max(record.stretch(), 0.0);
            if (trace_.recording()) {
                record.name = finished.desc->name;
                record.stream = finished.stream->name();
                trace_.addKernel(std::move(record));
            }
            if (finished.done) {
                // Completion callbacks may push more work; run them via
                // the engine at the current instant to keep refresh
                // non-reentrant.
                engine_.schedule(engine_.now(), std::move(finished.done));
            }
        } else {
            ++i;
        }
    }

    // Recompute progress rates: priority classes are served from
    // highest (0) to lowest; within a class kernels scale
    // proportionally when the class oversubscribes what is available.
    std::vector<int> classes;
    for (const auto &r : resident_) {
        if (std::find(classes.begin(), classes.end(), r.priority) ==
            classes.end()) {
            classes.push_back(r.priority);
        }
    }
    std::sort(classes.begin(), classes.end());

    // A degraded device starts the priority walk with less to give.
    double avail_sm = smCapacity_;
    double avail_bw = bwCapacity_;
    currentSmUsage_ = 0.0;
    currentBwUsage_ = 0.0;
    for (int cls : classes) {
        double class_sm = 0.0;
        double class_bw = 0.0;
        for (const auto &r : resident_) {
            if (r.priority != cls)
                continue;
            class_sm += r.desc->demand.sm;
            class_bw += r.desc->demand.bw;
        }
        const double scale_sm =
            class_sm > kDemandEps
                ? std::min(1.0, std::max(avail_sm, 0.0) / class_sm)
                : 1.0;
        const double scale_bw =
            class_bw > kDemandEps
                ? std::min(1.0, std::max(avail_bw, 0.0) / class_bw)
                : 1.0;
        for (auto &r : resident_) {
            if (r.priority != cls)
                continue;
            double rate = 1.0;
            if (r.desc->demand.sm > kDemandEps)
                rate = std::min(rate, scale_sm);
            if (r.desc->demand.bw > kDemandEps)
                rate = std::min(rate, scale_bw);
            // A fully starved kernel still trickles forward: the SM
            // scheduler interleaves some of its blocks eventually.
            r.rate = std::max(rate, 0.02);
            avail_sm -= r.desc->demand.sm * r.rate;
            avail_bw -= r.desc->demand.bw * r.rate;
            currentSmUsage_ += r.desc->demand.sm * r.rate;
            currentBwUsage_ += r.desc->demand.bw * r.rate;
        }
    }
    currentSmUsage_ = std::min(currentSmUsage_, 1.0);
    currentBwUsage_ = std::min(currentBwUsage_, 1.0);

    Seconds next_done = -1.0;
    for (const auto &r : resident_) {
        const Seconds t =
            std::max(r.remaining, 0.0) / std::max(r.rate, 1e-12);
        if (next_done < 0 || t < next_done)
            next_done = t;
    }

    if (next_done >= 0) {
        const std::uint64_t generation = ++wakeGeneration_;
        engine_.schedule(engine_.now() + next_done, [this, generation] {
            if (generation != wakeGeneration_)
                return;
            advanceToNow();
            refresh();
        });
    }
}

void
Device::addResident(KernelPtr desc, const Stream &stream,
                    std::function<void()> done)
{
    advanceToNow();
    Resident r;
    r.remaining = desc->exclusiveLatency;
    r.desc = std::move(desc);
    r.start = engine_.now();
    r.stream = &stream;
    r.priority = stream.priority();
    r.done = std::move(done);
    resident_.push_back(std::move(r));
    ++kernelsLaunched_;
    maxResident_ = std::max(maxResident_, resident_.size());
    refresh();
}

} // namespace rap::sim
