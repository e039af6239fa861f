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
    wake_ = engine_.addTimer([this] {
        if (offline_)
            return; // crash() discarded what the wake was armed for
        advanceToNow();
        refresh();
    });
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
    queueLaunch(PendingLaunch{&stream, std::move(desc), std::move(done),
                              /*attempt=*/1});
}

void
Device::queueLaunch(PendingLaunch launch)
{
    if (offline_)
        return; // crashed devices drop launches on the floor
    const int id = launch.stream->launchGroup();
    std::size_t g = 0;
    while (g < launchGroups_.size() && launchGroups_[g].id != id)
        ++g;
    if (g == launchGroups_.size())
        launchGroups_.push_back(LaunchGroup{id, 0.0, {}, 0});
    LaunchGroup &group = launchGroups_[g];
    const Seconds start = std::max(engine_.now(), group.freeAt);
    const Seconds resident_at = start + spec_.kernelLaunchOverhead;
    group.freeAt = resident_at;
    group.pending.push_back(std::move(launch));
    engine_.schedule(resident_at, [this, g] { admitKernel(g); });
}

void
Device::admitKernel(std::size_t g)
{
    LaunchGroup &group = launchGroups_[g];
    PendingLaunch launch = std::move(group.pending[group.head++]);
    // Drop the taken prefix once it is half the buffer: amortised
    // O(1), and the buffer stops growing once it fits the group's
    // deepest backlog.
    if (2 * group.head >= group.pending.size()) {
        group.pending.erase(group.pending.begin(),
                            group.pending.begin() +
                                static_cast<std::ptrdiff_t>(group.head));
        group.head = 0;
    }
    if (offline_)
        return; // crashed between launch and admission
    const Stream &stream = *launch.stream;
    if (injector_ != nullptr &&
        injector_->shouldFailLaunch(engine_.now(), id_, launch.attempt)) {
        // The attempt dies after the detection fraction of its work,
        // waits out the backoff, then relaunches through the regular
        // launch path (charging launch overhead again). All of it is
        // charged to the timeline, so faults are visible in makespan.
        auto probe = std::make_shared<KernelDesc>(*launch.desc);
        probe->name += ".fault" + std::to_string(launch.attempt);
        probe->exclusiveLatency *= injector_->retry().detectFraction;
        const Seconds backoff = injector_->backoff(launch.attempt);
        ++kernelRetries_;
        retryBackoff_ += backoff;
        ++launch.attempt;
        auto relaunch = [this, launch = std::move(launch),
                         backoff]() mutable {
            engine_.scheduleAfter(
                backoff, [this, launch = std::move(launch)]() mutable {
                    queueLaunch(std::move(launch));
                });
        };
        addResident(std::move(probe), stream, std::move(relaunch));
        return;
    }
    addResident(std::move(launch.desc), stream, std::move(launch.done));
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
    // An armed wake stays armed and fires as a no-op.
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
    classes_.clear();
    for (const auto &r : resident_) {
        if (std::find(classes_.begin(), classes_.end(), r.priority) ==
            classes_.end()) {
            classes_.push_back(r.priority);
        }
    }
    std::sort(classes_.begin(), classes_.end());

    // A degraded device starts the priority walk with less to give.
    double avail_sm = smCapacity_;
    double avail_bw = bwCapacity_;
    currentSmUsage_ = 0.0;
    currentBwUsage_ = 0.0;
    for (int cls : classes_) {
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

    // Re-arming replaces the pending wake, which no longer marks a
    // retirement. With nothing resident the pending wake, if any, is
    // left to fire: it runs an empty refresh, and disarming it could
    // pull the end of the run earlier.
    if (next_done >= 0)
        engine_.arm(wake_, engine_.now() + next_done);
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
