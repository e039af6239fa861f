#include "sim/fault.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"
#include "sim/cluster.hpp"

namespace rap::sim {

FaultEvent
FaultEvent::smDegrade(int device, Seconds time, double factor)
{
    FaultEvent e;
    e.kind = FaultKind::SmDegrade;
    e.device = device;
    e.time = time;
    e.factor = factor;
    return e;
}

FaultEvent
FaultEvent::hbmDegrade(int device, Seconds time, double factor)
{
    FaultEvent e;
    e.kind = FaultKind::HbmDegrade;
    e.device = device;
    e.time = time;
    e.factor = factor;
    return e;
}

FaultEvent
FaultEvent::linkSlow(int device, FaultLink link, Seconds time,
                     double factor)
{
    FaultEvent e;
    e.kind = FaultKind::LinkSlow;
    e.device = device;
    e.link = link;
    e.time = time;
    e.factor = factor;
    return e;
}

FaultEvent
FaultEvent::transientKernel(int device, Seconds from, Seconds until,
                            double probability)
{
    FaultEvent e;
    e.kind = FaultKind::TransientKernel;
    e.device = device;
    e.time = from;
    e.until = until;
    e.probability = probability;
    return e;
}

FaultEvent
FaultEvent::deviceCrash(int device, Seconds time)
{
    FaultEvent e;
    e.kind = FaultKind::DeviceCrash;
    e.device = device;
    e.time = time;
    return e;
}

bool
FaultEvent::isFailStop() const
{
    return kind == FaultKind::DeviceCrash;
}

bool
FaultSpec::hasTransientFaults() const
{
    return std::any_of(events.begin(), events.end(),
                       [](const FaultEvent &e) {
                           return e.kind == FaultKind::TransientKernel;
                       });
}

FaultSpec
FaultSpec::degradationOnly() const
{
    FaultSpec out = *this;
    out.events.erase(std::remove_if(out.events.begin(),
                                    out.events.end(),
                                    [](const FaultEvent &e) {
                                        return e.isFailStop();
                                    }),
                     out.events.end());
    return out;
}

std::vector<Seconds>
FaultSpec::failStopTimes() const
{
    std::vector<Seconds> times;
    for (const auto &e : events)
        if (e.isFailStop())
            times.push_back(e.time);
    std::sort(times.begin(), times.end());
    return times;
}

ValidationResult
FaultSpec::validate(int gpu_count) const
{
    ValidationResult result;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const auto &e = events[i];
        const std::string field = "events[" + std::to_string(i) + "]";
        if (e.device < -1 || e.device >= gpu_count) {
            result.addError(field + ".device",
                            "targets GPU " + std::to_string(e.device) +
                                " on " + std::to_string(gpu_count) +
                                " GPUs (-1 = every GPU)");
        }
        if (!(e.time >= 0.0))
            result.addError(field + ".time", "must be >= 0");
        switch (e.kind) {
          case FaultKind::SmDegrade:
          case FaultKind::HbmDegrade:
          case FaultKind::LinkSlow:
            if (!(e.factor > 0.0 && e.factor <= 1.0)) {
                result.addError(field + ".factor",
                                "degradation factor must be in (0, 1]");
            }
            break;
          case FaultKind::TransientKernel:
            if (!(e.probability >= 0.0 && e.probability <= 1.0)) {
                result.addError(field + ".probability",
                                "failure probability must be in [0, 1]");
            }
            if (!(e.until > e.time)) {
                result.addError(field + ".until",
                                "failure window must end after it "
                                "starts");
            }
            break;
          case FaultKind::DeviceCrash:
            break;
        }
    }
    if (retry.maxAttempts < 1)
        result.addError("retry.maxAttempts", "must be >= 1");
    if (!(retry.detectFraction > 0.0 && retry.detectFraction <= 1.0))
        result.addError("retry.detectFraction", "must be in (0, 1]");
    return result;
}

std::vector<FaultEvent>
makeCrashTrace(Seconds mtbf, std::uint64_t seed, Seconds horizon,
               int gpu_count)
{
    RAP_ASSERT(mtbf > 0.0, "crash trace needs a positive MTBF");
    RAP_ASSERT(horizon > 0.0, "crash trace needs a positive horizon");
    RAP_ASSERT(gpu_count >= 1, "crash trace needs at least one GPU");
    Rng rng(seed);
    std::vector<FaultEvent> events;
    Seconds t = 0.0;
    for (;;) {
        t += -mtbf * std::log(1.0 - rng.uniform());
        if (t >= horizon)
            break;
        const int gpu = static_cast<int>(rng.uniformInt(0, gpu_count - 1));
        events.push_back(FaultEvent::deviceCrash(gpu, t));
    }
    return events;
}

void
FaultInjector::arm(Cluster &cluster)
{
    RAP_ASSERT(!armed_, "fault injector armed twice");
    armed_ = true;
    if (const auto result = spec_.validate(cluster.gpuCount());
        !result.ok())
        RAP_FATAL("invalid fault spec:\n", result.render());
    if (spec_.hasTransientFaults()) {
        for (int g = 0; g < cluster.gpuCount(); ++g)
            cluster.device(g).setFaultInjector(this);
    }
    auto &engine = cluster.engine();
    for (const auto &e : spec_.events) {
        if (e.kind == FaultKind::TransientKernel)
            continue; // consulted live at launch time
        engine.schedule(e.time, [&cluster, e] {
            const int first = e.device < 0 ? 0 : e.device;
            const int last =
                e.device < 0 ? cluster.gpuCount() - 1 : e.device;
            for (int g = first; g <= last; ++g) {
                auto &device = cluster.device(g);
                switch (e.kind) {
                  case FaultKind::SmDegrade:
                    device.degradeSm(e.factor);
                    break;
                  case FaultKind::HbmDegrade:
                    device.degradeBw(e.factor);
                    break;
                  case FaultKind::LinkSlow:
                    if (e.link == FaultLink::HostLink) {
                        device.h2dLink().setRateScale(e.factor);
                    } else {
                        device.p2pLink().setRateScale(e.factor);
                    }
                    break;
                  case FaultKind::DeviceCrash:
                    device.crash();
                    break;
                  case FaultKind::TransientKernel:
                    break;
                }
            }
            if (e.kind == FaultKind::LinkSlow &&
                e.link == FaultLink::Fabric) {
                cluster.setCollectiveBandwidthScale(e.factor);
            }
        });
    }
}

bool
FaultInjector::shouldFailLaunch(Seconds now, int device, int attempt)
{
    if (attempt >= spec_.retry.maxAttempts)
        return false; // the final allowed attempt always succeeds
    for (const auto &e : spec_.events) {
        if (e.kind != FaultKind::TransientKernel)
            continue;
        if (e.device >= 0 && e.device != device)
            continue;
        if (now < e.time || now >= e.until)
            continue;
        if (rng_.bernoulli(e.probability)) {
            ++injectedFailures_;
            return true;
        }
    }
    return false;
}

Seconds
FaultInjector::backoff(int attempt) const
{
    RAP_ASSERT(attempt >= 1, "backoff is defined for attempts >= 1");
    Seconds delay = spec_.retry.backoffBase;
    for (int i = 1; i < attempt && delay < spec_.retry.backoffCap; ++i)
        delay *= 2.0;
    return std::min(delay, spec_.retry.backoffCap);
}

} // namespace rap::sim
