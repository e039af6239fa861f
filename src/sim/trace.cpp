#include "sim/trace.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace rap::sim {

void
Trace::addSegment(const UtilSegment &segment)
{
    if (!recordSegments_)
        return;
    if (segment.end <= segment.begin)
        return;
    segments_.push_back(segment);
}

void
Trace::addKernel(KernelRecord record)
{
    if (!recordKernels_)
        return;
    kernels_.push_back(std::move(record));
}

double
Trace::integrate(Seconds t0, Seconds t1,
                 double (*value)(const UtilSegment &)) const
{
    if (t1 <= t0)
        return 0.0;
    double area = 0.0;
    for (const auto &seg : segments_) {
        const Seconds lo = std::max(t0, seg.begin);
        const Seconds hi = std::min(t1, seg.end);
        if (hi > lo)
            area += (hi - lo) * value(seg);
    }
    return area / (t1 - t0);
}

double
Trace::avgSmUsage(Seconds t0, Seconds t1) const
{
    return integrate(t0, t1,
                     [](const UtilSegment &s) { return s.smUsage; });
}

double
Trace::avgBwUsage(Seconds t0, Seconds t1) const
{
    return integrate(t0, t1,
                     [](const UtilSegment &s) { return s.bwUsage; });
}

double
Trace::busyFraction(Seconds t0, Seconds t1) const
{
    return integrate(t0, t1, [](const UtilSegment &s) {
        return s.residentKernels > 0 ? 1.0 : 0.0;
    });
}

void
Trace::clear()
{
    segments_.clear();
    kernels_.clear();
}

} // namespace rap::sim
