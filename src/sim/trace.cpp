#include "sim/trace.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace rap::sim {

namespace {

double
smOf(const UtilSegment &s)
{
    return s.smUsage;
}

double
bwOf(const UtilSegment &s)
{
    return s.bwUsage;
}

double
busyOf(const UtilSegment &s)
{
    return s.residentKernels > 0 ? 1.0 : 0.0;
}

/** Average over [t0, t1] of an accumulated @p area. */
double
average(double area, Seconds t0, Seconds t1)
{
    return t1 <= t0 ? 0.0 : area / (t1 - t0);
}

} // namespace

void
Trace::armWindow(const Seconds &start, const Seconds &end)
{
    windowStart_ = &start;
    windowEnd_ = &end;
}

void
Trace::addSegment(const UtilSegment &segment)
{
    if (segment.end <= segment.begin)
        return;
    if (windowStart_ != nullptr)
        accumulate(segment);
    if (recording_)
        segments_.push_back(segment);
}

void
Trace::accumulate(const UtilSegment &segment)
{
    // The same clip and additions as integrate, in arrival order. A
    // segment that arrives before the start is set ends at or before
    // it, so it adds nothing. One that arrives before the end is set
    // ends at or before it, so the end does not clip it.
    const Seconds t0 = *windowStart_;
    if (t0 < 0.0)
        return;
    const Seconds t1 = *windowEnd_;
    const Seconds lo = std::max(t0, segment.begin);
    const Seconds hi = t1 < 0.0 ? segment.end : std::min(t1, segment.end);
    if (hi > lo) {
        window_.sm += (hi - lo) * smOf(segment);
        window_.bw += (hi - lo) * bwOf(segment);
        window_.busy += (hi - lo) * busyOf(segment);
    }
}

bool
Trace::isArmedWindow(Seconds t0, Seconds t1) const
{
    return windowStart_ != nullptr && t0 == *windowStart_ &&
           t1 == *windowEnd_;
}

void
Trace::addKernel(KernelRecord record)
{
    if (!recording_)
        return;
    kernels_.push_back(std::move(record));
}

double
Trace::integrate(Seconds t0, Seconds t1,
                 double (*value)(const UtilSegment &)) const
{
    RAP_ASSERT(recording_,
               "averaging a window other than the armed one needs "
               "recorded segments");
    if (t1 <= t0)
        return 0.0;
    double area = 0.0;
    for (const auto &seg : segments_) {
        const Seconds lo = std::max(t0, seg.begin);
        const Seconds hi = std::min(t1, seg.end);
        if (hi > lo)
            area += (hi - lo) * value(seg);
    }
    return average(area, t0, t1);
}

double
Trace::avgSmUsage(Seconds t0, Seconds t1) const
{
    return isArmedWindow(t0, t1) ? average(window_.sm, t0, t1)
                                 : integrate(t0, t1, smOf);
}

double
Trace::avgBwUsage(Seconds t0, Seconds t1) const
{
    return isArmedWindow(t0, t1) ? average(window_.bw, t0, t1)
                                 : integrate(t0, t1, bwOf);
}

double
Trace::busyFraction(Seconds t0, Seconds t1) const
{
    return isArmedWindow(t0, t1) ? average(window_.busy, t0, t1)
                                 : integrate(t0, t1, busyOf);
}

void
Trace::clear()
{
    segments_.clear();
    kernels_.clear();
    window_ = {};
}

} // namespace rap::sim
