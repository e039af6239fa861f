/**
 * @file
 * Utilisation and kernel-timing traces recorded by each simulated GPU.
 *
 * The trace feeds the paper's profiling figures: the per-iteration
 * DRAM/SM utilisation curves of Figure 1(a) and the turning-point
 * utilisation numbers of Table 4.
 */

#ifndef RAP_SIM_TRACE_HPP
#define RAP_SIM_TRACE_HPP

#include <string>
#include <vector>

#include "common/units.hpp"

namespace rap::sim {

/** A period of constant resource usage on one GPU. */
struct UtilSegment
{
    Seconds begin = 0.0;
    Seconds end = 0.0;
    double smUsage = 0.0; ///< fraction of warp slots consumed
    double bwUsage = 0.0; ///< fraction of DRAM bandwidth consumed
    int residentKernels = 0;
};

/** Completion record of one simulated kernel. */
struct KernelRecord
{
    std::string name;
    std::string stream;
    Seconds start = 0.0;
    Seconds end = 0.0;
    Seconds exclusiveLatency = 0.0;

    /** @return Wall time the kernel actually took. */
    Seconds duration() const { return end - start; }

    /** @return Extra time caused by contention (>= 0). */
    Seconds stretch() const { return duration() - exclusiveLatency; }
};

/**
 * Per-device trace accumulating utilisation segments and kernel records.
 *
 * A run that only needs the averages over one window arms that window
 * and turns recording off: the trace then integrates each segment as
 * it arrives and holds three sums instead of one segment per device
 * state change.
 */
class Trace
{
  public:
    /**
     * Enable/disable keeping segments and kernel records (on by
     * default). Only the Chrome trace export and averages over windows
     * other than the armed one read them, so runs that write no trace
     * turn recording off; the device's own retire and stall tallies do
     * not depend on it.
     */
    void setRecording(bool on) { recording_ = on; }

    /** @return Whether addSegment and addKernel keep what they get. */
    bool recording() const { return recording_; }

    /**
     * Arm the window [@p start, @p end] whose averages are accumulated
     * as segments arrive. The bounds are read through their addresses,
     * which must outlive the trace's use: a bound below zero is not
     * set yet. The caller sets them from the simulation clock, so a
     * segment that arrives before a bound is set ends at or before it,
     * and the accumulated averages equal integrating every segment over
     * the final window, bit for bit.
     */
    void armWindow(const Seconds &start, const Seconds &end);

    /** Append a utilisation segment (called by Device). */
    void addSegment(const UtilSegment &segment);

    /** Append a kernel record (called by Device). */
    void addKernel(KernelRecord record);

    const std::vector<UtilSegment> &segments() const { return segments_; }
    const std::vector<KernelRecord> &kernels() const { return kernels_; }

    /**
     * Average SM usage over [t0, t1], weighting by segment length.
     * The armed window reads its accumulated sum; any other window
     * needs the segments recorded.
     */
    double avgSmUsage(Seconds t0, Seconds t1) const;

    /** Average DRAM-bandwidth usage over [t0, t1]. */
    double avgBwUsage(Seconds t0, Seconds t1) const;

    /** Fraction of [t0, t1] with at least one kernel resident. */
    double busyFraction(Seconds t0, Seconds t1) const;

    /** Drop all recorded data and the armed window's sums. */
    void clear();

  private:
    /** Running areas (value x seconds) inside the armed window. */
    struct WindowAreas
    {
        double sm = 0.0;
        double bw = 0.0;
        double busy = 0.0;
    };

    void accumulate(const UtilSegment &segment);
    bool isArmedWindow(Seconds t0, Seconds t1) const;
    double integrate(Seconds t0, Seconds t1,
                     double (*value)(const UtilSegment &)) const;

    std::vector<UtilSegment> segments_;
    std::vector<KernelRecord> kernels_;
    const Seconds *windowStart_ = nullptr;
    const Seconds *windowEnd_ = nullptr;
    WindowAreas window_;
    bool recording_ = true;
};

} // namespace rap::sim

#endif // RAP_SIM_TRACE_HPP
