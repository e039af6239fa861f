/**
 * @file
 * CUDA-stream-like in-order work queues.
 *
 * A Stream is an ordered queue of operations executed one at a time:
 * GPU kernels, host-to-device / peer-to-peer copies, host CPU tasks,
 * collectives, event waits/records, and zero-time callbacks. Streams on
 * the same device co-run: their resident kernels share the device's
 * resources through the contention model in Device.
 */

#ifndef RAP_SIM_STREAM_HPP
#define RAP_SIM_STREAM_HPP

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <variant>

#include "common/units.hpp"
#include "sim/engine.hpp"
#include "sim/interconnect.hpp"
#include "sim/kernel.hpp"

namespace rap::sim {

class Device;
class Host;

/** Direction of a data copy. */
enum class CopyKind {
    HostToDevice,
    /** Checkpoint drain; shares the PCIe link with HostToDevice. */
    DeviceToHost,
    PeerToPeer,
};

/**
 * In-order operation queue bound to either a Device or the Host.
 *
 * The launch group models the CPU-side kernel-launch path: kernel
 * launches from streams sharing a group serialise behind each other
 * (same-process CUDA streams), while distinct groups launch
 * independently (separate MPS processes).
 */
class Stream
{
  public:
    /**
     * @param engine The simulation engine.
     * @param name Diagnostic name.
     * @param device Owning device, or nullptr for a host stream.
     * @param host Owning host, or nullptr for a device stream.
     * @param launch_group Kernel-launch serialisation group.
     * @param priority Resource priority: 0 is highest (CUDA's default
     *        stream); larger values receive only the resources higher
     *        classes leave unused (CUDA low-priority streams).
     */
    Stream(Engine &engine, std::string name, Device *device, Host *host,
           int launch_group, int priority = 0);

    Stream(const Stream &) = delete;
    Stream &operator=(const Stream &) = delete;

    /**
     * Enqueue a GPU kernel; @p on_done runs at kernel completion. The
     * descriptor is shared, not copied: a caller pushing the same
     * kernel every batch builds it once.
     */
    void pushKernel(KernelPtr desc, std::function<void()> on_done = {});

    /** Enqueue a GPU kernel from a descriptor the stream takes over. */
    void pushKernel(KernelDesc desc, std::function<void()> on_done = {});

    /** Enqueue a copy of @p bytes; device streams only. */
    void pushCopy(CopyKind kind, Bytes bytes,
                  std::function<void()> on_done = {});

    /**
     * Enqueue a host CPU task needing @p cores cores for @p cpu_seconds
     * wall seconds; host streams only.
     */
    void pushCpuTask(Seconds cpu_seconds, int cores,
                     std::function<void()> on_done = {});

    /** Enqueue a blocking wait on @p event. */
    void pushWait(SimEventPtr event);

    /** Enqueue a record (fire) of @p event. */
    void pushRecord(SimEventPtr event);

    /** Enqueue a zero-time host callback. */
    void pushCallback(std::function<void()> fn);

    /**
     * Enqueue a fixed in-stream delay (e.g. eager-framework dispatch
     * overhead between kernel launches).
     */
    void pushDelay(Seconds duration);

    /** Enqueue participation in @p collective; device streams only. */
    void pushCollective(CollectivePtr collective,
                        std::function<void()> on_done = {});

    /** @return True when no operation is queued or in flight. */
    bool idle() const { return !busy_ && queue_.empty(); }

    const std::string &name() const { return name_; }
    int launchGroup() const { return launchGroup_; }
    int priority() const { return priority_; }
    Device *device() const { return device_; }

    /** @return Number of operations ever pushed. */
    std::size_t pushedOps() const { return pushedOps_; }

  private:
    /**
     * One queued operation. A stream can hold thousands of them, so
     * the per-kind fields share storage: one scalar, one small integer
     * and one handle.
     */
    struct Op
    {
        enum class Kind : std::uint8_t {
            Kernel,
            Copy,
            CpuTask,
            Wait,
            Record,
            Callback,
            Collective,
            Delay,
        };
        Kind kind;
        /** Copy: the CopyKind; CpuTask: the cores. */
        int aux = 0;
        /** Copy: bytes; CpuTask: CPU seconds; Delay: seconds. */
        double amount = 0.0;
        /** Kernel, Wait/Record or Collective handle; else null. */
        std::variant<KernelPtr, SimEventPtr, CollectivePtr> handle;
        std::function<void()> callback;
    };

    void push(Op op);
    void maybeStart();

    /** Finish the in-flight op: run its callback, start the next. */
    void opDone();

    Engine &engine_;
    std::string name_;
    Device *device_;
    Host *host_;
    int launchGroup_;
    int priority_;
    std::deque<Op> queue_;
    bool busy_ = false;
    /**
     * The in-flight op's callback. At most one op is in flight, so
     * the device, link, host or collective running it is handed a
     * `[this]` continuation that fits std::function's local buffer.
     */
    std::function<void()> inFlight_;
    std::size_t pushedOps_ = 0;
};

} // namespace rap::sim

#endif // RAP_SIM_STREAM_HPP
