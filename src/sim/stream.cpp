#include "sim/stream.hpp"

#include <utility>

#include "common/log.hpp"
#include "sim/device.hpp"
#include "sim/host.hpp"

namespace rap::sim {

Stream::Stream(Engine &engine, std::string name, Device *device,
               Host *host, int launch_group, int priority)
    : engine_(engine), name_(std::move(name)), device_(device),
      host_(host), launchGroup_(launch_group), priority_(priority)
{
    RAP_ASSERT((device_ != nullptr) != (host_ != nullptr),
               "a stream belongs to exactly one of device/host");
}

void
Stream::pushKernel(KernelPtr desc, std::function<void()> on_done)
{
    RAP_ASSERT(device_, "kernels require a device stream");
    RAP_ASSERT(desc, "cannot launch a null kernel");
    Op op;
    op.kind = Op::Kind::Kernel;
    op.handle = std::move(desc);
    op.callback = std::move(on_done);
    push(std::move(op));
}

void
Stream::pushKernel(KernelDesc desc, std::function<void()> on_done)
{
    pushKernel(std::make_shared<const KernelDesc>(std::move(desc)),
               std::move(on_done));
}

void
Stream::pushCopy(CopyKind kind, Bytes bytes, std::function<void()> on_done)
{
    RAP_ASSERT(device_, "copies require a device stream");
    Op op;
    op.kind = Op::Kind::Copy;
    op.aux = static_cast<int>(kind);
    op.amount = bytes;
    op.callback = std::move(on_done);
    push(std::move(op));
}

void
Stream::pushCpuTask(Seconds cpu_seconds, int cores,
                    std::function<void()> on_done)
{
    RAP_ASSERT(host_, "CPU tasks require a host stream");
    Op op;
    op.kind = Op::Kind::CpuTask;
    op.aux = cores;
    op.amount = cpu_seconds;
    op.callback = std::move(on_done);
    push(std::move(op));
}

void
Stream::pushWait(SimEventPtr event)
{
    RAP_ASSERT(event, "cannot wait on a null event");
    Op op;
    op.kind = Op::Kind::Wait;
    op.handle = std::move(event);
    push(std::move(op));
}

void
Stream::pushRecord(SimEventPtr event)
{
    RAP_ASSERT(event, "cannot record a null event");
    Op op;
    op.kind = Op::Kind::Record;
    op.handle = std::move(event);
    push(std::move(op));
}

void
Stream::pushCallback(std::function<void()> fn)
{
    Op op;
    op.kind = Op::Kind::Callback;
    op.callback = std::move(fn);
    push(std::move(op));
}

void
Stream::pushDelay(Seconds duration)
{
    RAP_ASSERT(duration >= 0, "delay must be >= 0");
    Op op;
    op.kind = Op::Kind::Delay;
    op.amount = duration;
    push(std::move(op));
}

void
Stream::pushCollective(CollectivePtr collective,
                       std::function<void()> on_done)
{
    RAP_ASSERT(device_, "collectives require a device stream");
    RAP_ASSERT(collective, "cannot join a null collective");
    Op op;
    op.kind = Op::Kind::Collective;
    op.handle = std::move(collective);
    op.callback = std::move(on_done);
    push(std::move(op));
}

void
Stream::push(Op op)
{
    ++pushedOps_;
    queue_.push_back(std::move(op));
    maybeStart();
}

void
Stream::opDone()
{
    // Take the callback out first: it may push work onto this stream.
    if (auto cb = std::exchange(inFlight_, nullptr))
        cb();
    busy_ = false;
    maybeStart();
}

void
Stream::maybeStart()
{
    while (!busy_ && !queue_.empty()) {
        Op op = std::move(queue_.front());
        queue_.pop_front();

        switch (op.kind) {
          case Op::Kind::Callback:
            if (op.callback)
                op.callback();
            break;

          case Op::Kind::Record:
            std::get<SimEventPtr>(op.handle)->fire(engine_);
            break;

          case Op::Kind::Wait: {
            const auto &event = std::get<SimEventPtr>(op.handle);
            if (event->fired())
                break;
            busy_ = true;
            event->addWaiter(engine_, [this] {
                busy_ = false;
                maybeStart();
            });
            return;
          }

          case Op::Kind::Kernel:
            busy_ = true;
            inFlight_ = std::move(op.callback);
            device_->launchKernel(*this,
                                  std::get<KernelPtr>(std::move(op.handle)),
                                  [this] { opDone(); });
            return;

          case Op::Kind::Copy:
            busy_ = true;
            inFlight_ = std::move(op.callback);
            device_->submitCopy(static_cast<CopyKind>(op.aux), op.amount,
                                [this] { opDone(); });
            return;

          case Op::Kind::CpuTask:
            busy_ = true;
            inFlight_ = std::move(op.callback);
            host_->submit(op.amount, op.aux, [this] { opDone(); });
            return;

          case Op::Kind::Collective:
            busy_ = true;
            inFlight_ = std::move(op.callback);
            std::get<CollectivePtr>(op.handle)->arrive(
                [this] { opDone(); });
            return;

          case Op::Kind::Delay:
            busy_ = true;
            engine_.scheduleAfter(op.amount, [this] { opDone(); });
            return;
        }
    }
}

} // namespace rap::sim
