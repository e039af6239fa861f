#include "sim/engine.hpp"

#include <algorithm>
#include <limits>

#include "common/log.hpp"

namespace rap::sim {

namespace {

constexpr Seconds kTimeEps = 1e-12;

} // namespace

void
Engine::schedule(Seconds t, EventCallback fn)
{
    RAP_ASSERT(t >= now_ - kTimeEps, "cannot schedule into the past: t=", t,
               " now=", now_);
    const EventHandle handle = pool_.acquire(std::move(fn));
    queue_.push(Ref{std::max(t, now_), nextSeq_++, handle});
    maxDepth_ = std::max(maxDepth_, queue_.size());
}

void
Engine::scheduleAfter(Seconds dt, EventCallback fn)
{
    schedule(now_ + dt, std::move(fn));
}

void
Engine::drain(Seconds limit)
{
    RAP_ASSERT(!running_, "Engine::run is not reentrant");
    running_ = true;
    while (!queue_.empty() && queue_.top().time <= limit) {
        const Ref ref = queue_.top();
        queue_.pop();
        now_ = ref.time;
        ++executed_;
        EventCallback fn = pool_.take(ref.handle);
        fn();
    }
    running_ = false;
}

void
Engine::run()
{
    // An event at +infinity never fires: it marks "never", not a time.
    drain(std::numeric_limits<Seconds>::max());
}

void
Engine::runUntil(Seconds t)
{
    drain(t);
    now_ = std::max(now_, t);
}

void
SimEvent::addWaiter(Engine &engine, std::function<void()> fn)
{
    if (fired_) {
        engine.schedule(engine.now(), std::move(fn));
    } else {
        waiters_.push_back(std::move(fn));
    }
}

void
SimEvent::fire(Engine &engine)
{
    if (fired_)
        return;
    fired_ = true;
    fireTime_ = engine.now();
    for (auto &w : waiters_)
        engine.schedule(engine.now(), std::move(w));
    waiters_.clear();
}

SimEventPtr
makeEvent(std::string name)
{
    return std::make_shared<SimEvent>(std::move(name));
}

} // namespace rap::sim
