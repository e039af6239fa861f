#include "sim/engine.hpp"

#include <algorithm>
#include <limits>
#include <utility>

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
    std::uint32_t slot;
    if (freeSlots_.empty()) {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.push_back(std::move(fn));
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
        slots_[slot] = std::move(fn);
    }
    queue_.push(Ref{std::max(t, now_), nextSeq_++, slot});
    maxDepth_ = std::max(maxDepth_, queue_.size());
}

void
Engine::scheduleAfter(Seconds dt, EventCallback fn)
{
    schedule(now_ + dt, std::move(fn));
}

void
Engine::run()
{
    RAP_ASSERT(!running_, "Engine::run is not reentrant");
    running_ = true;
    // An event at +infinity never fires: it marks "never", not a time.
    while (!queue_.empty() &&
           queue_.top().time <= std::numeric_limits<Seconds>::max()) {
        const Ref ref = queue_.top();
        queue_.pop();
        now_ = ref.time;
        ++executed_;
        // Free the slot before the call, so the callback's own
        // schedule() calls may reuse it.
        EventCallback fn = std::exchange(slots_[ref.slot], nullptr);
        freeSlots_.push_back(ref.slot);
        fn();
    }
    running_ = false;
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
makeEvent()
{
    return std::make_shared<SimEvent>();
}

} // namespace rap::sim
