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
    noteDepth();
}

void
Engine::scheduleAfter(Seconds dt, EventCallback fn)
{
    schedule(now_ + dt, std::move(fn));
}

TimerId
Engine::addTimer(EventCallback fn)
{
    // run() calls a firing timer's callback in place, so the vector
    // must not grow under it.
    RAP_ASSERT(!running_, "register timers before Engine::run");
    timers_.push_back(Timer{0.0, 0, false, std::move(fn)});
    return static_cast<TimerId>(timers_.size() - 1);
}

void
Engine::arm(TimerId timer, Seconds t)
{
    RAP_ASSERT(t >= now_ - kTimeEps, "cannot arm a timer in the past: t=",
               t, " now=", now_);
    Timer &entry = timers_[timer];
    if (!entry.armed) {
        entry.armed = true;
        ++armedTimers_;
    }
    entry.time = std::max(t, now_);
    entry.seq = nextSeq_++;
    // The fresh seq is the largest yet, so the timer can only move
    // ahead of the earliest one on a strictly earlier time.
    if (earliest_ == timer) {
        findEarliestTimer();
    } else if (earliest_ == kNoTimer ||
               entry.time < timers_[earliest_].time) {
        earliest_ = timer;
    }
    noteDepth();
}

void
Engine::disarm(TimerId timer)
{
    Timer &entry = timers_[timer];
    if (!entry.armed)
        return;
    entry.armed = false;
    --armedTimers_;
    if (earliest_ == timer)
        findEarliestTimer();
}

void
Engine::findEarliestTimer()
{
    earliest_ = kNoTimer;
    for (TimerId i = 0; i < timers_.size(); ++i) {
        const Timer &t = timers_[i];
        if (!t.armed)
            continue;
        if (earliest_ == kNoTimer || t.time < timers_[earliest_].time ||
            (t.time == timers_[earliest_].time &&
             t.seq < timers_[earliest_].seq)) {
            earliest_ = i;
        }
    }
}

void
Engine::noteDepth()
{
    maxDepth_ = std::max(maxDepth_, queue_.size() + armedTimers_);
}

void
Engine::run()
{
    RAP_ASSERT(!running_, "Engine::run is not reentrant");
    running_ = true;
    for (;;) {
        // The next firing is the earlier, in (time, seq), of the queue
        // head and the earliest armed timer.
        const Timer *timer =
            earliest_ == kNoTimer ? nullptr : &timers_[earliest_];
        const bool from_timer =
            timer != nullptr &&
            (queue_.empty() || timer->time < queue_.top().time ||
             (timer->time == queue_.top().time &&
              timer->seq < queue_.top().seq));
        if (!from_timer && queue_.empty())
            break;
        const Seconds t = from_timer ? timer->time : queue_.top().time;
        // An event at +infinity never fires: it marks "never", not a
        // time.
        if (!(t <= std::numeric_limits<Seconds>::max()))
            break;
        now_ = t;
        ++executed_;
        if (from_timer) {
            // Disarm before the call, so the callback may re-arm.
            const TimerId id = earliest_;
            disarm(id);
            timers_[id].fn();
            continue;
        }
        const Ref ref = queue_.top();
        queue_.pop();
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
