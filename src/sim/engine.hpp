/**
 * @file
 * Discrete-event simulation core: the engine clock/queue and the
 * CUDA-event-like synchronisation primitive.
 *
 * The engine is the classic serial DES loop: every schedule() lands
 * in one queue ordered on (time, sequence number), and run() drains
 * it. Events scheduled for the same instant fire in scheduling order,
 * which keeps every simulation fully deterministic. Pending callbacks
 * sit in slots the engine owns and recycles, so the steady-state
 * queue churn allocates nothing.
 *
 * Beside the queue sit re-armable timers: a client whose next firing
 * keeps moving (a device's next kernel retirement) registers one
 * callback once and re-arms it, so a superseded firing is replaced
 * instead of left in the queue to fire stale. Arming takes the next
 * sequence number exactly as schedule() would, so a timer ties with
 * queued events as the equivalent schedule() call would have.
 */

#ifndef RAP_SIM_ENGINE_HPP
#define RAP_SIM_ENGINE_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "common/units.hpp"

namespace rap::sim {

using EventCallback = std::function<void()>;

/** Handle of a timer registered with Engine::addTimer. */
using TimerId = std::uint32_t;

/** The discrete-event engine: one time-ordered callback queue. */
class Engine
{
  public:
    Engine() = default;

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** @return Current simulated time. */
    Seconds now() const { return now_; }

    /** Schedule @p fn to run at absolute time @p t (>= now()). */
    void schedule(Seconds t, EventCallback fn);

    /** Schedule @p fn to run @p dt seconds from now. */
    void scheduleAfter(Seconds dt, EventCallback fn);

    /**
     * Register a re-armable timer that runs @p fn each time it fires.
     * It starts disarmed; register every timer before run().
     */
    TimerId addTimer(EventCallback fn);

    /**
     * Arm @p timer to fire at absolute time @p t (>= now()), replacing
     * its pending firing if it has one. The callback may re-arm its
     * own timer.
     */
    void arm(TimerId timer, Seconds t);

    /** Cancel @p timer's pending firing, if any. */
    void disarm(TimerId timer);

    /**
     * Run until the event queue drains and no timer is armed. Events
     * and timers at +infinity mark "never" and are left pending.
     */
    void run();

    /** @return Total number of events executed so far. */
    std::uint64_t eventsExecuted() const { return executed_; }

    /** @return Largest pending-event depth (armed timers included). */
    std::size_t maxQueueDepth() const { return maxDepth_; }

  private:
    /** A pending event: its order key and the slot of its callback. */
    struct Ref
    {
        Seconds time;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    struct RefCompare
    {
        bool
        operator()(const Ref &a, const Ref &b) const
        {
            if (a.time != b.time)
                return a.time > b.time;
            return a.seq > b.seq;
        }
    };

    struct Timer
    {
        Seconds time = 0.0;
        std::uint64_t seq = 0;
        bool armed = false;
        EventCallback fn;
    };

    static constexpr TimerId kNoTimer = ~TimerId{0};

    /** Point earliest_ at the first armed timer in (time, seq). */
    void findEarliestTimer();

    /** Raise maxDepth_ to the current pending count. */
    void noteDepth();

    std::priority_queue<Ref, std::vector<Ref>, RefCompare> queue_;
    /** Callbacks of pending events; a freed slot is reused. */
    std::vector<EventCallback> slots_;
    std::vector<std::uint32_t> freeSlots_;
    /**
     * Few timers exist (one per device), so a linear scan finds the
     * earliest one on each arm instead of a second heap.
     */
    std::vector<Timer> timers_;
    TimerId earliest_ = kNoTimer;
    std::size_t armedTimers_ = 0;
    Seconds now_ = 0.0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t maxDepth_ = 0;
    bool running_ = false;
};

/**
 * One-shot synchronisation event, analogous to a cudaEvent_t.
 *
 * Streams wait on it (blocking their queue) and record it (firing it).
 * Once fired it stays fired; late waiters pass through immediately.
 */
class SimEvent
{
  public:
    bool fired() const { return fired_; }

    /** @return The simulated time the event fired (valid once fired). */
    Seconds fireTime() const { return fireTime_; }

    /**
     * Register a continuation to run when the event fires. If already
     * fired, the continuation runs via the engine at the current time.
     */
    void addWaiter(Engine &engine, std::function<void()> fn);

    /** Fire the event now; releases all waiters through the engine. */
    void fire(Engine &engine);

  private:
    bool fired_ = false;
    Seconds fireTime_ = 0.0;
    std::vector<std::function<void()>> waiters_;
};

using SimEventPtr = std::shared_ptr<SimEvent>;

/** @return A fresh, unfired SimEvent. */
SimEventPtr makeEvent();

} // namespace rap::sim

#endif // RAP_SIM_ENGINE_HPP
