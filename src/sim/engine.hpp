/**
 * @file
 * Discrete-event simulation core: the engine clock/queue and the
 * CUDA-event-like synchronisation primitive.
 *
 * The engine is the classic serial DES loop: every schedule() lands
 * in one queue ordered on (time, sequence number), and run() drains
 * it. Events scheduled for the same instant fire in scheduling order,
 * which keeps every simulation fully deterministic. Pending callbacks
 * live in an EventPool (recycled slab nodes), so the steady-state
 * queue churn allocates nothing.
 */

#ifndef RAP_SIM_ENGINE_HPP
#define RAP_SIM_ENGINE_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "sim/event_pool.hpp"

namespace rap::sim {

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

    /** Run until the event queue drains. */
    void run();

    /**
     * Run until the queue drains or the next event lies past @p t,
     * then advance the clock to @p t.
     */
    void runUntil(Seconds t);

    /** @return Total number of events executed so far. */
    std::uint64_t eventsExecuted() const { return executed_; }

    /** @return Largest pending-event depth observed. */
    std::size_t maxQueueDepth() const { return maxDepth_; }

  private:
    struct Ref
    {
        Seconds time;
        std::uint64_t seq;
        EventHandle handle;
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

    /** Execute every pending event with time <= @p limit, in order. */
    void drain(Seconds limit);

    std::priority_queue<Ref, std::vector<Ref>, RefCompare> queue_;
    EventPool pool_;
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
    explicit SimEvent(std::string name) : name_(std::move(name)) {}

    bool fired() const { return fired_; }

    /** @return The simulated time the event fired (valid once fired). */
    Seconds fireTime() const { return fireTime_; }

    const std::string &name() const { return name_; }

    /**
     * Register a continuation to run when the event fires. If already
     * fired, the continuation runs via the engine at the current time.
     */
    void addWaiter(Engine &engine, std::function<void()> fn);

    /** Fire the event now; releases all waiters through the engine. */
    void fire(Engine &engine);

  private:
    std::string name_;
    bool fired_ = false;
    Seconds fireTime_ = 0.0;
    std::vector<std::function<void()>> waiters_;
};

using SimEventPtr = std::shared_ptr<SimEvent>;

/** @return A fresh named SimEvent. */
SimEventPtr makeEvent(std::string name);

} // namespace rap::sim

#endif // RAP_SIM_ENGINE_HPP
