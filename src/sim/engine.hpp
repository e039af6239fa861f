/**
 * @file
 * Discrete-event simulation core: the engine clock/queue and the
 * CUDA-event-like synchronisation primitive.
 *
 * The engine supports two execution shapes behind one API:
 *
 *  - Single zone (the default): the classic serial DES loop. Every
 *    schedule() lands in one time-ordered queue and run() drains it.
 *    Trainer, fleet and serving simulations use this shape: their
 *    all-GPU collectives synchronise every device each iteration.
 *
 *  - Partitioned zones (configureZones): devices are grouped into
 *    time zones that advance in conservatively-synchronised lookahead
 *    windows. Per window, every zone independently executes its
 *    events with time < T_min + lookahead, where T_min is the global
 *    minimum pending timestamp and the lookahead is the minimum
 *    cross-zone notification latency (for a GPU fleet: the minimum
 *    interconnect latency). Cross-zone events — which must land at
 *    least one lookahead in the future — travel through bounded
 *    lock-free inboxes and are delivered at the window barrier,
 *    re-sorted by the deterministic key (time, source zone, source
 *    sequence number). Zones touch disjoint state, so the window body
 *    can run on worker threads; the worker count is given together
 *    with the partition and exists nowhere else. Event order within
 *    every zone — and therefore every simulation result — is
 *    byte-identical at any job count, including 1.
 *
 * Events scheduled for the same instant in the same zone fire in
 * scheduling order, which keeps every simulation fully deterministic.
 * Pending callbacks live in a per-zone EventPool (recycled slab
 * nodes), so the steady-state queue churn allocates nothing.
 */

#ifndef RAP_SIM_ENGINE_HPP
#define RAP_SIM_ENGINE_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <vector>

#include "common/lockfree_queue.hpp"
#include "common/units.hpp"
#include "sim/event_pool.hpp"

namespace rap::sim {

/**
 * The discrete-event engine: one or more time-ordered callback
 * queues (see the file comment for the parallel-zone semantics).
 */
class Engine
{
  public:
    Engine();
    ~Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /**
     * @return Current simulated time: the executing zone's clock from
     * inside an event, the completed-time frontier (max zone clock)
     * from outside.
     */
    Seconds now() const;

    /**
     * Schedule @p fn to run at absolute time @p t (>= now()). From
     * inside an event the new event lands in the executing zone;
     * outside of run() it lands in zone 0.
     */
    void schedule(Seconds t, EventCallback fn);

    /** Schedule @p fn to run @p dt seconds from now. */
    void scheduleAfter(Seconds dt, EventCallback fn);

    /**
     * Schedule @p fn at time @p t in @p zone. From inside an event of
     * a *different* zone this is a cross-zone send and @p t must be at
     * least one lookahead past the sender's clock (panics otherwise —
     * that is the conservative-synchronisation contract). During
     * setup, or from the same zone, it is an ordinary schedule.
     */
    void schedule(Seconds t, int zone, EventCallback fn);

    /** Run until every zone's event queue drains. */
    void run();

    /**
     * Run until the queue drains or the clock passes @p t.
     * Single-zone engines only.
     */
    void runUntil(Seconds t);

    /**
     * Partition the engine into @p zone_count zones synchronised on
     * @p lookahead (must be > 0 for more than one zone), executed by
     * @p jobs worker threads (1 = serial; values above the zone count
     * are clamped). Any job count yields byte-identical simulation
     * results. Must be called before anything is scheduled.
     */
    void configureZones(int zone_count, Seconds lookahead, int jobs = 1);

    int zoneCount() const { return static_cast<int>(zones_.size()); }
    Seconds lookahead() const { return lookahead_; }

    /** @return Zone of the currently-executing event (0 outside). */
    int currentZone() const;

    /** @return Total number of events executed so far (all zones). */
    std::uint64_t eventsExecuted() const;

    /** @return Largest pending-event depth observed in any zone. */
    std::size_t maxQueueDepth() const;

    /** @return Conservative windows executed (0 for single zone). */
    std::uint64_t windowsExecuted() const { return windows_; }

    /** @return Cross-zone events sent through the zone inboxes. */
    std::uint64_t crossZoneEvents() const;

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

    /** One cross-zone message; re-sorted on (time, srcZone, srcSeq). */
    struct CrossMsg
    {
        Seconds time = 0.0;
        std::uint32_t srcZone = 0;
        std::uint64_t srcSeq = 0;
        EventCallback fn;
    };

    /**
     * One time zone: a private queue/pool/clock plus the bounded
     * lock-free inbox other zones post into. Only the worker currently
     * executing the zone touches anything but the inbox.
     */
    struct Zone
    {
        explicit Zone(int index_) : index(index_), inbox(kInboxCapacity)
        {
        }

        int index;
        std::priority_queue<Ref, std::vector<Ref>, RefCompare> queue;
        EventPool pool;
        Seconds now = 0.0;
        std::uint64_t nextSeq = 0;
        std::uint64_t executed = 0;
        std::size_t maxDepth = 0;
        /** Monotone per-sender tag making inbox drains sortable. */
        std::uint64_t crossSent = 0;
        MpscQueue<CrossMsg> inbox;
        /** Overflow for a full inbox (rare; mutex-guarded). */
        std::mutex overflowMu;
        std::vector<CrossMsg> overflow;
        std::vector<CrossMsg> drainBuf;
    };

    static constexpr std::size_t kInboxCapacity = 128;

    Zone &callerZone();
    void pushLocal(Zone &zone, Seconds t, EventCallback fn);
    void execZone(Zone &zone, Seconds window_end);
    void drainInbox(Zone &zone);
    void runSingleZone();
    void runWindows();
    void workerLoop(int worker, int worker_count, void *barrier);

    std::vector<std::unique_ptr<Zone>> zones_;
    Seconds lookahead_ = 0.0;
    int jobs_ = 1;
    bool running_ = false;
    bool stopFlag_ = false;
    Seconds windowEnd_ = 0.0;
    std::uint64_t windows_ = 0;
    std::vector<Seconds> localMin_;
};

/**
 * One-shot synchronisation event, analogous to a cudaEvent_t.
 *
 * Streams wait on it (blocking their queue) and record it (firing it).
 * Once fired it stays fired; late waiters pass through immediately.
 * In a partitioned engine a SimEvent must stay zone-local: waiters are
 * released into the zone whose event fires it.
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
