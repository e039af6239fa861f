#include "sim/engine.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <thread>

#include "common/log.hpp"

namespace rap::sim {

namespace {

constexpr Seconds kTimeEps = 1e-12;
constexpr Seconds kInfinity = std::numeric_limits<Seconds>::infinity();

/**
 * Which engine/zone the current thread is executing an event for.
 * Saved and restored around run(), so simulations nested inside an
 * event (the fleet scheduler's inner sims) resolve their own context.
 */
thread_local Engine *tlsEngine = nullptr;
thread_local int tlsZone = 0;

/**
 * Sense-reversing spin barrier for the window workers. Spins briefly,
 * then yields, so oversubscribed machines (CI runners) make progress.
 */
class SpinBarrier
{
  public:
    explicit SpinBarrier(int parties) : parties_(parties) {}

    void
    arriveAndWait()
    {
        const std::uint32_t phase =
            phase_.load(std::memory_order_acquire);
        if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            parties_) {
            arrived_.store(0, std::memory_order_relaxed);
            phase_.store(phase + 1, std::memory_order_release);
            return;
        }
        int spins = 0;
        while (phase_.load(std::memory_order_acquire) == phase) {
            if (++spins > 256) {
                std::this_thread::yield();
                spins = 0;
            }
        }
    }

  private:
    const int parties_;
    std::atomic<int> arrived_{0};
    std::atomic<std::uint32_t> phase_{0};
};

} // namespace

Engine::Engine()
{
    zones_.push_back(std::make_unique<Zone>(0));
}

Engine::~Engine() = default;

void
Engine::configureZones(int zone_count, Seconds lookahead, int jobs)
{
    RAP_ASSERT(!running_, "cannot repartition a running engine");
    RAP_ASSERT(zone_count >= 1, "need at least one zone, got ",
               zone_count);
    RAP_ASSERT(jobs >= 1, "engine jobs must be >= 1, got ", jobs);
    RAP_ASSERT(zone_count == 1 || lookahead > 0.0,
               "multi-zone partitioning needs a positive lookahead "
               "(the minimum cross-zone latency), got ",
               lookahead);
    for (const auto &zone : zones_) {
        RAP_ASSERT(zone->executed == 0 && zone->queue.empty(),
                   "configure zones before scheduling any event");
    }
    zones_.clear();
    for (int z = 0; z < zone_count; ++z)
        zones_.push_back(std::make_unique<Zone>(z));
    lookahead_ = zone_count == 1 ? 0.0 : lookahead;
    jobs_ = jobs;
}

int
Engine::currentZone() const
{
    return tlsEngine == this ? tlsZone : 0;
}

Seconds
Engine::now() const
{
    if (tlsEngine == this)
        return zones_[static_cast<std::size_t>(tlsZone)]->now;
    Seconds frontier = 0.0;
    for (const auto &zone : zones_)
        frontier = std::max(frontier, zone->now);
    return frontier;
}

std::uint64_t
Engine::eventsExecuted() const
{
    std::uint64_t total = 0;
    for (const auto &zone : zones_)
        total += zone->executed;
    return total;
}

std::size_t
Engine::maxQueueDepth() const
{
    std::size_t depth = 0;
    for (const auto &zone : zones_)
        depth = std::max(depth, zone->maxDepth);
    return depth;
}

std::uint64_t
Engine::crossZoneEvents() const
{
    std::uint64_t total = 0;
    for (const auto &zone : zones_)
        total += zone->crossSent;
    return total;
}

Engine::Zone &
Engine::callerZone()
{
    const int zone = tlsEngine == this ? tlsZone : 0;
    return *zones_[static_cast<std::size_t>(zone)];
}

void
Engine::pushLocal(Zone &zone, Seconds t, EventCallback fn)
{
    RAP_ASSERT(t >= zone.now - kTimeEps,
               "cannot schedule into the past: t=", t,
               " now=", zone.now);
    const EventHandle handle = zone.pool.acquire(std::move(fn));
    zone.queue.push(
        Ref{std::max(t, zone.now), zone.nextSeq++, handle});
    zone.maxDepth = std::max(zone.maxDepth, zone.queue.size());
}

void
Engine::schedule(Seconds t, EventCallback fn)
{
    pushLocal(callerZone(), t, std::move(fn));
}

void
Engine::scheduleAfter(Seconds dt, EventCallback fn)
{
    Zone &zone = callerZone();
    pushLocal(zone, zone.now + dt, std::move(fn));
}

void
Engine::schedule(Seconds t, int zone, EventCallback fn)
{
    RAP_ASSERT(zone >= 0 && zone < zoneCount(),
               "zone out of range: ", zone, " of ", zoneCount());
    Zone &dst = *zones_[static_cast<std::size_t>(zone)];
    if (running_ && tlsEngine == this && tlsZone != zone) {
        // Cross-zone send from inside the window body: the target
        // zone may be executing concurrently, so the event goes
        // through its inbox and must respect the lookahead bound.
        Zone &src = *zones_[static_cast<std::size_t>(tlsZone)];
        RAP_ASSERT(t >= src.now + lookahead_ - kTimeEps,
                   "cross-zone event below the lookahead bound: t=", t,
                   " now=", src.now, " lookahead=", lookahead_);
        CrossMsg msg{t, static_cast<std::uint32_t>(tlsZone),
                     src.crossSent++, std::move(fn)};
        if (!dst.inbox.tryPush(std::move(msg))) {
            // Bounded fast path full: fall back to the mutex-guarded
            // overflow list. Delivery order is unaffected (drains
            // re-sort on the deterministic key).
            std::lock_guard<std::mutex> guard(dst.overflowMu);
            dst.overflow.push_back(std::move(msg));
        }
        return;
    }
    pushLocal(dst, t, std::move(fn));
}

void
Engine::execZone(Zone &zone, Seconds window_end)
{
    tlsZone = zone.index;
    while (!zone.queue.empty() &&
           zone.queue.top().time < window_end) {
        const Ref ref = zone.queue.top();
        zone.queue.pop();
        zone.now = ref.time;
        ++zone.executed;
        EventCallback fn = zone.pool.take(ref.handle);
        fn();
    }
}

void
Engine::drainInbox(Zone &zone)
{
    zone.drainBuf.clear();
    CrossMsg msg;
    while (zone.inbox.tryPop(msg))
        zone.drainBuf.push_back(std::move(msg));
    {
        std::lock_guard<std::mutex> guard(zone.overflowMu);
        for (auto &m : zone.overflow)
            zone.drainBuf.push_back(std::move(m));
        zone.overflow.clear();
    }
    if (zone.drainBuf.empty())
        return;
    // Deliver in the deterministic order (time, sender, sender seq):
    // the per-sender tags are themselves deterministic because every
    // zone executes its own events in a fixed order, so the delivered
    // sequence is independent of worker count and race outcomes.
    std::stable_sort(zone.drainBuf.begin(), zone.drainBuf.end(),
                     [](const CrossMsg &a, const CrossMsg &b) {
                         if (a.time != b.time)
                             return a.time < b.time;
                         if (a.srcZone != b.srcZone)
                             return a.srcZone < b.srcZone;
                         return a.srcSeq < b.srcSeq;
                     });
    for (auto &m : zone.drainBuf)
        pushLocal(zone, m.time, std::move(m.fn));
    zone.drainBuf.clear();
}

void
Engine::runSingleZone()
{
    Zone &zone = *zones_[0];
    Engine *prev_engine = tlsEngine;
    const int prev_zone = tlsZone;
    tlsEngine = this;
    running_ = true;
    execZone(zone, kInfinity);
    running_ = false;
    tlsEngine = prev_engine;
    tlsZone = prev_zone;
}

void
Engine::run()
{
    RAP_ASSERT(!running_, "Engine::run is not reentrant");
    if (zones_.size() == 1) {
        runSingleZone();
        return;
    }
    runWindows();
}

void
Engine::runUntil(Seconds t)
{
    RAP_ASSERT(zones_.size() == 1,
               "runUntil requires a single-zone engine");
    RAP_ASSERT(!running_, "Engine::run is not reentrant");
    Zone &zone = *zones_[0];
    Engine *prev_engine = tlsEngine;
    const int prev_zone = tlsZone;
    tlsEngine = this;
    running_ = true;
    while (!zone.queue.empty() && zone.queue.top().time <= t) {
        const Ref ref = zone.queue.top();
        zone.queue.pop();
        zone.now = ref.time;
        ++zone.executed;
        EventCallback fn = zone.pool.take(ref.handle);
        fn();
    }
    running_ = false;
    tlsEngine = prev_engine;
    tlsZone = prev_zone;
    zone.now = std::max(zone.now, t);
}

void
Engine::workerLoop(int worker, int worker_count, void *barrier_opaque)
{
    auto *barrier = static_cast<SpinBarrier *>(barrier_opaque);
    const int zone_count = zoneCount();
    const int begin = worker * zone_count / worker_count;
    const int end = (worker + 1) * zone_count / worker_count;

    Engine *prev_engine = tlsEngine;
    const int prev_zone = tlsZone;
    tlsEngine = this;

    for (;;) {
        // Phase 1: deliver pending cross-zone events, then report the
        // earliest pending timestamp across this worker's zones.
        Seconds local_min = kInfinity;
        for (int z = begin; z < end; ++z) {
            Zone &zone = *zones_[static_cast<std::size_t>(z)];
            drainInbox(zone);
            if (!zone.queue.empty())
                local_min =
                    std::min(local_min, zone.queue.top().time);
        }
        localMin_[static_cast<std::size_t>(worker)] = local_min;
        barrier->arriveAndWait();

        // Phase 2: worker 0 reduces the global minimum and publishes
        // the window bound (or the stop flag when everything drained).
        if (worker == 0) {
            Seconds global_min = kInfinity;
            for (const Seconds m : localMin_)
                global_min = std::min(global_min, m);
            if (global_min == kInfinity) {
                stopFlag_ = true;
            } else {
                windowEnd_ = global_min + lookahead_;
                ++windows_;
            }
        }
        barrier->arriveAndWait();
        if (stopFlag_)
            break;

        // Phase 3: execute the window body. Zones are independent
        // within the window, so this is the parallel section.
        for (int z = begin; z < end; ++z)
            execZone(*zones_[static_cast<std::size_t>(z)],
                     windowEnd_);
        barrier->arriveAndWait();
    }

    tlsEngine = prev_engine;
    tlsZone = prev_zone;
}

void
Engine::runWindows()
{
    const int zone_count = zoneCount();
    const int workers =
        std::max(1, std::min(jobs_, zone_count));
    running_ = true;
    stopFlag_ = false;
    localMin_.assign(static_cast<std::size_t>(workers), kInfinity);

    SpinBarrier barrier(workers);
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(workers - 1));
    for (int w = 1; w < workers; ++w) {
        threads.emplace_back(
            [this, w, workers, &barrier] {
                workerLoop(w, workers, &barrier);
            });
    }
    workerLoop(0, workers, &barrier);
    for (auto &thread : threads)
        thread.join();
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
makeEvent(std::string name)
{
    return std::make_shared<SimEvent>(std::move(name));
}

} // namespace rap::sim
