/**
 * @file
 * Slab-backed event allocator for the DES engine.
 *
 * The engine used to carry each pending event's callback inside its
 * priority-queue node, so every push heap-allocated (the closure) and
 * every sift moved a std::function. EventPool hoists callbacks into
 * recycled slab nodes: the queue orders 24-byte {time, seq, handle}
 * records, and the closure storage — including any heap buffer a
 * previous std::function left behind in the node — is reused across
 * the simulation's lifetime.
 *
 * Handles are generation-tagged: releasing a node bumps its
 * generation, so a stale handle (the ABA hazard of index recycling)
 * is detected instead of silently aliasing a new event.
 *
 * A pool belongs to exactly one Engine and is only touched by the
 * thread running that engine, so it needs no locks.
 */

#ifndef RAP_SIM_EVENT_POOL_HPP
#define RAP_SIM_EVENT_POOL_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace rap::sim {

using EventCallback = std::function<void()>;

/** Generation-tagged reference to a pooled event callback. */
struct EventHandle
{
    static constexpr std::uint32_t kInvalidIndex = 0xffffffffu;

    std::uint32_t index = kInvalidIndex;
    std::uint32_t generation = 0;

    bool isNull() const { return index == kInvalidIndex; }
};

/**
 * Fixed-slab arena of event nodes with a free-list and generation
 * counters. Slabs are never freed until reset()/destruction, so node
 * addresses stay stable and the steady-state simulation allocates
 * nothing per event beyond what the callbacks themselves capture.
 */
class EventPool
{
  public:
    EventPool() = default;
    EventPool(const EventPool &) = delete;
    EventPool &operator=(const EventPool &) = delete;

    /** Store @p fn in a recycled (or fresh) node. */
    EventHandle acquire(EventCallback fn);

    /**
     * Move the callback out of @p handle's node and release the node
     * back to the free list (generation bumped). Panics on a stale or
     * null handle — the no-ABA guarantee.
     */
    EventCallback take(EventHandle handle);

    /** Release @p handle's node without running it (cancelled event). */
    void release(EventHandle handle);

    /** @return True when @p handle still names a live node. */
    bool valid(EventHandle handle) const;

    /**
     * Return every live node to the free list and invalidate every
     * outstanding handle. Slab storage is kept for reuse.
     */
    void reset();

    /** @return Nodes currently holding a pending event. */
    std::size_t liveNodes() const { return live_; }

    /** @return Total nodes ever materialised across all slabs. */
    std::size_t capacity() const
    {
        return slabs_.size() * kSlabSize;
    }

  private:
    static constexpr std::size_t kSlabSize = 256;

    struct Node
    {
        EventCallback fn;
        std::uint32_t generation = 0;
        std::uint32_t nextFree = EventHandle::kInvalidIndex;
        bool live = false;
    };

    Node &node(std::uint32_t index);
    const Node &node(std::uint32_t index) const;
    void addSlab();

    std::vector<std::unique_ptr<Node[]>> slabs_;
    std::uint32_t freeHead_ = EventHandle::kInvalidIndex;
    std::size_t live_ = 0;
};

} // namespace rap::sim

#endif // RAP_SIM_EVENT_POOL_HPP
