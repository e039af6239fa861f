/**
 * @file
 * Host CPU model: a fixed pool of cores executing data-preparation
 * tasks (memory allocation, batch slicing, H2D staging) and the CPU
 * side of baseline preprocessing pipelines.
 */

#ifndef RAP_SIM_HOST_HPP
#define RAP_SIM_HOST_HPP

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/stream.hpp"

namespace rap::sim {

/**
 * A pool of CPU cores with FIFO task admission.
 *
 * A task occupies a fixed number of cores for a fixed wall duration.
 * Tasks are started strictly in submission order: the head of the queue
 * waits until enough cores are free (no overtaking), which models a
 * work queue with a fair scheduler.
 */
class Host
{
  public:
    /**
     * @param engine The simulation engine.
     * @param cores Number of CPU cores in the pool.
     */
    Host(Engine &engine, int cores);

    Host(const Host &) = delete;
    Host &operator=(const Host &) = delete;

    /** Create a host-side stream (for ordered CPU work). */
    Stream &newStream(std::string name);

    /**
     * Submit a task occupying @p cores cores for @p duration seconds;
     * @p done fires when the task completes.
     */
    void submit(Seconds duration, int cores, std::function<void()> done);

    int cores() const { return cores_; }

    /** @return Total CPU core-seconds consumed so far. */
    double coreSecondsUsed() const { return coreSecondsUsed_; }

  private:
    struct Task
    {
        Seconds duration;
        int cores;
        std::function<void()> done;
    };

    void tryStart();

    Engine &engine_;
    int cores_;
    int freeCores_;
    double coreSecondsUsed_ = 0.0;
    std::deque<Task> pending_;
    std::vector<std::unique_ptr<Stream>> streams_;
};

} // namespace rap::sim

#endif // RAP_SIM_HOST_HPP
