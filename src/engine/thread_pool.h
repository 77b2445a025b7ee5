/**
 * @file
 * Fixed-size worker pool backing the `AnalysisEngine` scheduler.
 *
 * Deliberately minimal: a locked FIFO of type-erased tasks drained
 * by N `std::thread` workers. Destruction drains the queue first
 * (every posted task runs), so every request submitted to the
 * engine still reports its outcome.
 */

#ifndef ECOCHIP_ENGINE_THREAD_POOL_H
#define ECOCHIP_ENGINE_THREAD_POOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ecochip {

/** Fixed pool of worker threads consuming a FIFO task queue. */
class ThreadPool
{
  public:
    /**
     * Start @p threads workers.
     *
     * @param threads Worker count (>= 1).
     * @throws ConfigError when @p threads < 1.
     */
    explicit ThreadPool(int threads);

    /** Drains the queue, then joins every worker. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Worker count. */
    int threadCount() const
    {
        return static_cast<int>(workers_.size());
    }

    /**
     * Enqueue a task. Tasks run in FIFO order across the pool;
     * a task must not throw (catch internally).
     */
    void post(std::function<void()> task);

  private:
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable ready_;
    std::deque<std::function<void()>> queue_;
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

} // namespace ecochip

#endif // ECOCHIP_ENGINE_THREAD_POOL_H
