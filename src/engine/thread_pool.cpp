#include "engine/thread_pool.h"

#include <utility>

#include "support/error.h"

namespace ecochip {

ThreadPool::ThreadPool(int threads)
{
    requireConfig(threads >= 1,
                  "thread pool needs at least one worker");
    workers_.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    ready_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::post(std::function<void()> task)
{
    requireConfig(static_cast<bool>(task),
                  "thread pool task must be callable");
    {
        std::lock_guard<std::mutex> lock(mutex_);
        requireConfig(!stopping_,
                      "thread pool is shutting down");
        queue_.push_back(std::move(task));
    }
    ready_.notify_one();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            ready_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            // Drain-before-stop: pending tasks still run so their
            // completion callbacks fire.
            if (queue_.empty())
                return;
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

} // namespace ecochip
