// Fixed-size worker pool used to fan multi-seed experiment runs across
// cores. Tasks are type-erased; results flow back through std::future.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace qlec {

/// Upper bound on a worker count taken from outside the program (a CLI
/// option, an env var, a library caller): JobRunner and HttpServer reject
/// more with std::invalid_argument before starting any thread, so a
/// mistyped count cannot start millions of them.
inline constexpr std::size_t kMaxThreads = 256;

class ThreadPool {
 public:
  /// `threads == 0` uses the hardware concurrency (minimum 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Drains already-queued tasks, joins the workers, and rejects further
  /// submit() calls (they throw std::runtime_error). Idempotent; the
  /// destructor calls it. After shutdown, size() is 0.
  void shutdown();

  /// Enqueues a callable; the returned future yields its result (or rethrows
  /// its exception).
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> result = task->get_future();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_)
        throw std::runtime_error("ThreadPool::submit after shutdown");
      tasks_.push([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Runs fn(i) for i in [0, n) across the pool and blocks until all
  /// complete. Exceptions from any invocation propagate (first one wins).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace qlec
