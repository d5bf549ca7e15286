// Fixed-size thread pool backing the MR job engine's parallel executor.
//
// Determinism contract: ParallelFor promises nothing about *which* thread
// runs which index or in what order — callers must write results only into
// per-index slots (the engine's per-task emit buffers) and perform any
// order-sensitive merging on the calling thread afterwards. That is what
// keeps RunJobOr's shuffle bytes, record order and reducer outputs
// byte-identical at every worker_threads setting.
#ifndef DWMAXERR_MR_THREAD_POOL_H_
#define DWMAXERR_MR_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dwm::mr {

class ThreadPool {
 public:
  // A pool of total concurrency `concurrency`: the calling thread
  // participates in ParallelFor, so only concurrency - 1 background workers
  // are spawned. concurrency <= 1 spawns none and ParallelFor runs inline,
  // byte-for-byte the sequential execution.
  explicit ThreadPool(int concurrency) {
    const int background = concurrency > 1 ? concurrency - 1 : 0;
    workers_.reserve(static_cast<size_t>(background));
    for (int i = 0; i < background; ++i) {
      workers_.emplace_back([this] { Loop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  int concurrency() const { return static_cast<int>(workers_.size()) + 1; }

  // Invokes fn(i) for every i in [0, count), distributing indices over the
  // background workers and the calling thread; returns once every call has
  // finished. fn must not throw and must not call back into this pool.
  // Indices are claimed from a shared counter, so fn runs concurrently and
  // in no particular order: it must only touch shared state that is
  // read-only or sliced per index.
  void ParallelFor(int64_t count, const std::function<void(int64_t)>& fn) {
    if (count <= 0) return;
    const int64_t helpers = std::min<int64_t>(
        static_cast<int64_t>(workers_.size()), count - 1);
    if (helpers <= 0) {
      for (int64_t i = 0; i < count; ++i) fn(i);
      return;
    }
    std::atomic<int64_t> next{0};
    const auto drain = [count, &next, &fn] {
      for (int64_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < count; i = next.fetch_add(1, std::memory_order_relaxed)) {
        fn(i);
      }
    };
    {
      const std::lock_guard<std::mutex> lock(mu_);
      pending_ += helpers;
      for (int64_t h = 0; h < helpers; ++h) queue_.emplace_back(drain);
    }
    wake_.notify_all();
    drain();
    std::unique_lock<std::mutex> lock(mu_);
    idle_.wait(lock, [this] { return pending_ == 0; });
  }

 private:
  void Loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stop requested and nothing queued
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
      {
        const std::lock_guard<std::mutex> lock(mu_);
        if (--pending_ == 0) idle_.notify_all();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable wake_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  int64_t pending_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace dwm::mr

#endif  // DWMAXERR_MR_THREAD_POOL_H_
