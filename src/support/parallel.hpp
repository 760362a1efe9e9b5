// The thread pool behind the racing II walk, map_batch and the service's
// compile jobs, and the process-wide count of threads busy with compile
// work that decides whether a space search may split across cores.
//
// Every task these paths submit is a whole mapping attempt, milliseconds to
// seconds of work, so ordering matters and cache locality does not: the
// pool keeps one FIFO queue under one mutex. Workers take the oldest task
// and sleep on a condition variable while the queue is empty; nothing
// polls. The speculative walk submits its II attempts frontier-first, so
// on a loaded pool global FIFO order is also its priority order — the II
// whose verdict gates the commit runs before the lookahead gambles behind
// it.
//
// Exceptions matter here: MONOMAP_ASSERT throws a catchable AssertionError
// by design, but an exception escaping a std::thread body calls
// std::terminate. Workers therefore capture the first exception and it is
// rethrown on the calling thread from wait_idle() — the threaded paths fail
// the same way the sequential path does.
#ifndef MONOMAP_SUPPORT_PARALLEL_HPP
#define MONOMAP_SUPPORT_PARALLEL_HPP

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "support/fault.hpp"

namespace monomap {

/// Counts the calling thread as busy with compile work while it lives.
/// Pool workers running a task, space searches, their split helpers and
/// the service's request front ends hold one; a thread that already holds
/// one is not counted again. A space search hands work to split helpers
/// only while busy_threads() leaves a core idle (docs/performance.md,
/// "Parallel split").
class BusyScope {
 public:
  BusyScope() : counted_(!held_) {
    if (counted_) {
      held_ = true;
      busy_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  ~BusyScope() {
    if (counted_) {
      busy_.fetch_sub(1, std::memory_order_relaxed);
      held_ = false;
    }
  }
  BusyScope(const BusyScope&) = delete;
  BusyScope& operator=(const BusyScope&) = delete;

  /// Threads of this process holding a BusyScope now.
  [[nodiscard]] static int busy_threads() {
    return busy_.load(std::memory_order_relaxed);
  }

 private:
  static inline std::atomic<int> busy_{0};
  static inline thread_local bool held_ = false;
  bool counted_;
};

/// A fixed set of workers draining one FIFO task queue. Tasks may submit
/// further tasks (the speculative mapper's completion handlers launch the
/// next II attempts this way); wait_idle() accounts for such nested
/// submissions. No pool lock is held while a task runs, so a task may
/// submit while holding a lock of its own.
class ThreadPool {
 public:
  /// Spawn `num_threads` workers (<= 0 = hardware concurrency).
  explicit ThreadPool(int num_threads) {
    if (num_threads <= 0) {
      num_threads =
          std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    }
    workers_.reserve(static_cast<std::size_t>(num_threads));
    for (int t = 0; t < num_threads; ++t) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ~ThreadPool() {
    {
      const std::lock_guard<std::mutex> lock(m_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int num_threads() const {
    return static_cast<int>(workers_.size());
  }

  /// Append a task. Runnable from any thread, including pool workers.
  void submit(std::function<void()> task) {
    {
      const std::lock_guard<std::mutex> lock(m_);
      queue_.push_back(std::move(task));
      ++pending_;  // after the push: a failed push leaves no phantom task
    }
    work_cv_.notify_one();
  }

  /// Block until every submitted task (including tasks submitted by tasks)
  /// has finished — queued tasks keep draining even after a peer's task
  /// threw — and return the first captured task exception (nullptr when
  /// every task completed cleanly). Must be called from outside the pool.
  /// The non-throwing twin of wait_idle() for callers that classify worker
  /// failures instead of propagating them.
  [[nodiscard]] std::exception_ptr wait_idle_collect() {
    std::unique_lock<std::mutex> lock(m_);
    idle_cv_.wait(lock, [this] { return pending_ == 0; });
    return std::exchange(first_error_, nullptr);
  }

  /// wait_idle_collect(), rethrowing the collected exception, if any.
  void wait_idle() {
    if (std::exception_ptr error = wait_idle_collect()) {
      std::rethrow_exception(error);
    }
  }

  /// Tasks put back on the queue after an injected pool.worker fault fired
  /// before they ran (see support/fault.hpp).
  [[nodiscard]] std::uint64_t fault_requeues() const {
    const std::lock_guard<std::mutex> lock(m_);
    return fault_requeues_;
  }

 private:
  void worker_loop() {
    std::unique_lock<std::mutex> lock(m_);
    for (;;) {
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, and nothing is left to run
      std::function<void()> task = std::move(queue_.front());
      queue_.pop_front();
      lock.unlock();
      try {
        fault::maybe_inject("pool.worker");
      } catch (...) {
        // Injected before the task ran, so the task is intact: put it back
        // at the end of the queue for a later pickup — one poisoned pickup
        // degrades only itself. Past kMaxFaultRequeues the task runs
        // anyway, so a 100%-firing rule can neither livelock the pool nor
        // lose a task.
        lock.lock();
        if (fault_requeues_ < kMaxFaultRequeues) {
          ++fault_requeues_;
          queue_.push_back(std::move(task));
          continue;  // pending_ untouched: the task is still outstanding
        }
        lock.unlock();
      }
      std::exception_ptr error;
      try {
        const BusyScope busy;
        task();
      } catch (...) {
        error = std::current_exception();
      }
      task = nullptr;  // destroy the task's captures outside the lock
      lock.lock();
      if (error && !first_error_) first_error_ = std::move(error);
      if (--pending_ == 0) idle_cv_.notify_all();
    }
  }

  /// Ceiling on fault-driven requeues per pool lifetime: generous against
  /// any realistic periodic rule, small against a livelock.
  static constexpr std::uint64_t kMaxFaultRequeues = 4096;

  mutable std::mutex m_;  // guards every member up to workers_
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  int pending_ = 0;  // queued or running, nested submissions included
  std::uint64_t fault_requeues_ = 0;
  std::exception_ptr first_error_;
  bool stop_ = false;
  std::vector<std::thread> workers_;  // last: the workers use the above
};

}  // namespace monomap

#endif  // MONOMAP_SUPPORT_PARALLEL_HPP
