// The work-stealing task pool behind the racing II walk and map_batch.
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
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "support/fault.hpp"

namespace monomap {

/// A work-stealing task pool. Each worker owns a deque: tasks submitted
/// from inside a worker go to that worker's own deque, tasks submitted
/// from outside are dealt round-robin, and an idle worker steals from the
/// other deques — one pathological task queue no longer idles the rest of
/// the pool. Tasks may themselves submit further tasks (the speculative
/// mapper's completion handlers launch the next II attempts this way);
/// wait_idle() accounts for such nested submissions.
///
/// Both own-pop and steal take the *oldest* task (FIFO): the speculative
/// mapper submits II attempts frontier-first, and on a loaded pool FIFO
/// preserves that priority — the II whose verdict gates the commit always
/// runs before the lookahead gambles behind it. (The classic LIFO own-pop
/// buys cache locality for fine-grained tasks; these tasks are entire
/// mapping attempts, milliseconds to seconds each, so ordering matters
/// and locality does not.)
///
/// Deques are mutex-guarded rather than lock-free: at this task
/// granularity queue overhead is irrelevant and the simple locking is
/// trivially clean under ThreadSanitizer.
class WorkStealingPool {
 public:
  /// Spawn `num_threads` workers (<= 0 = hardware concurrency).
  explicit WorkStealingPool(int num_threads) {
    if (num_threads <= 0) {
      num_threads =
          std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    }
    queues_.resize(static_cast<std::size_t>(num_threads));
    for (auto& q : queues_) q = std::make_unique<Queue>();
    workers_.reserve(static_cast<std::size_t>(num_threads));
    for (int t = 0; t < num_threads; ++t) {
      workers_.emplace_back([this, t] { worker_loop(t); });
    }
  }

  ~WorkStealingPool() {
    {
      const std::lock_guard<std::mutex> lock(sleep_m_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  [[nodiscard]] int num_threads() const {
    return static_cast<int>(workers_.size());
  }

  /// Enqueue a task. Runnable from any thread, including pool workers.
  void submit(std::function<void()> task) {
    pending_.fetch_add(1, std::memory_order_relaxed);
    const int self = current_worker_index();
    const std::size_t target =
        self >= 0 ? static_cast<std::size_t>(self)
                  : next_external_.fetch_add(1, std::memory_order_relaxed) %
                        queues_.size();
    try {
      const std::lock_guard<std::mutex> lock(queues_[target]->m);
      queues_[target]->q.push_back(std::move(task));
    } catch (...) {
      // A failed enqueue (allocation failure in push_back) must give the
      // pending count back, or wait_idle() parks forever on a task that
      // never existed — and if this was the last outstanding task, the
      // waiter needs the wake-up the task's completion would have sent.
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        const std::lock_guard<std::mutex> lock(idle_m_);
        idle_cv_.notify_all();
      }
      throw;
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
    std::unique_lock<std::mutex> lock(idle_m_);
    idle_cv_.wait(lock, [this] {
      return pending_.load(std::memory_order_acquire) == 0;
    });
    std::exception_ptr error;
    {
      const std::lock_guard<std::mutex> elock(error_m_);
      std::swap(error, first_error_);
    }
    return error;
  }

  /// wait_idle_collect(), rethrowing the collected exception, if any.
  void wait_idle() {
    if (std::exception_ptr error = wait_idle_collect()) {
      std::rethrow_exception(error);
    }
  }

  /// Tasks taken from another worker's deque since construction.
  [[nodiscard]] std::uint64_t steals() const {
    return steals_.load(std::memory_order_relaxed);
  }

  /// Tasks put back on a queue after an injected pool.worker fault fired
  /// before they ran (see support/fault.hpp).
  [[nodiscard]] std::uint64_t fault_requeues() const {
    return fault_requeues_.load(std::memory_order_relaxed);
  }

 private:
  struct Queue {
    std::mutex m;
    std::deque<std::function<void()>> q;
  };

  // Worker index of the calling thread in *this* pool, -1 for outsiders.
  [[nodiscard]] int current_worker_index() const {
    return tls_pool == this ? tls_worker : -1;
  }

  bool try_pop(int self, std::function<void()>* task) {
    // Own deque first, oldest-first (see class comment on FIFO priority).
    {
      Queue& own = *queues_[static_cast<std::size_t>(self)];
      const std::lock_guard<std::mutex> lock(own.m);
      if (!own.q.empty()) {
        *task = std::move(own.q.front());
        own.q.pop_front();
        return true;
      }
    }
    // Steal oldest-first from the others, scanning from the right
    // neighbour so victims spread instead of hammering worker 0.
    const int n = static_cast<int>(queues_.size());
    for (int d = 1; d < n; ++d) {
      Queue& victim = *queues_[static_cast<std::size_t>((self + d) % n)];
      const std::lock_guard<std::mutex> lock(victim.m);
      if (!victim.q.empty()) {
        *task = std::move(victim.q.front());
        victim.q.pop_front();
        steals_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }

  void worker_loop(int self) {
    tls_pool = this;
    tls_worker = self;
    std::function<void()> task;
    for (;;) {
      if (try_pop(self, &task)) {
        // Injected worker fault, fired BEFORE the task runs (the task is
        // intact): put it back at the end of the own queue and let a later
        // (or another) worker retry it — one poisoned pickup degrades only
        // itself. Bounded so a 100%-firing rule cannot livelock the pool.
        bool requeued = false;
        try {
          fault::maybe_inject("pool.worker");
        } catch (...) {
          if (fault_requeues_.fetch_add(1, std::memory_order_relaxed) <
              kMaxFaultRequeues) {
            const std::lock_guard<std::mutex> lock(
                queues_[static_cast<std::size_t>(self)]->m);
            queues_[static_cast<std::size_t>(self)]->q.push_back(
                std::move(task));
            requeued = true;
          } else {
            const std::lock_guard<std::mutex> lock(error_m_);
            if (!first_error_) first_error_ = std::current_exception();
            task = nullptr;  // dropped: the error surfaces via wait_idle
          }
        }
        if (requeued) {
          task = nullptr;
          work_cv_.notify_one();
          continue;  // pending_ untouched: the task is still outstanding
        }
        if (task) {
          try {
            task();
          } catch (...) {
            const std::lock_guard<std::mutex> lock(error_m_);
            if (!first_error_) first_error_ = std::current_exception();
          }
        }
        task = nullptr;
        if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          // Last task out: wake wait_idle(). Taking the lock orders this
          // notify after the waiter's predicate check.
          const std::lock_guard<std::mutex> lock(idle_m_);
          idle_cv_.notify_all();
        }
        continue;
      }
      std::unique_lock<std::mutex> lock(sleep_m_);
      if (stop_) return;
      // Re-check for work racing with the notify, then sleep briefly; the
      // timeout bounds the lost-wakeup window without a seqlock.
      work_cv_.wait_for(lock, std::chrono::milliseconds(1));
    }
  }

  static thread_local const WorkStealingPool* tls_pool;
  static thread_local int tls_worker;

  /// Ceiling on fault-driven requeues per pool lifetime: generous against
  /// any realistic periodic rule, small against a livelock.
  static constexpr std::uint64_t kMaxFaultRequeues = 4096;

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;
  std::atomic<std::size_t> next_external_{0};
  std::atomic<int> pending_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> fault_requeues_{0};
  std::mutex sleep_m_;
  std::condition_variable work_cv_;
  bool stop_ = false;  // guarded by sleep_m_
  std::mutex idle_m_;
  std::condition_variable idle_cv_;
  std::mutex error_m_;
  std::exception_ptr first_error_;  // guarded by error_m_
};

inline thread_local const WorkStealingPool* WorkStealingPool::tls_pool =
    nullptr;
inline thread_local int WorkStealingPool::tls_worker = -1;

}  // namespace monomap

#endif  // MONOMAP_SUPPORT_PARALLEL_HPP
