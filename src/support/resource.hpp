// Per-request resource governor: a memory budget shared by the subsystems
// whose footprints actually grow with search effort — the SAT learnt-clause
// database and the bitset searcher's preallocated domain trails.
//
// Subsystems charge their allocations with try_charge() and give the bytes
// back with uncharge(). A denied charge is the shed signal: the subsystem
// first frees what it can (the SAT solver reduces its learnt DB) and
// retries; only when shedding cannot make room does it trip() the governor
// and abort into a clean `memory` outcome. Once tripped, every subsystem observes tripped()
// at its next periodic check — the watchdog that converts runaway
// propagation anywhere in the request into the same classified outcome
// instead of an OOM kill.
//
// Plumbing is a thread-local scope rather than threaded parameters:
// DecoupledMapper binds the request's governor with a GovernorScope around
// each entry point (including the per-II attempt tasks on pool workers),
// and SatSolver and the searchers consult GovernorScope::current() — zero
// signature churn, and code outside a scope (unit tests, the reference
// oracles) pays one thread-local read.
//
// With a zero budget every operation is a no-op that always grants, so the
// governed build behaves bit-identically to the ungoverned one until a
// budget is actually configured.
#ifndef MONOMAP_SUPPORT_RESOURCE_HPP
#define MONOMAP_SUPPORT_RESOURCE_HPP

#include <atomic>
#include <cstddef>

namespace monomap {

class ResourceGovernor {
 public:
  /// `budget_bytes` == 0 means unlimited (all charges granted, never trips
  /// on its own; an explicit trip() still works).
  explicit ResourceGovernor(std::size_t budget_bytes)
      : budget_(budget_bytes) {}

  ResourceGovernor(const ResourceGovernor&) = delete;
  ResourceGovernor& operator=(const ResourceGovernor&) = delete;

  /// Reserve `bytes` against the budget. False when the reservation would
  /// exceed it (nothing is charged then) or the governor already tripped —
  /// the caller should shed and retry, or abort with a memory outcome.
  bool try_charge(std::size_t bytes) {
    if (tripped_.load(std::memory_order_relaxed)) return false;
    const std::size_t now =
        used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    if (budget_ != 0 && now > budget_) {
      used_.fetch_sub(bytes, std::memory_order_relaxed);
      return false;
    }
    // Peak tracking is advisory telemetry; a racy max is fine.
    std::size_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now,
                                        std::memory_order_relaxed)) {
    }
    return true;
  }

  void uncharge(std::size_t bytes) {
    used_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  /// Latch the governor into the tripped state; every subsystem's next
  /// periodic tripped() check aborts cleanly. `why` must be a string
  /// literal (stored by pointer).
  void trip(const char* why) {
    const char* expected = nullptr;
    trip_reason_.compare_exchange_strong(expected, why,
                                         std::memory_order_relaxed);
    tripped_.store(true, std::memory_order_release);
  }

  [[nodiscard]] bool tripped() const {
    return tripped_.load(std::memory_order_acquire);
  }

  /// First trip cause, or "" before any trip.
  [[nodiscard]] const char* trip_reason() const {
    const char* why = trip_reason_.load(std::memory_order_relaxed);
    return why != nullptr ? why : "";
  }

  /// Soft-pressure threshold (>= 3/4 of the budget in use): subsystems
  /// with cheap shedding levers pull them early here, before charges
  /// start failing.
  [[nodiscard]] bool soft_pressure() const {
    return budget_ != 0 &&
           used_.load(std::memory_order_relaxed) >= budget_ - budget_ / 4;
  }

  void note_shed() { sheds_.fetch_add(1, std::memory_order_relaxed); }

  [[nodiscard]] std::size_t used() const {
    return used_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t peak() const {
    return peak_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t budget() const { return budget_; }
  [[nodiscard]] int sheds() const {
    return sheds_.load(std::memory_order_relaxed);
  }

 private:
  const std::size_t budget_;
  std::atomic<std::size_t> used_{0};
  std::atomic<std::size_t> peak_{0};
  std::atomic<int> sheds_{0};
  std::atomic<bool> tripped_{false};
  std::atomic<const char*> trip_reason_{nullptr};
};

/// RAII thread-local binding of "the current request's governor". Nests:
/// an inner scope shadows, the destructor restores. Binding nullptr is a
/// no-op shadow (current() keeps reporting the outer governor), which lets
/// callers bind unconditionally.
class GovernorScope {
 public:
  explicit GovernorScope(ResourceGovernor* governor)
      : previous_(current_) {
    if (governor != nullptr) current_ = governor;
  }
  ~GovernorScope() { current_ = previous_; }

  GovernorScope(const GovernorScope&) = delete;
  GovernorScope& operator=(const GovernorScope&) = delete;

  /// The governor bound on this thread, or nullptr outside any scope.
  [[nodiscard]] static ResourceGovernor* current() { return current_; }

 private:
  ResourceGovernor* previous_;
  static thread_local ResourceGovernor* current_;
};

}  // namespace monomap

#endif  // MONOMAP_SUPPORT_RESOURCE_HPP
