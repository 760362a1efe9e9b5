// Deterministic seeded fault-injection harness.
//
// Production builds carry named injection points (fault::maybe_inject) at
// the subsystem boundaries a mapping-as-a-service deployment has to survive:
//
//   sat.solve     — SatSolver::solve_assuming entry
//   space.search  — find_monomorphism entry
//   space.split   — a split helper, after it searched a claimed candidate
//                   and before it reports it (the owner then searches the
//                   candidate itself)
//   time.session  — TimeSession::solve entry
//   pool.worker   — ThreadPool, before each task runs (the task is
//                   requeued, and past a cap it runs anyway)
//   serve.request — MappingService, at the top of every map request's
//                   front end
//
// With no plan installed a site is one relaxed atomic load — effectively
// free. A plan arms per-site rules of the form kind@period: every period-th
// arrival at the site fires the fault, with a seed-derived phase so
// different seeds fire at different points of the sequence while the same
// seed reproduces the exact run. Kinds:
//
//   throw — FaultInjectedError (the retry-with-backoff path)
//   stall — a short bounded sleep (latency spike; no exception)
//   alloc — std::bad_alloc (allocation failure; the memory-outcome path)
//
// Spec grammar (MONOMAP_FAULTS environment variable or the CLI --faults
// flag):
//
//   spec  := rule ("," rule)* [":" seed]
//   rule  := site "=" kind "@" period
//   seed  := decimal uint64 (default 0)
//
//   e.g.  MONOMAP_FAULTS="sat.solve=throw@5,pool.worker=stall@3:42"
//
// The environment variable is read lazily on the first maybe_inject call;
// install_faults/clear_faults override it explicitly (tests, CLI).
#ifndef MONOMAP_SUPPORT_FAULT_HPP
#define MONOMAP_SUPPORT_FAULT_HPP

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/stopwatch.hpp"

namespace monomap::fault {

/// The exception an armed `throw` rule raises. Distinct from AssertionError
/// (a logic bug) and std::bad_alloc (a memory failure) so recovery layers
/// can retry faults without masking real bugs.
class FaultInjectedError : public std::runtime_error {
 public:
  explicit FaultInjectedError(const std::string& site)
      : std::runtime_error("injected fault at " + site), site_(site) {}
  [[nodiscard]] const std::string& site() const { return site_; }

 private:
  std::string site_;
};

enum class FaultKind { kThrow, kStall, kAlloc };

const char* to_string(FaultKind kind);

struct FaultRule {
  std::string site;
  FaultKind kind = FaultKind::kThrow;
  std::uint64_t period = 1;  // fire every period-th arrival (>= 1)
};

struct FaultPlan {
  std::vector<FaultRule> rules;
  std::uint64_t seed = 0;
};

/// Parse the spec grammar above. Returns nullopt and fills `error` (if
/// non-null) on a malformed spec.
std::optional<FaultPlan> parse_fault_spec(const std::string& spec,
                                          std::string* error = nullptr);

/// Arm `plan` process-wide, replacing any previous plan (and pre-empting
/// the lazy MONOMAP_FAULTS read). Thread-safe.
void install_faults(const FaultPlan& plan);

/// Disarm all injection and suppress the MONOMAP_FAULTS fallback.
void clear_faults();

/// The injection point. Fires the matching rule's fault when its site
/// counter crosses the seeded phase; otherwise returns immediately.
void maybe_inject(const char* site);

/// Bounded exponential backoff between fault retries: sleeps roughly
/// base * 2^retry milliseconds (capped), in small slices so a deadline
/// expiry or a (possibly parent-chained) cancel is observed mid-sleep.
/// Returns false when the deadline expired before the sleep completed —
/// the caller should stop retrying.
bool backoff_sleep(const Deadline& deadline, int retry,
                   double base_ms = 1.0);

}  // namespace monomap::fault

#endif  // MONOMAP_SUPPORT_FAULT_HPP
