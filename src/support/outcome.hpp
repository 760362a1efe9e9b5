// Structured outcome taxonomy for mapping requests (the robustness layer's
// vocabulary).
//
// Every mapper entry point classifies how the request ended into one
// MapOutcome, the result's only status. The mapper sets it where the stop
// happens; when several stops meet (a fault retry running into a cancel, a
// governor trip behind a deadline), escalate() picks the one reported, so
// the precedence is stated once. The cause chain carries the
// machine-readable "why": one entry per subsystem that contributed to the
// verdict, in the order the evidence appeared.
#ifndef MONOMAP_SUPPORT_OUTCOME_HPP
#define MONOMAP_SUPPORT_OUTCOME_HPP

#include <string>
#include <vector>

namespace monomap {

/// How a mapping request ended, from best to worst.
enum class MapOutcome {
  /// A valid mapping at the walk's minimal II.
  kFeasible,
  /// Anytime degradation: the search was cut short (deadline or work
  /// budget) but a valid mapping found earlier is returned, with a sound
  /// II interval [ii_lo, ii_hi] bracketing the true minimum.
  kDegraded,
  /// The search completed and proved (or walk-refuted) every II up to the
  /// cap infeasible; no mapping exists within the configured bounds.
  kRefuted,
  /// The wall-clock deadline (or deterministic schedule budget) expired
  /// with no feasible mapping in hand.
  kDeadline,
  /// The resource governor's memory budget tripped (or an allocation
  /// failed) before a verdict was reached.
  kMemory,
  /// An injected or real fault exhausted its retry budget.
  kFault,
  /// The caller's CancelToken fired; the request was abandoned, not
  /// answered.
  kCancelled,
};

/// Number of MapOutcome values (for counter arrays).
inline constexpr int kMapOutcomeCount = 7;

const char* to_string(MapOutcome outcome);

/// The outcome reported once `stop` meets a result already ending in
/// `current`: the higher-ranked of the two, by cancelled > memory > fault >
/// deadline > refuted. A caller's cancel outranks everything (an abandoned
/// request is not answered), and a tripped memory budget outranks the fault
/// or deadline it surfaced through. Both arguments are stop outcomes; a
/// result holding a mapping (feasible, degraded) is never escalated.
MapOutcome escalate(MapOutcome current, MapOutcome stop);

/// Process exit code for scripted callers: 0 feasible, a distinct small
/// non-zero per failure class (1 and 2 are reserved for generic I/O errors
/// and usage errors respectively).
int exit_code(MapOutcome outcome);

/// One link of the machine-readable cause chain: which subsystem produced
/// the evidence and what it observed.
struct OutcomeCause {
  std::string site;    // "time", "space", "sat", "pool", "governor", ...
  std::string detail;  // human-readable specifics
};

/// "site: detail; site: detail" — the canonical one-line rendering.
std::string format_causes(const std::vector<OutcomeCause>& causes);

}  // namespace monomap

#endif  // MONOMAP_SUPPORT_OUTCOME_HPP
