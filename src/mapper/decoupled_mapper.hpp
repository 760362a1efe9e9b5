// The paper's contribution: space/time-decoupled CGRA mapping (Sec. IV).
//
// Pipeline per II (starting at mII):
//   1. TIME   — SAT search over the KMS with capacity + connectivity
//               constraints yields a schedule (labels per node).
//   2. SPACE  — monomorphism search places the labelled DFG into the MRRG.
//   3. If space fails (rare; Sec. IV-D argues it should not happen under the
//      constraints), block that label vector and ask for the next schedule.
//   4. When the per-II policy gives the II up, move on to II+1.
//
// Every entry point runs one II walk. Each II is one attempt (map_at_ii —
// a TimeSolver pinned to that II plus the per-II policy, with its own
// fault retries); a frontier walks upward over refuted attempts and
// commits a feasible II only once every smaller II is refuted, so the
// committed II is the same whether attempts run one at a time or race
// ahead on a pool.
//
// The result records the two phase times separately — Table III's
// "Time"/"Space" columns.
#ifndef MONOMAP_MAPPER_DECOUPLED_MAPPER_HPP
#define MONOMAP_MAPPER_DECOUPLED_MAPPER_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "mapper/mapping.hpp"
#include "sched/mii.hpp"
#include "space/monomorphism.hpp"
#include "support/outcome.hpp"
#include "timing/time_solver.hpp"

namespace monomap {

namespace json {
class Writer;
}  // namespace json

struct DecoupledMapperOptions {
  TimeSolverOptions time;
  SpaceOptions space;
  /// Overall wall-clock budget in seconds (paper: 4000 s); <= 0 = unlimited.
  double timeout_s = 4000.0;
  /// Highest II the walk tries; 0 = automatic (max(mII, #nodes) — at
  /// II = #nodes a fully sequential schedule always satisfies capacity and
  /// connectivity).
  int max_ii = 0;
  /// Anytime mode: the walk launches its first attempt at the II ceiling
  /// (max_ii, or max(mII, #nodes) — where a fully sequential schedule
  /// always places) and holds a mapping found there as its best feasible
  /// attempt. If the walk below is cut short by the deadline, the schedule
  /// budget, a fault or the memory governor, the held mapping is returned
  /// marked MapOutcome::kDegraded with the sound interval [ii_lo, ii_hi]
  /// instead of a bare failure; a walk that is not cut short returns what
  /// it would without anytime. Default off: the probe costs one extra
  /// mapping attempt.
  bool anytime = false;
  /// Deterministic work budget: give up (kDeadline, or kDegraded under
  /// anytime) after this many schedules, counted over the whole walk,
  /// anytime probe included. Unlike the wall clock this is
  /// bit-reproducible across machines and runs at lookahead 0 — the
  /// degraded-mode determinism test pins that; racing attempts share it,
  /// so where a race runs out depends on thread timing. 0 = unlimited.
  int max_schedules = 0;
  /// Retries of one II attempt after an injected fault or allocation
  /// failure before the attempt is classified kFault/kMemory (bounded
  /// exponential backoff between tries; see support/fault.hpp).
  int max_fault_retries = 3;
  /// Per-request memory budget in MiB, accounted by the SAT learnt DB and
  /// the bitset searcher's trail reservations (see support/resource.hpp).
  /// 0 = unlimited — and bit-identical to the ungoverned build.
  std::size_t memory_budget_mb = 0;
};

/// Aggregate telemetry for one map_batch call (the per-case MapResults
/// cannot carry pool-level counters without double counting).
struct BatchStats {
  /// Tasks a worker put back after an injected pool.worker fault fired.
  std::uint64_t fault_requeues = 0;
  /// Cases per final MapOutcome, indexed by static_cast<int>(outcome).
  std::array<std::uint64_t, kMapOutcomeCount> outcome_counts{};
};

/// A walk's effort counters, declared once as X(type, name, merge) like
/// MONOMAP_TIME_COUNTERS: MapResult holds them, and merge_attempt_counters
/// and write_json are generated from the list. `merge` says how the
/// attempts of one walk fold (sum or max).
#define MONOMAP_MAP_COUNTERS(X)                                           \
  X(double, time_phase_s, sum)   /* Table III "Time" column */            \
  X(double, space_phase_s, sum)  /* Table III "Space" column */           \
  X(int, schedules_tried, sum)                                            \
  X(int, space_truncated, sum)   /* cut by the backtrack budget */        \
  X(int, space_exhausted, sum)   /* complete refutations (a nogood) */    \
  X(std::uint64_t, space_backjumps, sum)                                  \
  /* run_mapping_loop's budget actions: doublings, shrinks and           \
     last-chance full-budget searches. */                                 \
  X(int, budget_extensions, sum)                                          \
  X(int, budget_shrinks, sum)                                             \
  X(int, budget_probes, sum)                                              \
  X(int, fault_retries, sum)     /* see max_fault_retries */              \
  X(int, mem_sheds, sum)         /* governor telemetry */                 \
  X(std::size_t, mem_peak_bytes, max)

struct MapResult {
  /// A mapping is returned: outcome is kFeasible or kDegraded.
  bool success = false;
  /// How the request ended — the result's only status. Set where the stop
  /// happens; several stops meeting resolve through escalate()
  /// (support/outcome.hpp). kDegraded (anytime mode) means `mapping` is
  /// the held fallback, not a proven optimum: the walk below ii was cut
  /// short, and the true minimal II lies in [ii_lo, ii_hi].
  MapOutcome outcome = MapOutcome::kRefuted;
  /// Machine-readable cause chain (site, detail), outermost first.
  std::vector<OutcomeCause> causes;
  /// Sound interval for the optimal II. ii_lo = deepest soundly refuted
  /// II + 1 — an II counts as refuted only via natural time-phase
  /// exhaustion with zero truncated space searches at that II (heuristic
  /// skips prove nothing), contiguously from the walk's start. ii_hi is
  /// the achieved II on success/degraded, 0 (unknown) otherwise. On a
  /// kFeasible result ii_hi == ii but ii_lo may sit below it when the walk
  /// skipped IIs heuristically.
  int ii_lo = 1;
  int ii_hi = 0;
  /// The raw contiguous sound-refutation high-water mark behind ii_lo.
  int ii_refuted_up_to = 0;
  /// This run soundly refuted its ENTIRE II range (natural time-phase
  /// exhaustion, zero truncated space searches, no heuristic skips). For a
  /// map_at_ii run this means exactly "this II is soundly refuted" — the
  /// walk's interval tracking keys on it.
  bool sound_refutation = false;
  Mapping mapping;
  int ii = 0;
  MiiBreakdown mii;
  double total_s = 0.0;  // time_phase_s + space_phase_s
#define MONOMAP_DECLARE_COUNTER(type, name, merge) type name = 0;
  MONOMAP_MAP_COUNTERS(MONOMAP_DECLARE_COUNTER)
#undef MONOMAP_DECLARE_COUNTER
  std::string failure_reason;
  TimeSolverStats time_stats;
};

/// Write `r` as members of the object `w` has open: outcome, success, the
/// II and its interval, mII, sound_refutation, every MONOMAP_MAP_COUNTERS
/// and MONOMAP_TIME_COUNTERS counter by its field name, and learnt_retained.
/// Every bench row and the CLI's `result:` line use it.
void write_json(json::Writer& w, const MapResult& r);

class DecoupledMapper {
 public:
  explicit DecoupledMapper(DecoupledMapperOptions options = {})
      : options_(options) {}

  /// Map `dfg` onto `arch` by walking IIs upward from mII. The returned
  /// mapping (on success) always passes validate_mapping — this is
  /// asserted internally.
  ///
  /// `lookahead` is the number of IIs kept in flight beyond the unresolved
  /// frontier. 0 runs one attempt at a time on the caller's thread. Above
  /// 0 the attempts race on a ThreadPool of min(lookahead + 1, cores)
  /// workers: while II is still being refuted, II+1..II+lookahead
  /// already run. Each attempt is a pure function of its II, so the
  /// committed II, its interval and the effort counters are exactly the
  /// lookahead-0 answer — the race buys wall clock only — unless a
  /// max_schedules budget is set, which racing attempts share.
  MapResult map(const Dfg& dfg, const CgraArch& arch,
                int lookahead = 0) const;

  /// Like the above under an externally supplied deadline (which may carry
  /// a CancelToken). options_.timeout_s is ignored.
  MapResult map(const Dfg& dfg, const CgraArch& arch, const Deadline& deadline,
                int lookahead = 0) const;

  /// One II attempt: the space/time loop pinned to exactly `ii`, with its
  /// own fault retries (DecoupledMapperOptions::max_fault_retries) — the
  /// unit every walk is made of. The per-II policy (nogood feedback,
  /// adaptive budgets, last-chance probe) gives the II up on its retry
  /// caps, so an outcome of kRefuted here means precisely "the walk moves
  /// past ii". An ii below mII comes back soundly refuted.
  MapResult map_at_ii(const Dfg& dfg, const CgraArch& arch, int ii,
                      const Deadline& deadline) const;

  /// Map a whole batch of DFGs across `num_threads` worker threads
  /// (0 = hardware concurrency). Results are positionally aligned with
  /// `dfgs`. The whole batch shares ONE options_.timeout_s budget and ONE
  /// options_.memory_budget_mb governor, whose telemetry every case
  /// reports.
  std::vector<MapResult> map_batch(const std::vector<const Dfg*>& dfgs,
                                   const CgraArch& arch,
                                   int num_threads = 0) const;

  /// Like the above, but every item observes the externally supplied
  /// shared `deadline` — including its CancelToken, so a caller can cut an
  /// entire in-flight batch short. options_.timeout_s is ignored.
  ///
  /// With num_threads != 1 every case is one lookahead-1 walk on a shared
  /// ThreadPool — its per-II attempts are the pool's tasks, so one
  /// pathological case does not idle the other cores; with
  /// num_threads == 1 every case runs the plain map() in order. `stats`,
  /// when non-null, receives pool-level telemetry.
  std::vector<MapResult> map_batch(const std::vector<const Dfg*>& dfgs,
                                   const CgraArch& arch,
                                   const Deadline& deadline,
                                   int num_threads = 0,
                                   BatchStats* stats = nullptr) const;

 private:
  class Walk;            // the II walk behind map() and map_batch()
  class ScheduleBudget;  // max_schedules, shared by one walk's attempts

  /// map_at_ii for a walk that computed mII once and shares `budget`.
  MapResult attempt(const Dfg& dfg, const CgraArch& arch, int ii,
                    const Deadline& deadline, ScheduleBudget& budget) const;

  /// The per-schedule space/time loop at one II: pull schedules, run the
  /// space search, feed conflicts back, adapt budgets, give the II up when
  /// the policy says so.
  void run_mapping_loop(const Dfg& dfg, const CgraArch& arch,
                        const Deadline& deadline, TimeSolver& time_solver,
                        ScheduleBudget& schedules, MapResult& result) const;

  DecoupledMapperOptions options_;
};

}  // namespace monomap

#endif  // MONOMAP_MAPPER_DECOUPLED_MAPPER_HPP
