// Time-dimension search at one II (paper Sec. IV-B).
//
// A TimeSolver searches the KMS of a single II (optionally with extended
// schedule horizons, which add mobility slack exactly like SAT-MapIt's
// iterative schedule extension) and yields schedules. The caller
// (DecoupledMapper, whose II walk builds one solver per II attempt) may
// ask for further, different-labelled schedules after a space failure —
// and may feed the space phase's conflict explanation back as a nogood
// that prunes whole families of schedules, not just the failed label
// vector.
//
// Each II's search starts at its capacity floor (capacity_horizon_floor):
// horizons whose windows cannot seat every node at most |PEs| per slot are
// unsatisfiable, and CDCL refutes such pigeonhole windows only with
// exponential effort, so they are skipped without a solver — and an II
// with no floor at all is exhausted without building one.
//
// Two engines drive the search:
//  * TimeEngine::kIncremental (default) — one persistent TimeSession (one
//    warm SAT solver) per II serves every horizon extension via
//    assumption literals; learnt clauses, blocked label vectors and
//    space-conflict nogoods all survive horizon extension.
//  * TimeEngine::kReference — the original rebuild-per-instance path (a
//    fresh TimeFormulation per (II, extension)), kept as the independent
//    oracle for differential testing, mirroring the PR 3 space-engine
//    pattern.
#ifndef MONOMAP_TIMING_TIME_SOLVER_HPP
#define MONOMAP_TIMING_TIME_SOLVER_HPP

#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "timing/time_formulation.hpp"
#include "timing/time_session.hpp"

namespace monomap {

/// Time-search engine (see tests/time_engines_test.cpp for the
/// differential harness).
enum class TimeEngine {
  /// Persistent per-II session: incremental horizon extension under
  /// assumption literals, learnt-clause reuse, nogood accumulation.
  kIncremental,
  /// Rebuild-per-instance reference path (nogoods are re-applied after
  /// every rebuild so both engines prune the same schedules).
  kReference,
};

const char* to_string(TimeEngine engine);

struct TimeSolverOptions {
  TimeConstraintOptions constraints;
  TimeEngine engine = TimeEngine::kIncremental;
  /// Extra schedule steps to try beyond the critical path at each II before
  /// giving the II up. Adds KMS folds, exactly like the paper's iterative
  /// MobS folding.
  int max_horizon_extension = 8;
};

/// The time search's effort counters, declared once as X(type, name,
/// merge): TimeSolverStats holds them, and a walk's merge_attempt_counters
/// and write_json (mapper/decoupled_mapper.hpp) are generated from the
/// list. `merge` says how the attempts of one walk fold (sum or max). The
/// incremental-reuse counters stay zero on the kReference path where noted.
#define MONOMAP_TIME_COUNTERS(X)                                           \
  X(int, instances_built, sum)  /* (II, extension) instances activated */ \
  X(int, sat_calls, sum)                                                   \
  X(int, solutions_yielded, sum)                                           \
  X(int, sessions_created, sum)   /* warm solvers built (kIncremental) */  \
  X(int, horizon_extensions, sum) /* in-place window growths */            \
  X(int, assumptions_used, sum)   /* assumption literals passed */         \
  X(int, nogoods_added, sum)      /* distinct space conflicts recorded */  \
  X(int, narrow_nogoods, sum)     /* over a strict subset of nodes */      \
  X(int, nogoods_lifted, sum)     /* extra rotation clauses from them */   \
  X(int, nogoods_deduped, sum)    /* covered by a recorded nogood */       \
  /* Horizons never handed to SAT because they lie below their II's      \
     capacity floor (capacity_horizon_floor), whole IIs included. */       \
  X(int, capacity_refuted_horizons, sum)                                   \
  /* SatStats of every solver the search built, up to its last solve. */  \
  X(std::uint64_t, sat_conflicts, sum)                                     \
  X(std::uint64_t, sat_decisions, sum)                                     \
  X(std::uint64_t, sat_propagations, sum)

struct TimeSolverStats {
#define MONOMAP_DECLARE_COUNTER(type, name, merge) type name = 0;
  MONOMAP_TIME_COUNTERS(MONOMAP_DECLARE_COUNTER)
#undef MONOMAP_DECLARE_COUNTER
  /// Learnt clauses alive after the last call (kIncremental) — a gauge of
  /// the final attempt, not summed over a walk.
  int learnt_retained = 0;
  TimeFormulationStats last_formulation;
};

class TimeSolver {
 public:
  /// A search pinned to `ii` (>= 1). Below mII the search simply comes
  /// back exhausted.
  TimeSolver(const Dfg& dfg, const CgraArch& arch, int ii,
             TimeSolverOptions options = TimeSolverOptions{});
  ~TimeSolver();
  TimeSolver(const TimeSolver&) = delete;
  TimeSolver& operator=(const TimeSolver&) = delete;

  /// Yield the next time solution. Subsequent calls block the previously
  /// returned label vector and continue the search (same horizon first,
  /// then larger horizons). Returns std::nullopt when the II's search space
  /// is exhausted or the deadline expired (see timed_out()).
  std::optional<TimeSolution> next(const Deadline& deadline);

  /// Record a space-conflict nogood against the current II: the subset
  /// `nodes` of `solution`'s nodes cannot jointly take their labelled
  /// slots, so prune every schedule that repeats those placements, and
  /// every cyclic rotation of them.
  ///
  /// Why rotations are sound: the spatial sub-problem restricted to the
  /// conflict nodes depends only on the slot *partition* their labels
  /// induce. Under MrrgModel::kRegisterPersistence capacity wants distinct
  /// PEs per same-label group (mono1) and the MRRG adjacency never reads
  /// label values (mono3), and *merging* partition blocks only adds
  /// same-slot constraints, i.e. only tightens. So any schedule whose
  /// labels restricted to the conflict nodes induce the same partition, or
  /// a coarser one, is spatially infeasible too — a cyclic rotation
  /// preserves the partition exactly. Under kConsecutiveOnly cyclic label
  /// distances matter as well, and those are rotation-invariant at a fixed
  /// II (they change with II, so the argument stops at the II boundary).
  ///
  /// The conflict is lifted to all ii rotations — one clause each — so a
  /// refuted schedule family takes its rotated twins down with it.
  /// Conflicts already covered by a recorded nogood are skipped
  /// (stats().nogoods_deduped). Nogoods persist across horizon extensions
  /// of the II (and rebuilds on the reference path) and subsume blocking
  /// `solution` itself. Returns false if `solution` is not from the
  /// current II.
  bool add_space_nogood(const TimeSolution& solution,
                        const std::vector<NodeId>& nodes);

  [[nodiscard]] bool timed_out() const { return timed_out_; }
  /// Subset of timed_out(): the stop came from the memory governor
  /// tripping, not the deadline — callers classify it as `memory`.
  [[nodiscard]] bool memory_out() const { return memory_out_; }
  [[nodiscard]] const TimeSolverStats& stats() const { return stats_; }

 private:
  bool advance_instance();  // move to the next extension; false if done
  // First extension worth a SAT call at the current II (its capacity
  // floor minus the critical path), or -1 when the floor rules out every
  // horizon up to max_horizon_extension.
  int first_extension_at_ii();

  const Dfg& dfg_;
  const CgraArch& arch_;
  TimeSolverOptions options_;
  int ii_;
  int critical_path_;
  // Counted from the critical path; -1 until the current II's first
  // instance exists.
  int extension_ = -1;
  bool exhausted_ = false;  // no horizon left to try at the II
  // kReference engine state: one formulation per (ii, extension), plus the
  // nogoods recorded at this II (rotations included) for re-application
  // after each rebuild.
  std::unique_ptr<TimeFormulation> formulation_;
  SatStats sat_folded_;  // the current solver's stats at the last fold
  std::vector<std::vector<std::pair<NodeId, int>>> ii_nogoods_;
  // Conflicts recorded at this II, every rotation of each — the dedupe set.
  std::set<std::vector<std::pair<NodeId, int>>> seen_nogoods_;
  // kIncremental engine state: one warm session per II.
  std::unique_ptr<TimeSession> session_;
  int reseed_salt_ = 0;  // phase-diversification counter at this II
  std::optional<TimeSolution> last_solution_;
  bool last_blocked_by_nogood_ = false;
  bool instance_ok_ = false;
  bool timed_out_ = false;
  bool memory_out_ = false;
  TimeSolverStats stats_;
};

}  // namespace monomap

#endif  // MONOMAP_TIMING_TIME_SOLVER_HPP
