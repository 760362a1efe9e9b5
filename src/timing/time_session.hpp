// Incremental per-II time-phase session (the tentpole of the incremental
// time engine).
//
// The reference path (TimeSolver + TimeFormulation with
// TimeEngine::kReference) rebuilds the whole SAT encoding and a fresh
// solver for every (II, horizon-extension) instance, so a space failure or
// an UNSAT horizon teaches the next query nothing. A TimeSession instead
// owns ONE SatSolver for all horizon extensions of one II:
//
//  * Horizon activation is an assumption literal S_e per extension level.
//    The at-least-one ("node v is scheduled somewhere in its window")
//    clauses are guarded by ~S_e; solving at extension e assumes S_e, and
//    extending retires the previous selector with a permanent ~S_{e-1}
//    unit. All other constraint families are monotone in the horizon and
//    are appended unguarded.
//  * Extending the horizon appends exactly one new time step per node
//    (ALAP grows by one per horizon step): one new x variable, pairwise
//    at-most-one clauses against the node's existing steps, an x -> y slot
//    link, and the dependency conflict pairs against the neighbouring
//    windows. Learnt clauses, activities and phases all survive.
//  * y[v][slot] is one-directional here (x[v][T] -> y[v][slot], without the
//    reverse implication of TimeFormulation::equiv_or): a spurious true y
//    only tightens the at-most-k constraints and blocking clauses that
//    mention it, and every genuine schedule admits a model with exact y,
//    so soundness and completeness are both preserved while new slot
//    members stay appendable.
//  * Cardinality bounds (capacity per slot, connectivity per node x slot)
//    are re-emitted over the full member list whenever the list outgrows
//    the bound; the superseded encodings remain as valid, weaker
//    constraints.
//  * Space-conflict nogoods (add_label_nogood) and blocked label vectors
//    are clauses over y, so they keep pruning across every later horizon
//    extension of the II — the space phase's failures accumulate into the
//    time phase instead of evaporating on rebuild.
#ifndef MONOMAP_TIMING_TIME_SESSION_HPP
#define MONOMAP_TIMING_TIME_SESSION_HPP

#include <utility>
#include <vector>

#include "arch/cgra.hpp"
#include "encode/cnf_builder.hpp"
#include "ir/dfg.hpp"
#include "sched/asap_alap.hpp"
#include "timing/time_formulation.hpp"

namespace monomap {

class TimeSession {
 public:
  /// Build the base encoding at `start_horizon` schedule steps (0 = the
  /// critical path; otherwise at least the critical path). TimeSolver
  /// starts at the II's capacity floor (capacity_horizon_floor), since
  /// every narrower horizon is unsatisfiable.
  TimeSession(const Dfg& dfg, const CgraArch& arch, int ii,
              TimeConstraintOptions options = TimeConstraintOptions{},
              int start_horizon = 0);

  /// False once the underlying formula is unsatisfiable without any
  /// assumptions — no horizon extension of this II can recover.
  [[nodiscard]] bool ok() const { return ok_; }

  [[nodiscard]] int ii() const { return ii_; }
  [[nodiscard]] int horizon() const { return horizon_; }
  /// Horizon steps added since construction.
  [[nodiscard]] int extension() const {
    return static_cast<int>(selectors_.size()) - 1;
  }

  /// Widen every node's window by one schedule step and activate the next
  /// selector. Returns ok().
  bool extend_horizon();

  /// Solve at the current horizon (assumes the current selector literal).
  /// kUnsat means "no schedule within this horizon" unless unsat_is_final().
  SatStatus solve(const Deadline& deadline);

  /// After solve() returned kUnsat: true when the refutation did not rest
  /// on the horizon selector, i.e. the II itself is exhausted (blocking
  /// clauses / nogoods made the formula unsatisfiable outright).
  [[nodiscard]] bool unsat_is_final() const;

  /// Extract the schedule from the current model (solve() returned kSat).
  [[nodiscard]] TimeSolution extract() const;

  /// Forbid the label vector of `solution` across all future horizons of
  /// this II. Returns ok().
  bool block_labels(const TimeSolution& solution);

  /// Record a space-conflict nogood: the given (node, slot) placements are
  /// jointly spatially infeasible, so forbid every schedule that realises
  /// all of them. Returns ok().
  bool add_label_nogood(const std::vector<std::pair<NodeId, int>>& placements);

  [[nodiscard]] TimeFormulationStats stats() const;
  /// The underlying solver: its SatStats, learnt clauses, last model and
  /// whether its last kUnknown was a memory-governor trip.
  [[nodiscard]] const SatSolver& solver() const { return solver_; }

  /// Re-bias the decision phases toward a space-friendly schedule, with
  /// `salt` rotating the preferred steps so successive re-seeds (one per
  /// space failure) walk structurally different schedule families.
  void reseed_phases(int salt) { seed_space_friendly_phases(salt); }

 private:
  [[nodiscard]] Lit x_lit(NodeId v, int t) const;
  [[nodiscard]] SatVar y_of(NodeId v, int slot) const;
  SatVar y_get_or_create(NodeId v, int slot);

  void append_step(NodeId v, int t);
  void emit_dependency_pairs(NodeId src, NodeId dst, int dist, int ts_lo,
                             int ts_hi, int td_lo, int td_hi);
  void emit_new_dependency_pairs();
  void emit_window_clauses(SatVar selector);
  void refresh_cardinalities();
  void seed_space_friendly_phases(int salt);

  const Dfg& dfg_;
  const CgraArch& arch_;
  int ii_;
  TimeConstraintOptions options_;
  int horizon_;
  std::vector<ScheduleRange> ranges_;
  SatSolver solver_;
  CnfBuilder cnf_;
  std::vector<std::vector<SatVar>> x_;  // per node, indexed by t - asap
  std::vector<SatVar> y_var_;           // v*ii + slot, -1 = absent
  std::vector<SatVar> selectors_;       // one per extension level
  // Member-list sizes at the last at-most-k emission, so each cardinality
  // constraint is re-encoded only when its scope actually grew.
  std::vector<int> cap_emitted_;   // per slot
  std::vector<int> conn_emitted_;  // per v*ii + slot
  bool ok_ = true;
};

}  // namespace monomap

#endif  // MONOMAP_TIMING_TIME_SESSION_HPP
