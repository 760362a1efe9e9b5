// Conflict-driven clause-learning SAT solver.
//
// This is the search engine behind both the decoupled time formulation and
// the coupled SAT-MapIt-style baseline (DESIGN.md S7; substitution for Z3).
// Feature set: two-watched-literal propagation, 1-UIP clause learning with
// minimisation against the clause's own literals, VSIDS decision heuristic
// with phase saving, Luby restarts, LBD-based learned-clause reduction,
// incremental clause addition between solve() calls, solve-under-
// assumptions with failed-assumption (final conflict) extraction, and
// wall-clock/conflict budgets. Learnt clauses, variable activities and
// saved phases persist across calls, so a sequence of closely related
// queries (the time phase's horizon extensions and blocking-clause
// re-solves) shares one warm solver.
//
// Storage: every clause lives in one flat arena of 32-bit words, a 4-word
// header (size; LBD with learnt and deleted flags; activity) followed by
// its literals, and is named by its 32-bit offset. Watches are 8 bytes
// (offset and blocker literal) and assignment values are indexed by
// literal, so a watch visit reads the clause's words directly. Reduction
// detaches its victims in creation order and compacts the arena in arena
// order, so the search never depends on where the heap put a clause; the
// memory governor is charged the arena bytes of each learnt clause
// (docs/performance.md, "SAT core").
#ifndef MONOMAP_SAT_SOLVER_HPP
#define MONOMAP_SAT_SOLVER_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "sat/literal.hpp"
#include "support/stopwatch.hpp"

namespace monomap {

enum class SatStatus { kSat, kUnsat, kUnknown };

const char* to_string(SatStatus status);

struct SatStats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learned_clauses = 0;
  std::uint64_t deleted_clauses = 0;
  std::uint64_t minimized_literals = 0;
};

class SatSolver {
 public:
  SatSolver();
  ~SatSolver();
  SatSolver(const SatSolver&) = delete;
  SatSolver& operator=(const SatSolver&) = delete;

  /// Create a fresh variable; returns its index.
  SatVar new_var();

  [[nodiscard]] int num_vars() const;
  [[nodiscard]] int num_clauses() const;

  /// Add a clause (disjunction of literals). Returns false if the formula
  /// became trivially unsatisfiable (empty clause / conflicting units).
  /// May be called before or between solve() invocations (incremental use:
  /// the mapper adds blocking clauses and re-solves).
  bool add_clause(std::vector<Lit> lits);

  /// Convenience overloads.
  bool add_unit(Lit a) { return add_clause({a}); }
  bool add_binary(Lit a, Lit b) { return add_clause({a, b}); }
  bool add_ternary(Lit a, Lit b, Lit c) { return add_clause({a, b, c}); }

  /// Solve under an optional wall-clock deadline and conflict budget
  /// (0 = unlimited conflicts).
  SatStatus solve(const Deadline& deadline = Deadline::unlimited(),
                  std::uint64_t conflict_budget = 0);

  /// Solve with `assumptions` held as temporary decisions (MiniSat-style
  /// incremental interface). A kUnsat result under non-empty assumptions
  /// does NOT poison the solver: the formula may still be satisfiable under
  /// different assumptions, and failed_assumptions() names the subset of
  /// assumptions the refutation rests on. Learnt clauses survive the call.
  SatStatus solve_assuming(const std::vector<Lit>& assumptions,
                           const Deadline& deadline = Deadline::unlimited(),
                           std::uint64_t conflict_budget = 0);

  /// After solve_assuming() returned kUnsat: the (not necessarily minimal)
  /// subset of the assumption literals whose joint propagation is
  /// contradictory. Empty when the formula is unsatisfiable outright —
  /// no horizon-activation assumption can revive it.
  [[nodiscard]] const std::vector<Lit>& failed_assumptions() const;

  /// Learnt clauses currently alive in the database (retained across
  /// solve() calls; the incremental time session reports this as its
  /// reuse statistic).
  [[nodiscard]] int num_learnts() const;

  /// True when the last solve returned kUnknown because the bound
  /// ResourceGovernor's memory budget tripped (learnt-DB charge denied
  /// even after shedding, or another subsystem tripped the governor),
  /// rather than because of the deadline or conflict budget. The caller
  /// maps this to the `memory` outcome instead of `deadline`.
  [[nodiscard]] bool last_unknown_was_memory() const;

  /// Seed the decision phase of `v` (the polarity picked when the solver
  /// branches on it). Overwritten by phase saving once the variable is
  /// assigned during search; callers use this to bias the FIRST model
  /// toward a preferred shape (the time session seeds space-friendly
  /// schedules). Has no effect on satisfiability.
  void set_polarity(SatVar v, bool phase);

  /// Value of `v` in the model found by the last solve() (kSat only).
  [[nodiscard]] bool model_value(SatVar v) const;
  [[nodiscard]] bool model_value(Lit l) const {
    return model_value(l.var()) != l.negated();
  }

  [[nodiscard]] const SatStats& stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// A CNF formula in portable form: clauses of signed 1-based literals.
struct CnfFormula {
  int num_vars = 0;
  std::vector<std::vector<int>> clauses;
};

/// Load a formula into `solver`, creating variables 0..num_vars-1.
/// Returns false if the formula is trivially unsatisfiable.
bool load_into_solver(const CnfFormula& formula, SatSolver& solver);

}  // namespace monomap

#endif  // MONOMAP_SAT_SOLVER_HPP
