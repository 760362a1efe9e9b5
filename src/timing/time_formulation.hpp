// SAT encoding of the paper's time-dimension formulation (Sec. IV-B).
//
// Decision variables: x[v][T] = "node v is scheduled at absolute KMS time T"
// for T in v's mobility window, plus aliases y[v][i] = "node v occupies
// kernel slot i" (i = T mod II). Constraint families:
//
//  1. modulo scheduling — for every DFG edge (s -> d, distance dist):
//     T_d + dist*II >= T_s + 1 (unit latency). Folding this inequality by II
//     yields exactly the paper's four case-split rules over (t, it) pairs.
//  2. capacity — per slot i: at-most-|PEs| of {y[v][i]}.
//  3. connectivity — per node v and slot i: at most D_M of v's DFG
//     neighbours occupy slot i (strict mode additionally counts v itself
//     when i is v's own slot — ablation A2).
//
// The formulation is deliberately CGRA-size-independent except for the two
// integer bounds |PEs| and D_M — that is the source of the paper's
// scalability result.
#ifndef MONOMAP_TIMING_TIME_FORMULATION_HPP
#define MONOMAP_TIMING_TIME_FORMULATION_HPP

#include <optional>
#include <utility>
#include <vector>

#include "arch/cgra.hpp"
#include "encode/cnf_builder.hpp"
#include "ir/dfg.hpp"
#include "sched/mobility.hpp"

namespace monomap {

/// Which constraint families to emit (ablation A1 disables some).
struct TimeConstraintOptions {
  bool dependencies = true;
  bool capacity = true;
  bool connectivity = true;
  /// Additionally count the node itself in S_i^v at its own slot. The paper
  /// states the constraint without the self term; including it is exactly
  /// necessary (the node occupies one of the D_M closed-neighbourhood
  /// vertices at its own slot) and never excludes a feasible placement, so
  /// it is on by default. Ablation A2 measures the paper's literal variant.
  bool strict_connectivity = true;
  /// Restricted-interconnect mode (the paper's future-work architecture,
  /// without cross-slot register persistence): every dependency must land
  /// on equal or cyclically-consecutive kernel slots, matching the
  /// MrrgModel::kConsecutiveOnly edge set.
  bool consecutive_slots = false;
};

/// A schedule found by the time solver: absolute times per node; labels are
/// time[v] mod ii.
struct TimeSolution {
  int ii = 0;
  int horizon = 0;
  std::vector<int> time;

  [[nodiscard]] int label(NodeId v) const {
    return time[static_cast<std::size_t>(v)] % ii;
  }
};

/// Encoding-size statistics (micro-bench A6).
struct TimeFormulationStats {
  int num_vars = 0;
  int num_clauses = 0;
};

class TimeFormulation {
 public:
  /// Build the encoding for `dfg` at the given II over `horizon` schedule
  /// steps (horizon >= critical path; pass 0 for exactly the critical path).
  TimeFormulation(const Dfg& dfg, const CgraArch& arch, int ii,
                  int horizon = 0,
                  TimeConstraintOptions options = TimeConstraintOptions{});

  /// Emit all constraints. Returns false if trivially unsatisfiable.
  bool build();

  /// Solve; kUnknown on deadline/conflict budget exhaustion.
  SatStatus solve(const Deadline& deadline);

  /// Extract the schedule from the current model (solve() returned kSat).
  [[nodiscard]] TimeSolution extract() const;

  /// Forbid the label vector of `solution` (one clause), so the next solve
  /// yields a schedule with a different slot assignment. Returns false if
  /// the formula became unsatisfiable.
  bool block_labels(const TimeSolution& solution);

  /// Forbid every schedule that realises all of the given (node, slot)
  /// placements simultaneously — the reference-path application of a
  /// space-conflict nogood (TimeSolver re-applies these after each
  /// rebuild). Placements a node can never reach in this instance satisfy
  /// the nogood vacuously. Returns false if the formula became
  /// unsatisfiable.
  bool add_label_nogood(
      const std::vector<std::pair<NodeId, int>>& placements);

  [[nodiscard]] int ii() const { return ii_; }
  [[nodiscard]] int horizon() const { return mobs_.length(); }
  [[nodiscard]] TimeFormulationStats stats() const;
  /// The underlying solver: its SatStats, learnt clauses, last model and
  /// whether its last kUnknown was a memory-governor trip.
  [[nodiscard]] const SatSolver& solver() const { return solver_; }

 private:
  [[nodiscard]] Lit x_lit(NodeId v, int t) const;
  [[nodiscard]] std::optional<Lit> y_lit(NodeId v, int slot) const;

  bool emit_selection();
  bool emit_dependencies();
  bool emit_capacity();
  bool emit_connectivity();

  const Dfg& dfg_;
  const CgraArch& arch_;
  int ii_;
  TimeConstraintOptions options_;
  MobilitySchedule mobs_;
  SatSolver solver_;
  CnfBuilder cnf_;
  // x_base_[v]: SatVar of x[v][asap(v)]; consecutive vars follow.
  std::vector<SatVar> x_base_;
  // y_var_[v*ii + slot]: var of y[v][slot] or -1 if v can never sit there.
  std::vector<SatVar> y_var_;
  bool built_ = false;
};

}  // namespace monomap

#endif  // MONOMAP_TIMING_TIME_FORMULATION_HPP
