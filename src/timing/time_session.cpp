#include "timing/time_session.hpp"

#include <algorithm>

#include "graph/algorithms.hpp"
#include "support/fault.hpp"

namespace monomap {

TimeSession::TimeSession(const Dfg& dfg, const CgraArch& arch, int ii,
                         TimeConstraintOptions options, int start_horizon)
    : dfg_(dfg),
      arch_(arch),
      ii_(ii),
      options_(options),
      horizon_(start_horizon > 0 ? start_horizon
                                 : critical_path_length(dfg)),
      ranges_(compute_asap_alap(dfg, horizon_)),
      cnf_(solver_) {
  MONOMAP_ASSERT(ii >= 1);
  const int n = dfg_.num_nodes();
  x_.resize(static_cast<std::size_t>(n));
  y_var_.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(ii_),
                -1);
  cap_emitted_.assign(static_cast<std::size_t>(ii_), 0);
  conn_emitted_.assign(
      static_cast<std::size_t>(n) * static_cast<std::size_t>(ii_), 0);

  // Base window: x variables, at-most-one per node (Sinz above 8 — later
  // steps extend it pairwise), and the x -> y slot links.
  for (NodeId v = 0; v < n; ++v) {
    const ScheduleRange& r = ranges_[static_cast<std::size_t>(v)];
    std::vector<Lit> window;
    window.reserve(static_cast<std::size_t>(r.width()));
    for (int t = r.asap; t <= r.alap; ++t) {
      const SatVar x = solver_.new_var();
      x_[static_cast<std::size_t>(v)].push_back(x);
      window.push_back(Lit::pos(x));
    }
    if (!cnf_.at_most_one(window)) ok_ = false;
    for (int t = r.asap; t <= r.alap; ++t) {
      const SatVar y = y_get_or_create(v, t % ii_);
      if (!cnf_.implies(x_lit(v, t), Lit::pos(y))) ok_ = false;
    }
  }

  if (options_.dependencies) {
    const Graph& g = dfg_.graph();
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const Edge& edge = g.edge(e);
      if (edge.src == edge.dst) {
        MONOMAP_ASSERT_MSG(edge.attr >= 1,
                           "zero-distance self-dependency is unschedulable");
        continue;
      }
      const ScheduleRange& rs = ranges_[static_cast<std::size_t>(edge.src)];
      const ScheduleRange& rd = ranges_[static_cast<std::size_t>(edge.dst)];
      emit_dependency_pairs(edge.src, edge.dst, edge.attr, rs.asap, rs.alap,
                            rd.asap, rd.alap);
    }
  }

  selectors_.push_back(solver_.new_var());
  emit_window_clauses(selectors_.back());
  refresh_cardinalities();
  seed_space_friendly_phases(0);
}

void TimeSession::seed_space_friendly_phases(int salt) {
  // Bias the next model toward schedules the space phase places easily:
  // walk the distance-0 DAG in topological order and give every node a
  // preferred window step whose kernel slot (a) holds the fewest of the
  // node's DFG neighbours (connectivity pressure is what makes placements
  // fail) and (b) has the lowest overall occupancy. `salt` rotates which
  // step wins among equal scores, so a re-seed after a space failure
  // steers the search toward a structurally different schedule instead of
  // the nearest neighbour of the blocked one. This only touches decision
  // phases — satisfiability and completeness are untouched; phase saving
  // takes over as soon as search learns better.
  const Graph& g = dfg_.graph();
  const auto order = topological_sort(g, edges_with_attr(0));
  if (!order.has_value()) return;
  std::vector<int> slot_load(static_cast<std::size_t>(ii_), 0);
  std::vector<int> seeded_slot(static_cast<std::size_t>(dfg_.num_nodes()),
                               -1);
  for (const NodeId v : *order) {
    const ScheduleRange& r = ranges_[static_cast<std::size_t>(v)];
    const std::vector<NodeId> neighbors = g.undirected_neighbors(v);
    // Drop stale phases from a previous seeding round.
    for (int t = r.asap; t <= r.alap; ++t) {
      solver_.set_polarity(x_lit(v, t).var(), false);
    }
    for (int slot = 0; slot < ii_; ++slot) {
      if (const SatVar y = y_of(v, slot); y >= 0) {
        solver_.set_polarity(y, false);
      }
    }
    int best_t = r.asap;
    long best_score = -1;
    const int width = r.width();
    for (int k = 0; k < width; ++k) {
      const int t = r.asap + (k + salt) % width;  // salt-rotated visit order
      const int slot = t % ii_;
      int neighbor_load = 0;
      for (const NodeId u : neighbors) {
        if (seeded_slot[static_cast<std::size_t>(u)] == slot) {
          ++neighbor_load;
        }
      }
      // Spread a node's neighbours across slots (same-slot neighbour
      // concentration is what makes placements fail), but PACK the global
      // slot occupancy: dense slots give the space search strong mono1
      // propagation, so dense schedules place fast or refute fast — and a
      // fast refutation carries a nogood. Capacity-full slots are avoided.
      const bool full =
          slot_load[static_cast<std::size_t>(slot)] >= arch_.num_pes();
      const long score =
          (static_cast<long>(neighbor_load) + (full ? 1 : 0)) *
              (static_cast<long>(dfg_.num_nodes()) + 1) -
          (full ? 0 : slot_load[static_cast<std::size_t>(slot)]);
      if (best_score < 0 || score < best_score) {
        best_score = score;
        best_t = t;
      }
    }
    const int slot = best_t % ii_;
    seeded_slot[static_cast<std::size_t>(v)] = slot;
    ++slot_load[static_cast<std::size_t>(slot)];
    // Seed the step AND its slot alias: branching on y[v][slot'] = false
    // (the default phase) wipes a whole slot before any x is touched, so
    // the y phases must tell the same story as the x phases.
    solver_.set_polarity(x_lit(v, best_t).var(), true);
    solver_.set_polarity(y_of(v, slot), true);
  }
}

Lit TimeSession::x_lit(NodeId v, int t) const {
  const ScheduleRange& r = ranges_[static_cast<std::size_t>(v)];
  MONOMAP_ASSERT(r.contains(t));
  return Lit::pos(
      x_[static_cast<std::size_t>(v)][static_cast<std::size_t>(t - r.asap)]);
}

SatVar TimeSession::y_of(NodeId v, int slot) const {
  return y_var_[static_cast<std::size_t>(v) * static_cast<std::size_t>(ii_) +
                static_cast<std::size_t>(slot)];
}

SatVar TimeSession::y_get_or_create(NodeId v, int slot) {
  const std::size_t idx =
      static_cast<std::size_t>(v) * static_cast<std::size_t>(ii_) +
      static_cast<std::size_t>(slot);
  if (y_var_[idx] < 0) y_var_[idx] = solver_.new_var();
  return y_var_[idx];
}

void TimeSession::append_step(NodeId v, int t) {
  const SatVar x = solver_.new_var();
  // Pairwise exclusion against every existing step keeps the node's
  // at-most-one valid no matter how the base window was encoded.
  for (const SatVar prev : x_[static_cast<std::size_t>(v)]) {
    if (!cnf_.forbid_pair(Lit::pos(prev), Lit::pos(x))) ok_ = false;
  }
  x_[static_cast<std::size_t>(v)].push_back(x);
  const SatVar y = y_get_or_create(v, t % ii_);
  if (!cnf_.implies(Lit::pos(x), Lit::pos(y))) ok_ = false;
}

void TimeSession::emit_dependency_pairs(NodeId src, NodeId dst, int dist,
                                        int ts_lo, int ts_hi, int td_lo,
                                        int td_hi) {
  for (int ts = ts_lo; ts <= ts_hi; ++ts) {
    for (int td = td_lo; td <= td_hi; ++td) {
      // Require T_d + dist*II >= T_s + 1; forbid violating pairs.
      bool forbid = td + dist * ii_ < ts + 1;
      if (!forbid && options_.consecutive_slots && ii_ > 2) {
        // Restricted interconnect: the MRRG only links equal or
        // cyclically-consecutive slots (no register persistence).
        const int d = ((td - ts) % ii_ + ii_) % ii_;
        forbid = !(d == 0 || d == 1 || d == ii_ - 1);
      }
      if (forbid && !cnf_.forbid_pair(x_lit(src, ts), x_lit(dst, td))) {
        ok_ = false;
      }
    }
  }
}

void TimeSession::emit_new_dependency_pairs() {
  const Graph& g = dfg_.graph();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    if (edge.src == edge.dst) continue;
    const ScheduleRange& rs = ranges_[static_cast<std::size_t>(edge.src)];
    const ScheduleRange& rd = ranges_[static_cast<std::size_t>(edge.dst)];
    // Each extension adds exactly the step `alap` per node: pair the new
    // source step against the full destination window, then the old source
    // window against the new destination step.
    emit_dependency_pairs(edge.src, edge.dst, edge.attr, rs.alap, rs.alap,
                          rd.asap, rd.alap);
    emit_dependency_pairs(edge.src, edge.dst, edge.attr, rs.asap,
                          rs.alap - 1, rd.alap, rd.alap);
  }
}

void TimeSession::emit_window_clauses(SatVar selector) {
  // Guarded at-least-one: under this extension's selector every node is
  // scheduled somewhere in its current window.
  for (NodeId v = 0; v < dfg_.num_nodes(); ++v) {
    const ScheduleRange& r = ranges_[static_cast<std::size_t>(v)];
    std::vector<Lit> clause;
    clause.reserve(static_cast<std::size_t>(r.width()) + 1);
    clause.push_back(Lit::neg(selector));
    for (int t = r.asap; t <= r.alap; ++t) {
      clause.push_back(x_lit(v, t));
    }
    if (!solver_.add_clause(std::move(clause))) ok_ = false;
  }
}

void TimeSession::refresh_cardinalities() {
  const int n = dfg_.num_nodes();
  if (options_.capacity) {
    for (int slot = 0; slot < ii_; ++slot) {
      std::vector<Lit> at_slot;
      for (NodeId v = 0; v < n; ++v) {
        if (const SatVar y = y_of(v, slot); y >= 0) {
          at_slot.push_back(Lit::pos(y));
        }
      }
      const int size = static_cast<int>(at_slot.size());
      if (size <= arch_.num_pes() ||
          size <= cap_emitted_[static_cast<std::size_t>(slot)]) {
        continue;
      }
      if (!cnf_.at_most_k(at_slot, arch_.num_pes())) ok_ = false;
      cap_emitted_[static_cast<std::size_t>(slot)] = size;
    }
  }
  if (options_.connectivity) {
    const int degree = arch_.connectivity_degree();
    for (NodeId v = 0; v < n; ++v) {
      const std::vector<NodeId> neighbors =
          dfg_.graph().undirected_neighbors(v);
      for (int slot = 0; slot < ii_; ++slot) {
        std::vector<Lit> same_slot;
        for (const NodeId u : neighbors) {
          if (const SatVar y = y_of(u, slot); y >= 0) {
            same_slot.push_back(Lit::pos(y));
          }
        }
        if (options_.strict_connectivity) {
          // Count v itself: it occupies one of the D_M closed-neighbourhood
          // positions at its own slot (ablation A2 semantics).
          if (const SatVar y = y_of(v, slot); y >= 0) {
            same_slot.push_back(Lit::pos(y));
          }
        }
        const std::size_t idx =
            static_cast<std::size_t>(v) * static_cast<std::size_t>(ii_) +
            static_cast<std::size_t>(slot);
        const int size = static_cast<int>(same_slot.size());
        if (size <= degree || size <= conn_emitted_[idx]) continue;
        if (!cnf_.at_most_k(same_slot, degree)) ok_ = false;
        conn_emitted_[idx] = size;
      }
    }
  }
}

bool TimeSession::extend_horizon() {
  if (!ok_) return false;
  const SatVar retired = selectors_.back();
  ++horizon_;
  const std::vector<ScheduleRange> next =
      compute_asap_alap(dfg_, horizon_);
  for (NodeId v = 0; v < dfg_.num_nodes(); ++v) {
    const ScheduleRange& oldr = ranges_[static_cast<std::size_t>(v)];
    const ScheduleRange& newr = next[static_cast<std::size_t>(v)];
    // The incremental encoding relies on windows growing by exactly one
    // step at the tail (ALAP = horizon - 1 - tail(v)).
    MONOMAP_ASSERT(newr.asap == oldr.asap && newr.alap == oldr.alap + 1);
  }
  ranges_ = next;
  for (NodeId v = 0; v < dfg_.num_nodes(); ++v) {
    append_step(v, ranges_[static_cast<std::size_t>(v)].alap);
  }
  if (options_.dependencies) emit_new_dependency_pairs();
  selectors_.push_back(solver_.new_var());
  emit_window_clauses(selectors_.back());
  refresh_cardinalities();
  // Retire the previous horizon permanently — the search never narrows.
  if (!solver_.add_unit(Lit::neg(retired))) ok_ = false;
  return ok_;
}

SatStatus TimeSession::solve(const Deadline& deadline) {
  fault::maybe_inject("time.session");
  if (!ok_) return SatStatus::kUnsat;
  // Early-out before touching the solver: a cancelled speculative attempt
  // (its Deadline's token fired) should stop at the next call boundary
  // instead of paying for a solver round first.
  if (deadline.expired()) return SatStatus::kUnknown;
  return solver_.solve_assuming({Lit::pos(selectors_.back())}, deadline);
}

bool TimeSession::unsat_is_final() const {
  return !ok_ || solver_.failed_assumptions().empty();
}

TimeSolution TimeSession::extract() const {
  TimeSolution solution;
  solution.ii = ii_;
  solution.horizon = horizon_;
  solution.time.resize(static_cast<std::size_t>(dfg_.num_nodes()), -1);
  for (NodeId v = 0; v < dfg_.num_nodes(); ++v) {
    const ScheduleRange& r = ranges_[static_cast<std::size_t>(v)];
    for (int t = r.asap; t <= r.alap; ++t) {
      if (solver_.model_value(x_lit(v, t))) {
        solution.time[static_cast<std::size_t>(v)] = t;
        break;
      }
    }
    MONOMAP_ASSERT_MSG(solution.time[static_cast<std::size_t>(v)] >= 0,
                       "model has no time for node " << v);
  }
  return solution;
}

bool TimeSession::block_labels(const TimeSolution& solution) {
  std::vector<Lit> clause;
  clause.reserve(static_cast<std::size_t>(dfg_.num_nodes()));
  for (NodeId v = 0; v < dfg_.num_nodes(); ++v) {
    const SatVar y = y_of(v, solution.label(v));
    MONOMAP_ASSERT(y >= 0);
    clause.push_back(Lit::neg(y));
  }
  if (!solver_.add_clause(std::move(clause))) ok_ = false;
  return ok_;
}

bool TimeSession::add_label_nogood(
    const std::vector<std::pair<NodeId, int>>& placements) {
  std::vector<Lit> clause;
  clause.reserve(placements.size());
  for (const auto& [v, slot] : placements) {
    MONOMAP_ASSERT(slot >= 0 && slot < ii_);
    // Materialise the slot variable even if no current window step reaches
    // it: the clause then already binds when a later horizon extension
    // links an x to it (an unlinked y floats false at zero cost).
    clause.push_back(Lit::neg(y_get_or_create(v, slot)));
  }
  if (!solver_.add_clause(std::move(clause))) ok_ = false;
  return ok_;
}

TimeFormulationStats TimeSession::stats() const {
  return TimeFormulationStats{solver_.num_vars(), solver_.num_clauses()};
}

}  // namespace monomap
