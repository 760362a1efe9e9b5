#include "timing/time_solver.hpp"

#include <algorithm>

#include "sched/asap_alap.hpp"
#include "sched/kms.hpp"
#include "support/log.hpp"

namespace monomap {

const char* to_string(TimeEngine engine) {
  switch (engine) {
    case TimeEngine::kIncremental: return "incremental";
    case TimeEngine::kReference: return "reference";
  }
  return "?";
}

TimeSolver::TimeSolver(const Dfg& dfg, const CgraArch& arch, int ii,
                       TimeSolverOptions options)
    : dfg_(dfg),
      arch_(arch),
      options_(options),
      ii_(ii),
      critical_path_(critical_path_length(dfg)) {
  MONOMAP_ASSERT(dfg.num_nodes() > 0);
  MONOMAP_ASSERT(ii >= 1);
}

TimeSolver::~TimeSolver() = default;

int TimeSolver::first_extension_at_ii() {
  if (!options_.constraints.capacity) return 0;
  const int max_extension = std::max(0, options_.max_horizon_extension);
  const int floor =
      capacity_horizon_floor(dfg_, ii_, arch_.num_pes(), max_extension);
  if (floor < 0) {
    stats_.capacity_refuted_horizons += max_extension + 1;
    return -1;
  }
  stats_.capacity_refuted_horizons += floor - critical_path_;
  return floor - critical_path_;
}

bool TimeSolver::advance_instance() {
  const bool incremental = options_.engine == TimeEngine::kIncremental;
  while (!exhausted_) {
    if (extension_ < 0) {  // first instance
      extension_ = first_extension_at_ii();
      if (extension_ < 0) {
        exhausted_ = true;
        break;
      }
    } else if (extension_ < options_.max_horizon_extension) {
      ++extension_;
    } else {
      exhausted_ = true;
      break;
    }
    ++stats_.instances_built;
    if (incremental) {
      if (!session_) {
        session_ = std::make_unique<TimeSession>(
            dfg_, arch_, ii_, options_.constraints,
            critical_path_ + extension_);
        ++stats_.sessions_created;
      } else {
        ++stats_.horizon_extensions;
        session_->extend_horizon();
      }
      if (session_->ok()) {
        instance_ok_ = true;
        stats_.last_formulation = session_->stats();
        return true;
      }
      // The session's formula died without assumptions: every further
      // extension is a superset, so the whole II is exhausted.
      exhausted_ = true;
      break;
    }
    formulation_ = std::make_unique<TimeFormulation>(
        dfg_, arch_, ii_, critical_path_ + extension_, options_.constraints);
    if (formulation_->build()) {
      // Re-arm the space-conflict nogoods recorded at this II; a rebuild
      // must keep pruning exactly what the incremental session prunes.
      bool alive = true;
      for (const auto& nogood : ii_nogoods_) {
        if (!formulation_->add_label_nogood(nogood)) {
          alive = false;
          break;
        }
      }
      if (alive) {
        instance_ok_ = true;
        stats_.last_formulation = formulation_->stats();
        return true;
      }
    }
    // Unsatisfiable already at build time; try the next instance.
    instance_ok_ = false;
  }
  return false;
}

bool TimeSolver::add_space_nogood(const TimeSolution& solution,
                                  const std::vector<NodeId>& nodes) {
  if (solution.ii != ii_ || nodes.empty()) return false;
  std::vector<std::pair<NodeId, int>> placements;
  placements.reserve(nodes.size());
  for (const NodeId v : nodes) {
    placements.emplace_back(v, solution.label(v));
  }
  // A conflict already covered by a recorded one (directly or as a
  // rotation of it) adds nothing — every rotation of every recorded
  // conflict sits in seen_nogoods_.
  if (seen_nogoods_.count(placements) != 0) {
    ++stats_.nogoods_deduped;
    return true;
  }
  ++stats_.nogoods_added;
  if (static_cast<int>(nodes.size()) < dfg_.num_nodes()) {
    ++stats_.narrow_nogoods;
  }
  // Lift the conflict to all cyclic slot rotations: spatial feasibility
  // depends only on the slot partition (and, in the consecutive-only
  // model, on cyclic label distances — also rotation-invariant), so every
  // rotation of an unplaceable placement set is unplaceable too.
  for (int k = 0; k < ii_; ++k) {
    std::vector<std::pair<NodeId, int>> rotated;
    rotated.reserve(placements.size());
    for (const auto& [v, slot] : placements) {
      rotated.emplace_back(v, (slot + k) % ii_);
    }
    if (!seen_nogoods_.insert(rotated).second) continue;
    if (k > 0) ++stats_.nogoods_lifted;
    if (options_.engine == TimeEngine::kIncremental) {
      if (session_) session_->add_label_nogood(rotated);
    } else {
      if (formulation_ && instance_ok_ &&
          !formulation_->add_label_nogood(rotated)) {
        instance_ok_ = false;  // every schedule left here is pruned
      }
      ii_nogoods_.push_back(std::move(rotated));
    }
  }
  // A nogood whose placements all appear in the pending solution subsumes
  // the blocking clause next() would add for it.
  if (last_solution_.has_value() && last_solution_->ii == solution.ii) {
    bool covers = true;
    for (const NodeId v : nodes) {
      if (last_solution_->label(v) != solution.label(v)) {
        covers = false;
        break;
      }
    }
    if (covers) last_blocked_by_nogood_ = true;
  }
  return true;
}

std::optional<TimeSolution> TimeSolver::next(const Deadline& deadline) {
  const bool incremental = options_.engine == TimeEngine::kIncremental;
  // Block the previously yielded solution so the search moves on (unless a
  // space-conflict nogood already subsumes it).
  if (last_solution_.has_value() && instance_ok_) {
    if (!last_blocked_by_nogood_) {
      if (incremental) {
        if (session_) session_->block_labels(*last_solution_);
      } else if (formulation_ &&
                 !formulation_->block_labels(*last_solution_)) {
        instance_ok_ = false;  // no more label vectors at this instance
      }
    }
    // The caller rejected the previous schedule (a space failure):
    // re-seed the warm session's phases with a rotated preference so the
    // next model comes from a structurally different schedule family
    // instead of phase saving drifting to the nearest neighbour of the
    // blocked one. Measured on the 8x8 suite this keeps the achieved II
    // at parity with the reference engine on every instance (drift-only
    // retries lose an II level on cfd).
    if (incremental && session_) {
      session_->reseed_phases(++reseed_salt_);
    }
  }
  last_solution_.reset();
  last_blocked_by_nogood_ = false;

  for (;;) {
    if (deadline.expired()) {
      timed_out_ = true;
      return std::nullopt;
    }
    if (!instance_ok_) {
      if (!advance_instance()) {
        return std::nullopt;
      }
      continue;
    }
    ++stats_.sat_calls;
    SatStatus status;
    if (incremental) {
      ++stats_.assumptions_used;  // one horizon selector per call
      status = session_->solve(deadline);
      stats_.learnt_retained = session_->num_learnts();
      stats_.last_formulation = session_->stats();
    } else {
      status = formulation_->solve(deadline);
    }
    if (status == SatStatus::kSat) {
      TimeSolution solution =
          incremental ? session_->extract() : formulation_->extract();
      MONOMAP_DEBUG("time solution at II=" << ii_ << " horizon="
                                           << solution.horizon);
      last_solution_ = solution;
      ++stats_.solutions_yielded;
      return solution;
    }
    if (status == SatStatus::kUnknown) {
      timed_out_ = true;
      if (incremental ? (session_ && session_->last_solve_memory_out())
                      : (formulation_ &&
                         formulation_->last_solve_memory_out())) {
        memory_out_ = true;
      }
      return std::nullopt;
    }
    // UNSAT: exhaust this instance, move on. A session refutation that did
    // not rest on the horizon selector exhausts the whole II at once.
    instance_ok_ = false;
    if (incremental && session_ && session_->unsat_is_final()) {
      exhausted_ = true;
    }
  }
}

}  // namespace monomap
