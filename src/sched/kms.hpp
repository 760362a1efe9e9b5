// Kernel Mobility Schedule (KMS) — paper Sec. IV-B, Table II.
//
// The KMS folds the MobS by II: a node schedulable at absolute step T can
// occupy kernel slot T mod II with iteration subscript ("fold") T div II.
// It is the superset of all modulo schedules for a given II, and the domain
// over which the time formulation's decision variables range.
#ifndef MONOMAP_SCHED_KMS_HPP
#define MONOMAP_SCHED_KMS_HPP

#include <string>
#include <vector>

#include "sched/mobility.hpp"

namespace monomap {

/// One schedulable position of a node inside the kernel.
struct KmsEntry {
  NodeId node = kInvalidNode;
  int fold = 0;          // iteration subscript (number of foldings applied)
  int absolute_time = 0; // T in the MobS; slot = T % II, fold = T / II
};

class Kms {
 public:
  Kms(const MobilitySchedule& mobs, int ii);

  [[nodiscard]] int ii() const { return ii_; }

  /// Number of loop iterations interleaved in the kernel:
  /// ceil(MobS length / II) (paper: ceil(6/4) = 2 for the running example).
  [[nodiscard]] int interleaved_iterations() const { return interleave_; }

  /// All positions available in kernel slot `slot` (a row of Table II).
  [[nodiscard]] const std::vector<KmsEntry>& row(int slot) const {
    MONOMAP_ASSERT(slot >= 0 && slot < ii_);
    return rows_[static_cast<std::size_t>(slot)];
  }

  /// All candidate absolute times of node v (its MobS window).
  [[nodiscard]] std::vector<int> candidate_times(NodeId v) const;

  /// Render the paper's Table II: one row per kernel slot, entries as
  /// node_fold.
  [[nodiscard]] std::string to_table() const;

 private:
  int ii_;
  int interleave_;
  std::vector<ScheduleRange> ranges_;
  std::vector<std::vector<KmsEntry>> rows_;
};

/// Capacity floor of the KMS at `ii`: the smallest schedule horizon in
/// [cp, cp + max_extension] (cp = critical-path length) at which every
/// node can take a kernel slot from its window mod `ii` with at most
/// `num_pes` nodes per slot, or -1 when no horizon in that range admits
/// such a seating. This is Hall's condition for the bipartite b-matching
/// of nodes to slots, i.e. the time formulation's capacity constraint with
/// the dependency and connectivity families relaxed, so every horizon
/// below the floor is unsatisfiable for the full formulation too.
/// Windows only grow with the horizon, so feasibility is monotone: one
/// augmenting-path matching is extended in place as the windows widen.
/// Returns cp without matching when no KMS row at cp has more than
/// `num_pes` candidate nodes.
int capacity_horizon_floor(const Dfg& dfg, int ii, int num_pes,
                           int max_extension);

}  // namespace monomap

#endif  // MONOMAP_SCHED_KMS_HPP
