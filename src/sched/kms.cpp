#include "sched/kms.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "support/table.hpp"

namespace monomap {

namespace {

/// Bipartite b-matching of DFG nodes to kernel slots, each slot seating up
/// to `capacity` nodes, grown one augmenting path at a time (Kuhn). A node
/// whose search fails stays unseated until its window widens.
class SlotMatching {
 public:
  SlotMatching(int ii, int capacity)
      : ii_(ii),
        capacity_(capacity),
        seated_(static_cast<std::size_t>(ii)),
        visited_(static_cast<std::size_t>(ii), 0) {}

  /// Seat `v` inside its window, displacing seated nodes along an
  /// augmenting path if needed. False when no such path exists.
  bool seat(NodeId v, const std::vector<ScheduleRange>& windows) {
    ++stamp_;
    return augment(v, windows);
  }

 private:
  bool augment(NodeId v, const std::vector<ScheduleRange>& windows) {
    const ScheduleRange& r = windows[static_cast<std::size_t>(v)];
    // A window of II or more steps reaches every slot once in its first II.
    const int last = std::min(r.alap, r.asap + ii_ - 1);
    for (int t = r.asap; t <= last; ++t) {
      const auto slot = static_cast<std::size_t>(t % ii_);
      if (visited_[slot] == stamp_) continue;
      visited_[slot] = stamp_;
      std::vector<NodeId>& seats = seated_[slot];
      if (static_cast<int>(seats.size()) < capacity_) {
        seats.push_back(v);
        return true;
      }
      for (NodeId& occupant : seats) {
        if (augment(occupant, windows)) {
          occupant = v;  // the occupant moved on; v takes its seat
          return true;
        }
      }
    }
    return false;
  }

  int ii_;
  int capacity_;
  std::vector<std::vector<NodeId>> seated_;  // per slot
  std::vector<int> visited_;                 // per slot, == stamp_ if seen
  int stamp_ = 0;
};

}  // namespace

Kms::Kms(const MobilitySchedule& mobs, int ii)
    : ii_(ii),
      interleave_((mobs.length() + ii - 1) / ii),
      ranges_(mobs.ranges()),
      rows_(static_cast<std::size_t>(ii)) {
  MONOMAP_ASSERT_MSG(ii >= 1, "KMS needs II >= 1");
  for (NodeId v = 0; v < static_cast<NodeId>(ranges_.size()); ++v) {
    const ScheduleRange& r = ranges_[static_cast<std::size_t>(v)];
    for (int t = r.asap; t <= r.alap; ++t) {
      rows_[static_cast<std::size_t>(t % ii_)].push_back(
          KmsEntry{v, t / ii_, t});
    }
  }
}

std::vector<int> Kms::candidate_times(NodeId v) const {
  MONOMAP_ASSERT(v >= 0 && v < static_cast<NodeId>(ranges_.size()));
  const ScheduleRange& r = ranges_[static_cast<std::size_t>(v)];
  std::vector<int> times;
  times.reserve(static_cast<std::size_t>(r.width()));
  for (int t = r.asap; t <= r.alap; ++t) {
    times.push_back(t);
  }
  return times;
}

int capacity_horizon_floor(const Dfg& dfg, int ii, int num_pes,
                           int max_extension) {
  MONOMAP_ASSERT(ii >= 1 && num_pes >= 1 && max_extension >= 0);
  const int n = dfg.num_nodes();
  const int cp = critical_path_length(dfg);
  if (n <= num_pes) return cp;  // no KMS row can overflow
  std::vector<ScheduleRange> windows = compute_asap_alap(dfg, cp);

  // No KMS row over capacity: any slot choice seats everyone.
  std::vector<int> row_size(static_cast<std::size_t>(ii), 0);
  for (const ScheduleRange& r : windows) {
    for (int t = r.asap; t <= std::min(r.alap, r.asap + ii - 1); ++t) {
      ++row_size[static_cast<std::size_t>(t % ii)];
    }
  }
  if (*std::max_element(row_size.begin(), row_size.end()) <= num_pes) {
    return cp;
  }

  SlotMatching matching(ii, num_pes);
  std::vector<NodeId> unseated(static_cast<std::size_t>(n));
  std::iota(unseated.begin(), unseated.end(), 0);
  for (int extension = 0;; ++extension) {
    // A node that finds no augmenting path now finds none later at this
    // horizon either, so one pass leaves a maximum matching.
    std::vector<NodeId> still_unseated;
    for (const NodeId v : unseated) {
      if (!matching.seat(v, windows)) still_unseated.push_back(v);
    }
    unseated.swap(still_unseated);
    if (unseated.empty()) return cp + extension;
    if (extension == max_extension) return -1;
    for (ScheduleRange& r : windows) ++r.alap;  // one more horizon step
  }
}

std::string Kms::to_table() const {
  AsciiTable table({"Time", "Nodes"}, {Align::kRight, Align::kLeft});
  for (int slot = 0; slot < ii_; ++slot) {
    std::ostringstream os;
    const auto& entries = rows_[static_cast<std::size_t>(slot)];
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (i != 0) os << ' ';
      os << entries[i].node << '_' << entries[i].fold;
    }
    table.add_row({std::to_string(slot), os.str()});
  }
  return table.to_string();
}

}  // namespace monomap
