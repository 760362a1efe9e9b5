#include "mapper/annealing_mapper.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "sched/asap_alap.hpp"
#include "sched/mobility.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace monomap {

namespace {

/// Random restarts per II before escalating.
constexpr int kRestartsPerIi = 3;
/// Moves per temperature step = this factor times the node count.
constexpr int kMovesPerNode = 64;
constexpr double kInitialTemperature = 3.0;
constexpr double kCooling = 0.92;
/// Temperature floor: below it the search is greedy; a restart follows.
constexpr double kMinTemperature = 0.02;
constexpr std::uint64_t kSeed = 0xC6A4A793;

/// Annealing state for one (DFG, arch, II) instance.
class Annealer {
 public:
  Annealer(const Dfg& dfg, const CgraArch& arch, int ii,
           const MobilitySchedule& mobs, Rng& rng)
      : dfg_(dfg),
        arch_(arch),
        ii_(ii),
        mobs_(mobs),
        rng_(rng),
        time_(static_cast<std::size_t>(dfg.num_nodes())),
        pe_(static_cast<std::size_t>(dfg.num_nodes())),
        occupancy_(static_cast<std::size_t>(arch.num_pes()) *
                       static_cast<std::size_t>(ii),
                   0) {}

  /// One annealing run from a fresh random state. Returns true on cost 0.
  bool run(const Deadline& deadline, std::uint64_t& moves) {
    randomize();
    double temperature = kInitialTemperature;
    const int moves_per_step = std::max(16, kMovesPerNode * dfg_.num_nodes());
    while (temperature > kMinTemperature) {
      for (int m = 0; m < moves_per_step; ++m) {
        ++moves;
        if (cost_ == 0) return true;
        propose(temperature);
        if ((moves & 0x3FF) == 0 && deadline.expired()) return cost_ == 0;
      }
      temperature *= kCooling;
    }
    return cost_ == 0;
  }

  [[nodiscard]] Mapping mapping() const { return Mapping(ii_, time_, pe_); }

 private:
  // --- cost model ---------------------------------------------------------

  [[nodiscard]] int edge_cost(EdgeId e) const {
    const Edge& edge = dfg_.graph().edge(e);
    int cost = 0;
    const int slack = time_[static_cast<std::size_t>(edge.dst)] +
                      edge.attr * ii_ -
                      time_[static_cast<std::size_t>(edge.src)] - 1;
    if (slack < 0) {
      cost += -slack;  // timing violation magnitude
    }
    if (edge.src != edge.dst &&
        !arch_.adjacent_or_same(pe_[static_cast<std::size_t>(edge.src)],
                                pe_[static_cast<std::size_t>(edge.dst)])) {
      cost += 4;  // spatial violation: needs several moves to fix
    }
    return cost;
  }

  [[nodiscard]] int node_edge_cost(NodeId v) const {
    int cost = 0;
    for (const EdgeId e : dfg_.graph().out_edges(v)) cost += edge_cost(e);
    for (const EdgeId e : dfg_.graph().in_edges(v)) {
      if (dfg_.graph().edge(e).src != v) cost += edge_cost(e);
    }
    return cost;
  }

  [[nodiscard]] std::size_t cell(PeId p, int t) const {
    return static_cast<std::size_t>(t % ii_) *
               static_cast<std::size_t>(arch_.num_pes()) +
           static_cast<std::size_t>(p);
  }

  /// Collision cost of a cell with `n` occupants: (n - 1) * 6 when n > 1.
  [[nodiscard]] int collision_cost(int occupants) const {
    return occupants > 1 ? (occupants - 1) * 6 : 0;
  }

  void recompute_cost() {
    cost_ = 0;
    for (EdgeId e = 0; e < dfg_.graph().num_edges(); ++e) {
      cost_ += edge_cost(e);
    }
    for (const int n : occupancy_) {
      cost_ += collision_cost(n);
    }
  }

  // --- moves ---------------------------------------------------------------

  void randomize() {
    std::fill(occupancy_.begin(), occupancy_.end(), 0);
    for (NodeId v = 0; v < dfg_.num_nodes(); ++v) {
      const ScheduleRange& r = mobs_.range(v);
      time_[static_cast<std::size_t>(v)] =
          r.asap + static_cast<int>(rng_.next_below(
                       static_cast<std::uint64_t>(r.width())));
      pe_[static_cast<std::size_t>(v)] = static_cast<PeId>(
          rng_.next_below(static_cast<std::uint64_t>(arch_.num_pes())));
      ++occupancy_[cell(pe_[static_cast<std::size_t>(v)],
                        time_[static_cast<std::size_t>(v)])];
    }
    recompute_cost();
  }

  void propose(double temperature) {
    const auto v = static_cast<NodeId>(
        rng_.next_below(static_cast<std::uint64_t>(dfg_.num_nodes())));
    const ScheduleRange& r = mobs_.range(v);
    const int old_time = time_[static_cast<std::size_t>(v)];
    const PeId old_pe = pe_[static_cast<std::size_t>(v)];
    const int new_time =
        r.asap + static_cast<int>(rng_.next_below(
                     static_cast<std::uint64_t>(r.width())));
    // Half of the moves stay local (neighbouring PE), half teleport.
    PeId new_pe;
    if (rng_.next_bool(0.5)) {
      const auto& closed = arch_.closed_neighbors(old_pe);
      new_pe = closed[rng_.next_below(closed.size())];
    } else {
      new_pe = static_cast<PeId>(
          rng_.next_below(static_cast<std::uint64_t>(arch_.num_pes())));
    }
    if (new_time == old_time && new_pe == old_pe) return;

    const int before = node_edge_cost(v) +
                       collision_cost(occupancy_[cell(old_pe, old_time)]) +
                       collision_cost(occupancy_[cell(new_pe, new_time)]);
    --occupancy_[cell(old_pe, old_time)];
    time_[static_cast<std::size_t>(v)] = new_time;
    pe_[static_cast<std::size_t>(v)] = new_pe;
    ++occupancy_[cell(new_pe, new_time)];
    const int after = node_edge_cost(v) +
                      collision_cost(occupancy_[cell(old_pe, old_time)]) +
                      collision_cost(occupancy_[cell(new_pe, new_time)]);
    const int delta = after - before;
    if (delta <= 0 ||
        rng_.next_double() < std::exp(-static_cast<double>(delta) / temperature)) {
      cost_ += delta;
      return;
    }
    // Reject: undo.
    --occupancy_[cell(new_pe, new_time)];
    time_[static_cast<std::size_t>(v)] = old_time;
    pe_[static_cast<std::size_t>(v)] = old_pe;
    ++occupancy_[cell(old_pe, old_time)];
  }

  const Dfg& dfg_;
  const CgraArch& arch_;
  int ii_;
  const MobilitySchedule& mobs_;
  Rng& rng_;
  std::vector<int> time_;
  std::vector<PeId> pe_;
  std::vector<int> occupancy_;
  int cost_ = 0;
};

}  // namespace

AnnealResult AnnealingMapper::map(const Dfg& dfg, const CgraArch& arch) const {
  AnnealResult result;
  Stopwatch watch;
  const Deadline deadline = options_.timeout_s > 0
                                ? Deadline(options_.timeout_s)
                                : Deadline::unlimited();
  result.mii = compute_mii(dfg, arch);
  // The exact mappers' automatic ceiling: at II = #nodes a fully sequential
  // schedule always fits.
  const int max_ii = std::max(result.mii.mii(), std::max(1, dfg.num_nodes()));
  Rng rng(kSeed);

  for (int ii = result.mii.mii(); ii <= max_ii; ++ii) {
    // Generous horizon: II extra steps of slack help the anneal spread load.
    const int horizon = critical_path_length(dfg) + ii;
    const MobilitySchedule mobs(dfg, horizon);
    for (int restart = 0; restart < kRestartsPerIi; ++restart) {
      if (deadline.expired()) {
        result.timed_out = true;
        result.failure_reason = "annealing hit the deadline";
        result.total_s = watch.elapsed_s();
        return result;
      }
      ++result.restarts;
      Annealer annealer(dfg, arch, ii, mobs, rng);
      if (annealer.run(deadline, result.moves)) {
        result.success = true;
        result.ii = ii;
        result.mapping = annealer.mapping();
        const auto violations = validate_mapping(dfg, arch, result.mapping);
        MONOMAP_ASSERT_MSG(violations.empty(),
                           "annealer returned invalid mapping: "
                               << violations.front().what);
        result.total_s = watch.elapsed_s();
        return result;
      }
    }
    MONOMAP_DEBUG("annealing failed at II=" << ii << "; escalating");
  }
  result.failure_reason = "annealing exhausted II range";
  result.total_s = watch.elapsed_s();
  return result;
}

}  // namespace monomap
