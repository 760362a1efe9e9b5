#include "mapper/coupled_mapper.hpp"

#include <algorithm>
#include <memory>
#include <optional>

#include "encode/cnf_builder.hpp"
#include "sched/asap_alap.hpp"
#include "sched/mobility.hpp"
#include "support/log.hpp"
#include "support/stopwatch.hpp"
#include "timing/time_solver.hpp"

namespace monomap {

namespace {

/// One joint formulation instance at a fixed (II, horizon).
class JointFormulation {
 public:
  JointFormulation(const Dfg& dfg, const CgraArch& arch, int ii, int horizon)
      : dfg_(dfg), arch_(arch), ii_(ii), mobs_(dfg, horizon), cnf_(solver_) {}

  /// Returns false if trivially unsatisfiable or the deadline expired during
  /// construction (sets timed_out).
  bool build(const Deadline& deadline) {
    const int n = dfg_.num_nodes();
    const int pes = arch_.num_pes();
    z_base_.resize(static_cast<std::size_t>(n));

    // Position variables + exactly-one per node.
    for (NodeId v = 0; v < n; ++v) {
      const ScheduleRange& r = mobs_.range(v);
      z_base_[static_cast<std::size_t>(v)] = solver_.num_vars();
      std::vector<Lit> all;
      all.reserve(static_cast<std::size_t>(r.width() * pes));
      for (int t = r.asap; t <= r.alap; ++t) {
        for (PeId p = 0; p < pes; ++p) {
          all.push_back(Lit::pos(solver_.new_var()));
        }
      }
      if (!cnf_.exactly_one(all)) return false;
      if (deadline.expired()) {
        timed_out_ = true;
        return false;
      }
    }

    // Exclusivity: at most one node per (PE, slot) — one PE executes one
    // operation per kernel cycle.
    {
      std::vector<std::vector<Lit>> bins(
          static_cast<std::size_t>(pes) * static_cast<std::size_t>(ii_));
      for (NodeId v = 0; v < n; ++v) {
        const ScheduleRange& r = mobs_.range(v);
        for (int t = r.asap; t <= r.alap; ++t) {
          for (PeId p = 0; p < pes; ++p) {
            bins[static_cast<std::size_t>(t % ii_) *
                     static_cast<std::size_t>(pes) +
                 static_cast<std::size_t>(p)]
                .push_back(z_lit(v, t, p));
          }
        }
      }
      for (const auto& bin : bins) {
        if (!cnf_.at_most_one(bin)) return false;
      }
      if (deadline.expired()) {
        timed_out_ = true;
        return false;
      }
    }

    // Dependencies: placing the source implies a compatible destination
    // placement (timing + neighbourhood), per edge and source position.
    const Graph& g = dfg_.graph();
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const Edge& edge = g.edge(e);
      if (edge.src == edge.dst) {
        MONOMAP_ASSERT_MSG(edge.attr >= 1,
                           "zero-distance self-dependency is unschedulable");
        continue;
      }
      const ScheduleRange& rs = mobs_.range(edge.src);
      const ScheduleRange& rd = mobs_.range(edge.dst);
      for (int ts = rs.asap; ts <= rs.alap; ++ts) {
        // Destination times satisfying T_d + dist*II >= T_s + 1.
        std::vector<int> valid_td;
        for (int td = rd.asap; td <= rd.alap; ++td) {
          if (td + edge.attr * ii_ >= ts + 1) valid_td.push_back(td);
        }
        for (PeId ps = 0; ps < arch_.num_pes(); ++ps) {
          std::vector<Lit> targets;
          for (const int td : valid_td) {
            for (const PeId pd : arch_.closed_neighbors(ps)) {
              if (pd == ps && td % ii_ == ts % ii_) {
                continue;  // same MRRG vertex cannot hold both endpoints
              }
              targets.push_back(z_lit(edge.dst, td, pd));
            }
          }
          if (!cnf_.implies_clause(z_lit(edge.src, ts, ps),
                                   std::move(targets))) {
            return false;
          }
        }
        if (deadline.expired()) {
          timed_out_ = true;
          return false;
        }
      }
    }
    return true;
  }

  SatStatus solve(const Deadline& deadline) { return solver_.solve(deadline); }

  [[nodiscard]] Mapping extract() const {
    const int n = dfg_.num_nodes();
    std::vector<int> time(static_cast<std::size_t>(n), -1);
    std::vector<PeId> pe(static_cast<std::size_t>(n), -1);
    for (NodeId v = 0; v < n; ++v) {
      const ScheduleRange& r = mobs_.range(v);
      for (int t = r.asap; t <= r.alap && time[static_cast<std::size_t>(v)] < 0;
           ++t) {
        for (PeId p = 0; p < arch_.num_pes(); ++p) {
          if (solver_.model_value(z_lit(v, t, p))) {
            time[static_cast<std::size_t>(v)] = t;
            pe[static_cast<std::size_t>(v)] = p;
            break;
          }
        }
      }
      MONOMAP_ASSERT(time[static_cast<std::size_t>(v)] >= 0);
    }
    return Mapping(ii_, std::move(time), std::move(pe));
  }

  [[nodiscard]] bool timed_out() const { return timed_out_; }
  [[nodiscard]] int num_vars() const { return solver_.num_vars(); }
  [[nodiscard]] int num_clauses() const { return solver_.num_clauses(); }

 private:
  [[nodiscard]] Lit z_lit(NodeId v, int t, PeId p) const {
    const ScheduleRange& r = mobs_.range(v);
    MONOMAP_ASSERT(r.contains(t));
    return Lit::pos(z_base_[static_cast<std::size_t>(v)] +
                    (t - r.asap) * arch_.num_pes() + p);
  }

  const Dfg& dfg_;
  const CgraArch& arch_;
  int ii_;
  MobilitySchedule mobs_;
  SatSolver solver_;
  CnfBuilder cnf_;
  std::vector<SatVar> z_base_;
  bool timed_out_ = false;
};

}  // namespace

CoupledMapResult CoupledSatMapper::map(const Dfg& dfg,
                                       const CgraArch& arch) const {
  CoupledMapResult result;
  Stopwatch watch;
  const Deadline deadline = options_.timeout_s > 0
                                ? Deadline(options_.timeout_s)
                                : Deadline::unlimited();
  result.mii = compute_mii(dfg, arch);
  // The decoupled mapper's automatic II ceiling and horizon extension, so
  // Table III compares both mappers over the same (II, horizon) range.
  const int max_ii = std::max(result.mii.mii(), std::max(1, dfg.num_nodes()));
  const int max_extension = TimeSolverOptions{}.max_horizon_extension;
  const int cp = critical_path_length(dfg);

  for (int ii = result.mii.mii(); ii <= max_ii; ++ii) {
    for (int ext = 0; ext <= max_extension; ++ext) {
      if (deadline.expired()) {
        result.timed_out = true;
        result.failure_reason = "joint search hit the deadline";
        result.total_s = watch.elapsed_s();
        return result;
      }
      JointFormulation joint(dfg, arch, ii, cp + ext);
      const bool built = joint.build(deadline);
      result.num_vars = joint.num_vars();
      result.num_clauses = joint.num_clauses();
      if (!built) {
        if (joint.timed_out()) {
          result.timed_out = true;
          result.failure_reason = "formula construction hit the deadline";
          result.total_s = watch.elapsed_s();
          return result;
        }
        continue;  // trivially UNSAT at this (ii, ext)
      }
      const SatStatus status = joint.solve(deadline);
      if (status == SatStatus::kSat) {
        result.success = true;
        result.ii = ii;
        result.mapping = joint.extract();
        const auto violations = validate_mapping(dfg, arch, result.mapping);
        MONOMAP_ASSERT_MSG(violations.empty(),
                           "coupled mapper produced invalid mapping: "
                               << violations.front().what);
        result.total_s = watch.elapsed_s();
        return result;
      }
      if (status == SatStatus::kUnknown) {
        result.timed_out = true;
        result.failure_reason = "joint SAT search hit the deadline";
        result.total_s = watch.elapsed_s();
        return result;
      }
      MONOMAP_DEBUG("coupled: UNSAT at II=" << ii << " ext=" << ext);
    }
  }
  result.failure_reason = "joint search exhausted up to max II";
  result.total_s = watch.elapsed_s();
  return result;
}

}  // namespace monomap
