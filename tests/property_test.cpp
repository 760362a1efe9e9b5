// Property tests cross-validating the search components against brute
// force on small instances, and end-to-end invariants on random inputs.
#include <functional>
#include <gtest/gtest.h>

#include "mapper/coupled_mapper.hpp"
#include "mapper/decoupled_mapper.hpp"
#include "sched/kms.hpp"
#include "space/monomorphism.hpp"
#include "support/rng.hpp"
#include "workloads/synthetic.hpp"

namespace monomap {
namespace {

/// Exhaustive check: does ANY injective, label-preserving, adjacency-
/// respecting placement of `dfg` into (arch, ii) exist?
bool brute_force_monomorphism(const Dfg& dfg, const CgraArch& arch,
                              const std::vector<int>& labels, int ii) {
  const int n = dfg.num_nodes();
  std::vector<PeId> pe(static_cast<std::size_t>(n), -1);
  std::vector<std::vector<bool>> used(
      static_cast<std::size_t>(arch.num_pes()),
      std::vector<bool>(static_cast<std::size_t>(ii), false));
  std::function<bool(NodeId)> place = [&](NodeId v) -> bool {
    if (v == n) return true;
    for (PeId p = 0; p < arch.num_pes(); ++p) {
      if (used[static_cast<std::size_t>(p)]
              [static_cast<std::size_t>(labels[static_cast<std::size_t>(v)])]) {
        continue;
      }
      bool ok = true;
      for (const NodeId u : dfg.graph().undirected_neighbors(v)) {
        if (u >= v || pe[static_cast<std::size_t>(u)] < 0) continue;
        const PeId q = pe[static_cast<std::size_t>(u)];
        if (!arch.adjacent_or_same(p, q)) {
          ok = false;
          break;
        }
        if (p == q && labels[static_cast<std::size_t>(u)] ==
                          labels[static_cast<std::size_t>(v)]) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      pe[static_cast<std::size_t>(v)] = p;
      used[static_cast<std::size_t>(p)]
          [static_cast<std::size_t>(labels[static_cast<std::size_t>(v)])] = true;
      if (place(v + 1)) return true;
      pe[static_cast<std::size_t>(v)] = -1;
      used[static_cast<std::size_t>(p)]
          [static_cast<std::size_t>(labels[static_cast<std::size_t>(v)])] =
              false;
    }
    return false;
  };
  return place(0);
}

class MonoVsBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(MonoVsBruteForce, AgreesOnRandomSmallInstances) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
  // Random small DFG + random labels (capacity-respecting by construction).
  const int n = 4 + static_cast<int>(rng.next_below(3));  // 4..6 nodes
  SyntheticSpec spec;
  spec.num_nodes = n;
  spec.seed = rng.next_u64();
  spec.num_recurrences = 1 + static_cast<int>(rng.next_below(2));
  const Dfg dfg = random_dfg(spec);
  const CgraArch arch = rng.next_bool(0.5) ? CgraArch::square(2)
                                           : CgraArch(1, 3);
  const int ii = 2 + static_cast<int>(rng.next_below(2));  // 2..3
  std::vector<int> labels;
  std::vector<int> layer_load(static_cast<std::size_t>(ii), 0);
  for (NodeId v = 0; v < n; ++v) {
    int l;
    do {
      l = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(ii)));
    } while (layer_load[static_cast<std::size_t>(l)] >= arch.num_pes());
    ++layer_load[static_cast<std::size_t>(l)];
    labels.push_back(l);
  }
  const bool expected = brute_force_monomorphism(dfg, arch, labels, ii);
  // Exercise every ordering heuristic against the oracle.
  for (const SpaceOrder order :
       {SpaceOrder::kDynamicMrv, SpaceOrder::kConnectivity,
        SpaceOrder::kDegree, SpaceOrder::kBfs}) {
    SpaceOptions opt;
    opt.order = order;
    opt.max_backtracks = 0;  // complete search
    const SpaceResult r = find_monomorphism(dfg, arch, labels, ii, opt);
    EXPECT_EQ(r.found, expected)
        << "order " << to_string(order) << " seed " << GetParam();
    if (r.found) {
      // Verify the embedding really is a monomorphism.
      for (EdgeId e = 0; e < dfg.graph().num_edges(); ++e) {
        const Edge& edge = dfg.graph().edge(e);
        if (edge.src == edge.dst) continue;
        EXPECT_TRUE(arch.adjacent_or_same(
            r.pe[static_cast<std::size_t>(edge.src)],
            r.pe[static_cast<std::size_t>(edge.dst)]));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonoVsBruteForce, ::testing::Range(0, 30));

class RandomPipeline : public ::testing::TestWithParam<int> {};

TEST_P(RandomPipeline, BothExactMappersValidateAndAgreeOnFeasibility) {
  SyntheticSpec spec;
  spec.num_nodes = 10 + GetParam() % 8;
  spec.seed = static_cast<std::uint64_t>(GetParam()) * 101 + 3;
  spec.num_recurrences = 2;
  const Dfg dfg = random_dfg(spec);
  const CgraArch arch = CgraArch::square(3);
  DecoupledMapperOptions dopt;
  dopt.timeout_s = 30.0;
  const MapResult dec = DecoupledMapper(dopt).map(dfg, arch);
  CoupledMapperOptions copt;
  copt.timeout_s = 30.0;
  const CoupledMapResult cop = CoupledSatMapper(copt).map(dfg, arch);
  ASSERT_TRUE(dec.success) << dec.failure_reason;
  ASSERT_TRUE(cop.success) << cop.failure_reason;
  EXPECT_TRUE(mapping_is_valid(dfg, arch, dec.mapping));
  EXPECT_TRUE(mapping_is_valid(dfg, arch, cop.mapping));
  // Joint search is at least as strong on II; decoupling may cost a little.
  EXPECT_GE(dec.ii, cop.ii);
  EXPECT_GE(cop.ii, cop.mii.mii());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPipeline, ::testing::Range(0, 12));

class CapacityFloorVsSat : public ::testing::TestWithParam<int> {};

TEST_P(CapacityFloorVsSat, EveryHorizonBelowTheFloorIsUnsat) {
  // The floor is a relaxation of the time formulation, so the full CNF
  // must be UNSAT below it (soundness). With dependencies and
  // connectivity switched off the CNF is exactly the relaxation, so it
  // must also turn SAT at the floor itself (the floor is tight).
  SyntheticSpec spec;
  spec.num_nodes = 5 + GetParam() % 6;
  spec.seed = static_cast<std::uint64_t>(GetParam()) * 7919 + 11;
  const Dfg dfg = random_dfg(spec);
  const int cp = critical_path_length(dfg);
  constexpr int kMaxExtension = 4;
  TimeConstraintOptions capacity_only;
  capacity_only.dependencies = false;
  capacity_only.connectivity = false;
  for (const CgraArch& arch :
       {CgraArch(1, 2), CgraArch(1, 3), CgraArch::square(2)}) {
    const int mii = compute_mii(dfg, arch).mii();
    for (int ii = mii; ii <= mii + 2; ++ii) {
      const int floor =
          capacity_horizon_floor(dfg, ii, arch.num_pes(), kMaxExtension);
      ASSERT_TRUE(floor == -1 || (floor >= cp && floor <= cp + kMaxExtension))
          << floor;
      for (int horizon = cp; horizon <= cp + kMaxExtension; ++horizon) {
        const std::string where = arch.description() + " II " +
                                  std::to_string(ii) + " horizon " +
                                  std::to_string(horizon) + " floor " +
                                  std::to_string(floor);
        const bool below = floor == -1 || horizon < floor;
        if (below) {
          TimeFormulation full(dfg, arch, ii, horizon);
          if (full.build()) {
            EXPECT_EQ(full.solve(Deadline(60.0)), SatStatus::kUnsat) << where;
          }
        }
        TimeFormulation relaxed(dfg, arch, ii, horizon, capacity_only);
        const SatStatus status = relaxed.build()
                                     ? relaxed.solve(Deadline(60.0))
                                     : SatStatus::kUnsat;
        EXPECT_EQ(status, below ? SatStatus::kUnsat : SatStatus::kSat)
            << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CapacityFloorVsSat, ::testing::Range(0, 24));

}  // namespace
}  // namespace monomap
