// Tests for ASAP/ALAP, MobS, KMS and mII — pinned against the paper's
// running example (Table I, Table II, Sec. IV-B mII computation).
#include <gtest/gtest.h>

#include "sched/asap_alap.hpp"
#include "sched/kms.hpp"
#include "sched/mii.hpp"
#include "sched/mobility.hpp"
#include "workloads/running_example.hpp"
#include "workloads/suite.hpp"

namespace monomap {
namespace {

// Expected windows reconstructed from the paper's Table I (they reproduce
// its ASAP/ALAP/MobS rows cell-for-cell).
struct Window {
  NodeId node;
  int asap;
  int alap;
};
constexpr Window kTable1[] = {
    {0, 0, 2}, {1, 0, 3}, {2, 0, 2},  {3, 0, 1},  {4, 0, 0},
    {5, 1, 1}, {6, 2, 2}, {7, 3, 4},  {8, 3, 3},  {9, 4, 4},
    {10, 5, 5}, {11, 1, 3}, {12, 2, 4}, {13, 3, 5},
};

TEST(AsapAlap, RunningExampleMatchesPaperTable1) {
  const Dfg dfg = running_example_dfg();
  EXPECT_EQ(critical_path_length(dfg), 6);  // the paper's MobS length
  const auto ranges = compute_asap_alap(dfg);
  for (const Window& w : kTable1) {
    EXPECT_EQ(ranges[static_cast<std::size_t>(w.node)].asap, w.asap)
        << "ASAP of node " << w.node;
    EXPECT_EQ(ranges[static_cast<std::size_t>(w.node)].alap, w.alap)
        << "ALAP of node " << w.node;
  }
}

TEST(AsapAlap, HorizonExtensionWidensWindows) {
  const Dfg dfg = running_example_dfg();
  const auto base = compute_asap_alap(dfg);
  const auto extended = compute_asap_alap(dfg, 8);
  for (NodeId v = 0; v < dfg.num_nodes(); ++v) {
    EXPECT_EQ(extended[static_cast<std::size_t>(v)].asap,
              base[static_cast<std::size_t>(v)].asap);
    EXPECT_EQ(extended[static_cast<std::size_t>(v)].alap,
              base[static_cast<std::size_t>(v)].alap + 2);
  }
}

TEST(AsapAlap, RejectsHorizonBelowCriticalPath) {
  const Dfg dfg = running_example_dfg();
  EXPECT_THROW(compute_asap_alap(dfg, 5), AssertionError);
}

TEST(Mobility, RowsMatchPaperTable1MobsColumn) {
  const Dfg dfg = running_example_dfg();
  const MobilitySchedule mobs(dfg);
  ASSERT_EQ(mobs.length(), 6);
  const std::vector<std::vector<NodeId>> expected = {
      {0, 1, 2, 3, 4},       {0, 1, 2, 3, 5, 11}, {0, 1, 2, 6, 11, 12},
      {1, 7, 8, 11, 12, 13}, {7, 9, 12, 13},      {10, 13},
  };
  for (int t = 0; t < 6; ++t) {
    EXPECT_EQ(mobs.nodes_at(t), expected[static_cast<std::size_t>(t)])
        << "MobS row " << t;
  }
  EXPECT_FALSE(mobs.to_table().empty());
}

TEST(Kms, RunningExampleFoldingAtIi4) {
  const Dfg dfg = running_example_dfg();
  const MobilitySchedule mobs(dfg);
  const Kms kms(mobs, 4);
  // ceil(6/4) = 2 interleaved iterations (paper Sec. IV-B).
  EXPECT_EQ(kms.interleaved_iterations(), 2);
  // Slot 0 holds T=0 entries (fold 0) and T=4 entries (fold 1).
  const auto& row0 = kms.row(0);
  std::vector<std::pair<NodeId, int>> got;
  for (const KmsEntry& e : row0) {
    got.emplace_back(e.node, e.fold);
    EXPECT_EQ(e.absolute_time % 4, 0);
    EXPECT_EQ(e.absolute_time / 4, e.fold);
  }
  const std::vector<std::pair<NodeId, int>> expected0 = {
      {0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0},  // T = 0
      {7, 1}, {9, 1}, {12, 1}, {13, 1},        // T = 4
  };
  // Order within a row is by node then fold of insertion; compare as sets.
  EXPECT_EQ(got.size(), expected0.size());
  for (const auto& e : expected0) {
    EXPECT_NE(std::find(got.begin(), got.end(), e), got.end())
        << "missing " << e.first << "_" << e.second;
  }
  EXPECT_FALSE(kms.to_table().empty());
}

TEST(Kms, CandidateTimesSpanTheWindow) {
  const Dfg dfg = running_example_dfg();
  const MobilitySchedule mobs(dfg);
  const Kms kms(mobs, 4);
  EXPECT_EQ(kms.candidate_times(4), std::vector<int>{0});
  EXPECT_EQ(kms.candidate_times(13), (std::vector<int>{3, 4, 5}));
}

TEST(CapacityFloor, FastPathReturnsCriticalPath) {
  // 14 nodes over 4 slots on a 4x4 fabric: no KMS row can overflow.
  const Dfg dfg = running_example_dfg();
  EXPECT_EQ(capacity_horizon_floor(dfg, 4, 16, 8), 6);
}

TEST(CapacityFloor, ChainNeedsOneExtraStepOnOnePe) {
  // 0->1->2->3 plus 0->4 at II 5 on one PE: at the critical-path horizon
  // (4) node 4's window [1, 3] holds only slots 1..3, already owned by the
  // fixed nodes 1..3. One more step opens slot 4 to every window.
  const Dfg dfg = Dfg::from_edges(
      "chain5", 5, {{0, 1, 0}, {1, 2, 0}, {2, 3, 0}, {0, 4, 0}});
  EXPECT_EQ(capacity_horizon_floor(dfg, 5, 1, 8), 5);
  EXPECT_EQ(capacity_horizon_floor(dfg, 5, 1, 0), -1);
  EXPECT_EQ(capacity_horizon_floor(dfg, 5, 2, 0), 4);
}

TEST(CapacityFloor, IndependentNodesFillSlotsOneStepAtATime) {
  // Six edge-free nodes share the window [0, h-1] at horizon h, so on one
  // PE at II 6 the first horizon that seats them all is 6 (cp = 1).
  const Dfg dfg = Dfg::from_edges("six", 6, {});
  EXPECT_EQ(capacity_horizon_floor(dfg, 6, 1, 5), 6);
  EXPECT_EQ(capacity_horizon_floor(dfg, 6, 1, 4), -1);
  EXPECT_EQ(capacity_horizon_floor(dfg, 6, 2, 8), 3);
  // Below ResII no horizon can help.
  EXPECT_EQ(capacity_horizon_floor(dfg, 3, 1, 8), -1);
  EXPECT_EQ(capacity_horizon_floor(dfg, 3, 1, 0), -1);
}

TEST(CapacityFloor, SuiteFloorsAreCriticalPathFromThreeByThree) {
  // The floor only moves on the smallest fabrics: from 3x3 up, every
  // suite DFG seats at its critical path for the first four IIs.
  for (const Benchmark& b : benchmark_suite()) {
    const int cp = critical_path_length(b.dfg);
    for (const int side : {3, 4, 5, 8, 10, 20}) {
      const CgraArch arch = CgraArch::square(side);
      const int mii = compute_mii(b.dfg, arch).mii();
      for (int ii = mii; ii <= mii + 3; ++ii) {
        EXPECT_EQ(capacity_horizon_floor(b.dfg, ii, arch.num_pes(), 8), cp)
            << b.name << " " << side << "x" << side << " II " << ii;
      }
    }
  }
}

TEST(Mii, RunningExampleOn2x2) {
  const Dfg dfg = running_example_dfg();
  const CgraArch arch = CgraArch::square(2);
  const MiiBreakdown mii = compute_mii(dfg, arch);
  EXPECT_EQ(mii.res_ii, 4);  // ceil(14/4)
  EXPECT_EQ(mii.rec_ii, 4);  // cycle 4->5->6->7, distance 1
  EXPECT_EQ(mii.mii(), 4);
}

TEST(Mii, ResIiScalesWithGrid) {
  const Dfg dfg = running_example_dfg();
  EXPECT_EQ(resource_mii(dfg, CgraArch::square(2)), 4);
  EXPECT_EQ(resource_mii(dfg, CgraArch::square(4)), 1);
  EXPECT_EQ(resource_mii(dfg, CgraArch(1, 2)), 7);
  EXPECT_EQ(resource_mii(dfg, CgraArch(1, 1)), 14);
}

TEST(Mii, AcyclicDfgHasRecurrenceOne) {
  const Dfg dfg = Dfg::from_edges("chain", 3, {{0, 1, 0}, {1, 2, 0}});
  EXPECT_EQ(recurrence_mii_of(dfg), 1);
}

TEST(Mii, SelfLoopDistanceTwoIsHalved) {
  // acc = f(acc from 2 iterations ago): cycle length 1, distance 2 -> II 1.
  const Dfg dfg = Dfg::from_edges("acc2", 1, {{0, 0, 2}});
  EXPECT_EQ(recurrence_mii_of(dfg), 1);
}

TEST(Mii, LongCycleShortDistance) {
  // 6-node cycle with total distance 2 -> RecII = ceil(6/2) = 3.
  const Dfg dfg = Dfg::from_edges(
      "c62", 6,
      {{0, 1, 0}, {1, 2, 0}, {2, 3, 1}, {3, 4, 0}, {4, 5, 0}, {5, 0, 1}});
  EXPECT_EQ(recurrence_mii_of(dfg), 3);
}

TEST(Mobility, SuiteWindowsAreConsistent) {
  for (const Benchmark& b : benchmark_suite()) {
    const MobilitySchedule mobs(b.dfg);
    for (NodeId v = 0; v < b.dfg.num_nodes(); ++v) {
      const ScheduleRange& r = mobs.range(v);
      EXPECT_LE(r.asap, r.alap) << b.name << " node " << v;
      EXPECT_GE(r.asap, 0) << b.name;
      EXPECT_LT(r.alap, mobs.length()) << b.name;
    }
    // Every distance-0 edge respects ASAP ordering.
    const Graph& g = b.dfg.graph();
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (g.edge(e).attr != 0) continue;
      EXPECT_LT(mobs.range(g.edge(e).src).asap, mobs.range(g.edge(e).dst).asap + 1)
          << b.name;
    }
  }
}

}  // namespace
}  // namespace monomap
