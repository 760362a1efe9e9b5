// Tests for the monomorphism space search (paper Sec. IV-C).
#include <gtest/gtest.h>

#include "first_schedule.hpp"
#include "space/monomorphism.hpp"
#include "timing/time_solver.hpp"
#include "workloads/running_example.hpp"
#include "workloads/suite.hpp"

namespace monomap {
namespace {

/// Check the returned placement is a genuine monomorphism.
void expect_monomorphism(const Dfg& dfg, const CgraArch& arch,
                         const std::vector<int>& labels,
                         const SpaceResult& result) {
  ASSERT_TRUE(result.found) << result.failure_reason;
  ASSERT_EQ(result.pe.size(), static_cast<std::size_t>(dfg.num_nodes()));
  // mono1: injective on (PE, slot).
  std::set<std::pair<PeId, int>> used;
  for (NodeId v = 0; v < dfg.num_nodes(); ++v) {
    EXPECT_TRUE(arch.has_pe(result.pe[static_cast<std::size_t>(v)]));
    EXPECT_TRUE(used.emplace(result.pe[static_cast<std::size_t>(v)],
                             labels[static_cast<std::size_t>(v)])
                    .second)
        << "vertex collision for node " << v;
  }
  // mono3: edges land on adjacent-or-same PEs.
  const Graph& g = dfg.graph();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    if (edge.src == edge.dst) continue;
    EXPECT_TRUE(arch.adjacent_or_same(
        result.pe[static_cast<std::size_t>(edge.src)],
        result.pe[static_cast<std::size_t>(edge.dst)]))
        << "edge " << edge.src << "->" << edge.dst;
  }
}

std::vector<int> labels_of(const TimeSolution& sol, const Dfg& dfg) {
  std::vector<int> labels;
  for (NodeId v = 0; v < dfg.num_nodes(); ++v) {
    labels.push_back(sol.label(v));
  }
  return labels;
}

TEST(Monomorphism, RunningExamplePlacesOn2x2) {
  const Dfg dfg = running_example_dfg();
  const CgraArch arch = CgraArch::square(2);
  const auto sol =
      first_schedule(dfg, arch, Deadline::unlimited()).solution;
  ASSERT_TRUE(sol.has_value());
  const auto labels = labels_of(*sol, dfg);
  const SpaceResult result = find_monomorphism(dfg, arch, labels, sol->ii);
  expect_monomorphism(dfg, arch, labels, result);
}

TEST(Monomorphism, TrivialSingleNode) {
  const Dfg dfg = Dfg::from_edges("one", 1, {});
  const CgraArch arch = CgraArch::square(3);
  const SpaceResult r = find_monomorphism(dfg, arch, {0}, 1);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.backtracks, 0u);
}

TEST(Monomorphism, RejectsOverCapacityLabelLayer) {
  // 5 nodes all labelled 0 on a 2x2 grid: impossible.
  const Dfg dfg = Dfg::from_edges("five", 5, {});
  const CgraArch arch = CgraArch::square(2);
  const SpaceResult r = find_monomorphism(dfg, arch, {0, 0, 0, 0, 0}, 2);
  EXPECT_FALSE(r.found);
  EXPECT_NE(r.failure_reason.find("capacity"), std::string::npos);
}

TEST(Monomorphism, SameLabelCliqueNeedsMutualAdjacency) {
  // Triangle, all same label: needs 3 pairwise-adjacent distinct PEs; a
  // 2x2 mesh has no triangle -> fail; a diagonal (king) mesh does -> found.
  const Dfg dfg = Dfg::from_edges(
      "tri", 3, {{0, 1, 1}, {1, 2, 1}, {2, 0, 1}});
  const std::vector<int> labels{0, 0, 0};
  const SpaceResult on_mesh =
      find_monomorphism(dfg, CgraArch::square(2), labels, 2);
  EXPECT_FALSE(on_mesh.found);
  const SpaceResult on_king = find_monomorphism(
      dfg, CgraArch(2, 2, Topology::kDiagonal), labels, 2);
  EXPECT_TRUE(on_king.found);
}

TEST(Monomorphism, SamePeAcrossSlotsIsAllowed) {
  // Chain a->b->c with labels 0,1,2: can fold onto very few PEs because a
  // PE may hold different nodes at different slots.
  const Dfg dfg = Dfg::from_edges("chain", 3, {{0, 1, 0}, {1, 2, 0}});
  const CgraArch arch(1, 1);  // single PE!
  const SpaceResult r = find_monomorphism(dfg, arch, {0, 1, 2}, 3);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.pe[0], 0);
  EXPECT_EQ(r.pe[1], 0);
  EXPECT_EQ(r.pe[2], 0);
}

TEST(Monomorphism, ConsecutiveOnlyModelRejectsLongSpans) {
  // Edge between labels 0 and 2 with II=4: fine under register persistence,
  // rejected under the consecutive-only MRRG.
  const Dfg dfg = Dfg::from_edges("pair", 2, {{0, 1, 0}});
  const CgraArch arch = CgraArch::square(2);
  SpaceOptions persist;
  const SpaceResult ok = find_monomorphism(dfg, arch, {0, 2}, 4, persist);
  EXPECT_TRUE(ok.found);
  SpaceOptions consec;
  consec.model = MrrgModel::kConsecutiveOnly;
  const SpaceResult bad = find_monomorphism(dfg, arch, {0, 2}, 4, consec);
  EXPECT_FALSE(bad.found);
  EXPECT_NE(bad.failure_reason.find("non-consecutive"), std::string::npos);
}

TEST(Monomorphism, OrderHeuristicsAllSucceedOnSuiteSchedules) {
  const Benchmark& b = benchmark_by_name("gsm");
  const CgraArch arch = CgraArch::square(4);
  TimeSolver time_solver(b.dfg, arch, compute_mii(b.dfg, arch).mii());
  // Not every yielded schedule is spatially feasible (which exact label
  // vector comes first depends on the time engine's model order); walk to
  // the first placeable one — the complete default search decides that
  // order-independently — then require every static order to place it too.
  std::optional<TimeSolution> sol;
  std::vector<int> labels;
  for (int round = 0; round < 8; ++round) {
    sol = time_solver.next(Deadline::unlimited());
    ASSERT_TRUE(sol.has_value());
    labels = labels_of(*sol, b.dfg);
    SpaceOptions complete;
    complete.max_backtracks = 0;
    if (find_monomorphism(b.dfg, arch, labels, sol->ii, complete).found) {
      break;
    }
    sol.reset();
  }
  ASSERT_TRUE(sol.has_value()) << "no placeable gsm schedule in 8 rounds";
  for (const SpaceOrder order :
       {SpaceOrder::kConnectivity, SpaceOrder::kDegree, SpaceOrder::kBfs}) {
    SpaceOptions opt;
    opt.order = order;
    opt.max_backtracks = 0;  // completeness, not budget luck
    const SpaceResult r = find_monomorphism(b.dfg, arch, labels, sol->ii, opt);
    expect_monomorphism(b.dfg, arch, labels, r);
  }
}

TEST(Monomorphism, SymmetryBreakingPreservesCompleteness) {
  const Dfg dfg = running_example_dfg();
  const CgraArch arch = CgraArch::square(2);
  const auto sol =
      first_schedule(dfg, arch, Deadline::unlimited()).solution;
  ASSERT_TRUE(sol.has_value());
  const auto labels = labels_of(*sol, dfg);
  SpaceOptions with;
  with.symmetry_breaking = true;
  SpaceOptions without;
  without.symmetry_breaking = false;
  EXPECT_EQ(find_monomorphism(dfg, arch, labels, sol->ii, with).found,
            find_monomorphism(dfg, arch, labels, sol->ii, without).found);

  // The suite's first schedules on the small grids never pin by
  // translation: every DFG's first node has an eccentricity too large for
  // the fabric (the default budget is enough, the pin is decided first).
  for (const int side : {2, 4, 5}) {
    const CgraArch small = CgraArch::square(side);
    for (const Benchmark& b : benchmark_suite()) {
      const auto first =
          first_schedule(b.dfg, small, Deadline(30.0)).solution;
      ASSERT_TRUE(first.has_value()) << b.name << " " << side;
      const SpaceResult r = find_monomorphism(
          b.dfg, small, labels_of(*first, b.dfg), first->ii, with);
      EXPECT_FALSE(r.root_pinned) << b.name << " " << side;
    }
  }
  // On the large grids the translation pin fires for most of the suite.
  // Complete searches with it, without any symmetry breaking, and with the
  // unpinned reference engine must agree on every first schedule.
  with.max_backtracks = 0;
  without.max_backtracks = 0;
  SpaceOptions reference = with;
  reference.engine = SpaceEngine::kReference;
  int pinned = 0;
  for (const int side : {10, 16, 20}) {
    const CgraArch large = CgraArch::square(side);
    for (const Benchmark& b : benchmark_suite()) {
      const auto first =
          first_schedule(b.dfg, large, Deadline(30.0)).solution;
      ASSERT_TRUE(first.has_value()) << b.name << " " << side;
      const auto first_labels = labels_of(*first, b.dfg);
      const SpaceResult r =
          find_monomorphism(b.dfg, large, first_labels, first->ii, with);
      const SpaceResult off =
          find_monomorphism(b.dfg, large, first_labels, first->ii, without);
      const SpaceResult ref = find_monomorphism(b.dfg, large, first_labels,
                                                first->ii, reference);
      ASSERT_FALSE(r.timed_out || off.timed_out || ref.timed_out)
          << b.name << " " << side;
      EXPECT_EQ(r.found, off.found) << b.name << " " << side;
      EXPECT_EQ(r.found, ref.found) << b.name << " " << side;
      pinned += r.root_pinned ? 1 : 0;
      if (r.found) expect_monomorphism(b.dfg, large, first_labels, r);
      if (off.found) expect_monomorphism(b.dfg, large, first_labels, off);
    }
  }
  EXPECT_GE(pinned, 30) << "the pin should fire on most large-grid cases";
}

TEST(Monomorphism, BacktrackBudgetReportsTimeout) {
  // An adversarial instance: a dense same-label structure that forces
  // backtracking, with a budget of 1.
  const Benchmark& b = benchmark_by_name("hotspot3D");
  const CgraArch arch = CgraArch::square(4);
  const auto sol =
      first_schedule(b.dfg, arch, Deadline::unlimited()).solution;
  ASSERT_TRUE(sol.has_value());
  const auto labels = labels_of(*sol, b.dfg);
  SpaceOptions opt;
  opt.max_backtracks = 0;  // unlimited: should find or exhaust
  const SpaceResult full = find_monomorphism(b.dfg, arch, labels, sol->ii, opt);
  EXPECT_FALSE(full.deadline_expired);
  // With a unit budget, either it finds a solution greedily or reports a
  // (budget) timeout.
  opt.max_backtracks = 1;
  const SpaceResult tiny = find_monomorphism(b.dfg, arch, labels, sol->ii, opt);
  if (!tiny.found) {
    EXPECT_TRUE(tiny.timed_out);
    EXPECT_FALSE(tiny.deadline_expired);
  }
}

TEST(Monomorphism, DeadlineExpiresCleanly) {
  const Benchmark& b = benchmark_by_name("cfd");
  const CgraArch arch = CgraArch::square(8);
  const auto sol =
      first_schedule(b.dfg, arch, Deadline::unlimited()).solution;
  ASSERT_TRUE(sol.has_value());
  const auto labels = labels_of(*sol, b.dfg);
  const Deadline expired(0.0);
  const SpaceResult r =
      find_monomorphism(b.dfg, arch, labels, sol->ii, SpaceOptions{}, expired);
  // Deadline checks are periodic (every 4096 expansions), so a search that
  // completes before the first check legitimately never reports expiry —
  // conflict-directed search refutes this instance that fast. What must
  // hold: any early stop under an expired deadline is attributed to the
  // deadline, never to the backtrack budget.
  if (!r.found) {
    EXPECT_EQ(r.timed_out, r.deadline_expired);
    EXPECT_FALSE(r.truncated);
  }
}

TEST(Monomorphism, DisconnectedComponentsPlaceIndependently) {
  // Two disjoint edges; all labels distinct.
  const Dfg dfg = Dfg::from_edges("two", 4, {{0, 1, 0}, {2, 3, 0}});
  const CgraArch arch = CgraArch::square(2);
  const SpaceResult r = find_monomorphism(dfg, arch, {0, 1, 2, 3}, 4);
  EXPECT_TRUE(r.found);
}

TEST(Monomorphism, LabelOutOfRangeAsserts) {
  const Dfg dfg = Dfg::from_edges("one", 1, {});
  const CgraArch arch = CgraArch::square(2);
  EXPECT_THROW(find_monomorphism(dfg, arch, {5}, 2), AssertionError);
}

}  // namespace
}  // namespace monomap
