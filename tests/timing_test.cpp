// Tests for the time formulation and time solver (paper Sec. IV-B):
// constraint semantics, horizon extension, solution enumeration.
#include <gtest/gtest.h>

#include "sched/mii.hpp"
#include "timing/time_formulation.hpp"
#include "timing/time_session.hpp"
#include "timing/time_solver.hpp"
#include "workloads/running_example.hpp"
#include "workloads/suite.hpp"

namespace monomap {
namespace {

/// Check the three constraint families directly on a solution.
void expect_solution_feasible(const Dfg& dfg, const CgraArch& arch,
                              const TimeSolution& sol,
                              bool check_connectivity = true) {
  const Graph& g = dfg.graph();
  const int ii = sol.ii;
  // Dependencies.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    if (edge.src == edge.dst) continue;
    EXPECT_GE(sol.time[static_cast<std::size_t>(edge.dst)] + edge.attr * ii,
              sol.time[static_cast<std::size_t>(edge.src)] + 1)
        << "edge " << edge.src << "->" << edge.dst;
  }
  // Capacity.
  std::vector<int> per_slot(static_cast<std::size_t>(ii), 0);
  for (NodeId v = 0; v < dfg.num_nodes(); ++v) {
    ++per_slot[static_cast<std::size_t>(sol.label(v))];
  }
  for (const int c : per_slot) {
    EXPECT_LE(c, arch.num_pes());
  }
  // Connectivity (paper form).
  if (check_connectivity) {
    for (NodeId v = 0; v < dfg.num_nodes(); ++v) {
      std::vector<int> nb_per_slot(static_cast<std::size_t>(ii), 0);
      for (const NodeId u : g.undirected_neighbors(v)) {
        ++nb_per_slot[static_cast<std::size_t>(sol.label(u))];
      }
      for (const int c : nb_per_slot) {
        EXPECT_LE(c, arch.connectivity_degree()) << "node " << v;
      }
    }
  }
}

TEST(TimeFormulation, RunningExampleSatAtMii) {
  const Dfg dfg = running_example_dfg();
  const CgraArch arch = CgraArch::square(2);
  TimeFormulation f(dfg, arch, 4);
  ASSERT_TRUE(f.build());
  ASSERT_EQ(f.solve(Deadline::unlimited()), SatStatus::kSat);
  const TimeSolution sol = f.extract();
  EXPECT_EQ(sol.ii, 4);
  expect_solution_feasible(dfg, arch, sol);
}

TEST(TimeFormulation, RunningExampleUnsatBelowRecMii) {
  const Dfg dfg = running_example_dfg();
  const CgraArch arch = CgraArch::square(2);
  // II=3 < RecII=4: the dependency constraints alone are unsatisfiable.
  TimeFormulation f(dfg, arch, 3);
  if (f.build()) {
    EXPECT_EQ(f.solve(Deadline::unlimited()), SatStatus::kUnsat);
  }
}

TEST(TimeFormulation, CapacityBindsOnTinyGrid) {
  // 6 independent nodes, 1x2 grid, II=2: capacity 2/slot * 2 slots = 4 < 6.
  const Dfg dfg = Dfg::from_edges("six", 6, {});
  const CgraArch arch(1, 2);
  TimeFormulation low(dfg, arch, 2, 2);
  if (low.build()) {
    EXPECT_EQ(low.solve(Deadline::unlimited()), SatStatus::kUnsat);
  }
  TimeFormulation high(dfg, arch, 3, 3);
  ASSERT_TRUE(high.build());
  EXPECT_EQ(high.solve(Deadline::unlimited()), SatStatus::kSat);
}

TEST(TimeFormulation, CapacityConstraintCanBeDisabled) {
  const Dfg dfg = Dfg::from_edges("six", 6, {});
  const CgraArch arch(1, 2);
  TimeConstraintOptions opt;
  opt.capacity = false;
  opt.connectivity = false;
  TimeFormulation f(dfg, arch, 2, 2, opt);
  ASSERT_TRUE(f.build());
  // Without capacity the instance is satisfiable (labels can collide).
  EXPECT_EQ(f.solve(Deadline::unlimited()), SatStatus::kSat);
}

TEST(TimeFormulation, ConnectivityBindsForStarGraph) {
  // Star: hub with 6 leaves, all independent (distance-1 back edge keeps
  // them schedulable at any slot). On a 2x2 grid D_M = 3.
  std::vector<Edge> edges;
  for (NodeId leaf = 1; leaf <= 6; ++leaf) {
    edges.push_back(Edge{0, leaf, 1});  // loop-carried: no ordering pressure
  }
  const Dfg dfg = Dfg::from_edges("star", 7, edges);
  const CgraArch arch = CgraArch::square(2);
  // II=2: 6 neighbours over 2 slots -> one slot holds >= 3 = D_M; with the
  // strict self term the hub's own slot allows only 2, so II=2 must fail.
  TimeConstraintOptions strict;
  strict.strict_connectivity = true;
  // Horizon 6 gives every node full mobility over the kernel slots.
  TimeFormulation f2(dfg, arch, 2, 6, strict);
  if (f2.build()) {
    EXPECT_EQ(f2.solve(Deadline::unlimited()), SatStatus::kUnsat);
  }
  TimeFormulation f3(dfg, arch, 3, 6, strict);
  ASSERT_TRUE(f3.build());
  EXPECT_EQ(f3.solve(Deadline::unlimited()), SatStatus::kSat);
}

TEST(TimeFormulation, PaperModeIsWeakerThanStrict) {
  // Same star graph: the paper's literal constraint (without the self term)
  // admits II=2 because 3 neighbours per slot == D_M is allowed.
  std::vector<Edge> edges;
  for (NodeId leaf = 1; leaf <= 6; ++leaf) {
    edges.push_back(Edge{0, leaf, 1});
  }
  const Dfg dfg = Dfg::from_edges("star", 7, edges);
  const CgraArch arch = CgraArch::square(2);
  TimeConstraintOptions paper;
  paper.strict_connectivity = false;
  TimeFormulation f(dfg, arch, 2, 6, paper);
  ASSERT_TRUE(f.build());
  EXPECT_EQ(f.solve(Deadline::unlimited()), SatStatus::kSat);
}

TEST(TimeFormulation, BlockLabelsForcesNewSolution) {
  const Dfg dfg = running_example_dfg();
  const CgraArch arch = CgraArch::square(2);
  TimeFormulation f(dfg, arch, 4);
  ASSERT_TRUE(f.build());
  ASSERT_EQ(f.solve(Deadline::unlimited()), SatStatus::kSat);
  const TimeSolution first = f.extract();
  ASSERT_TRUE(f.block_labels(first));
  if (f.solve(Deadline::unlimited()) == SatStatus::kSat) {
    const TimeSolution second = f.extract();
    bool differs = false;
    for (NodeId v = 0; v < dfg.num_nodes(); ++v) {
      if (first.label(v) != second.label(v)) {
        differs = true;
        break;
      }
    }
    EXPECT_TRUE(differs);
  }
}

TEST(TimeFormulation, StatsReportEncodingSize) {
  const Dfg dfg = running_example_dfg();
  const CgraArch arch = CgraArch::square(2);
  TimeFormulation f(dfg, arch, 4);
  ASSERT_TRUE(f.build());
  const TimeFormulationStats stats = f.stats();
  EXPECT_GT(stats.num_vars, dfg.num_nodes());
  EXPECT_GT(stats.num_clauses, 0);
}

TEST(TimeFormulation, EncodingIsGridSizeIndependent) {
  // The core decoupling property: the formulation depends on the grid only
  // through |PEs| and D_M bounds, so 10x10 and 20x20 encodings coincide.
  const Dfg dfg = benchmark_by_name("fft").dfg;
  const CgraArch arch10 = CgraArch::square(10);
  const CgraArch arch20 = CgraArch::square(20);
  TimeFormulation f10(dfg, arch10, 7);
  TimeFormulation f20(dfg, arch20, 7);
  ASSERT_TRUE(f10.build());
  ASSERT_TRUE(f20.build());
  EXPECT_EQ(f10.stats().num_vars, f20.stats().num_vars);
  EXPECT_EQ(f10.stats().num_clauses, f20.stats().num_clauses);
}

TEST(TimeSession, MatchesFormulationAtBaseHorizon) {
  const Dfg dfg = running_example_dfg();
  const CgraArch arch = CgraArch::square(2);
  TimeSession session(dfg, arch, 4);
  ASSERT_TRUE(session.ok());
  ASSERT_EQ(session.solve(Deadline::unlimited()), SatStatus::kSat);
  const TimeSolution sol = session.extract();
  EXPECT_EQ(sol.ii, 4);
  EXPECT_EQ(sol.horizon, session.horizon());
  expect_solution_feasible(dfg, arch, sol);
}

TEST(TimeSession, UnsatBelowRecMiiIsFinalOrAtHorizon) {
  const Dfg dfg = running_example_dfg();
  const CgraArch arch = CgraArch::square(2);
  // II=3 < RecII=4: unsatisfiable at every horizon of this II.
  TimeSession session(dfg, arch, 3);
  for (int ext = 0; ext < 3 && session.ok(); ++ext) {
    EXPECT_EQ(session.solve(Deadline::unlimited()), SatStatus::kUnsat);
    session.extend_horizon();
  }
}

TEST(TimeSession, HorizonExtensionUnlocksCapacity) {
  // 5 nodes, 1x1 grid, II=5: the critical-path horizon (4) pins node 4 to
  // node 1's slot; one extension step frees it (same instance as the
  // TimeSolver.HorizonExtensionUnlocksTightCapacity sweep, but exercised
  // on one warm solver).
  const Dfg dfg = Dfg::from_edges(
      "chain5", 5, {{0, 1, 0}, {1, 2, 0}, {2, 3, 0}, {0, 4, 0}});
  const CgraArch arch(1, 1);
  TimeSession session(dfg, arch, 5);
  ASSERT_TRUE(session.ok());
  const SatStatus base = session.solve(Deadline::unlimited());
  if (base == SatStatus::kUnsat) {
    EXPECT_FALSE(session.unsat_is_final());
  }
  while (session.solve(Deadline::unlimited()) != SatStatus::kSat) {
    ASSERT_FALSE(session.unsat_is_final());
    ASSERT_TRUE(session.extend_horizon());
    ASSERT_LE(session.extension(), 8);
  }
  const TimeSolution sol = session.extract();
  std::vector<bool> slot_used(5, false);
  for (NodeId v = 0; v < dfg.num_nodes(); ++v) {
    EXPECT_FALSE(slot_used[static_cast<std::size_t>(sol.label(v))]);
    slot_used[static_cast<std::size_t>(sol.label(v))] = true;
  }
}

TEST(TimeSession, BlockLabelsPersistsAcrossExtensions) {
  const Dfg dfg = running_example_dfg();
  const CgraArch arch = CgraArch::square(2);
  TimeSession session(dfg, arch, 4);
  ASSERT_EQ(session.solve(Deadline::unlimited()), SatStatus::kSat);
  const TimeSolution first = session.extract();
  ASSERT_TRUE(session.block_labels(first));
  ASSERT_TRUE(session.extend_horizon());
  // Any solution at the wider horizon must still avoid the blocked vector.
  if (session.solve(Deadline::unlimited()) == SatStatus::kSat) {
    const TimeSolution second = session.extract();
    bool differs = false;
    for (NodeId v = 0; v < dfg.num_nodes(); ++v) {
      differs = differs || first.label(v) != second.label(v);
    }
    EXPECT_TRUE(differs);
  }
}

TEST(TimeSession, NogoodPrunesPlacementFamily) {
  const Dfg dfg = running_example_dfg();
  const CgraArch arch = CgraArch::square(2);
  TimeSession session(dfg, arch, 4);
  ASSERT_EQ(session.solve(Deadline::unlimited()), SatStatus::kSat);
  const TimeSolution first = session.extract();
  // Pretend space refuted nodes {0, 1} at their current slots: every later
  // schedule must move at least one of them, not merely differ somewhere.
  ASSERT_TRUE(session.add_label_nogood(
      {{0, first.label(0)}, {1, first.label(1)}}));
  int rounds = 0;
  while (session.solve(Deadline::unlimited()) == SatStatus::kSat &&
         rounds < 32) {
    const TimeSolution sol = session.extract();
    EXPECT_FALSE(sol.label(0) == first.label(0) &&
                 sol.label(1) == first.label(1))
        << "nogood-pruned placement re-yielded";
    ASSERT_TRUE(session.block_labels(sol));
    ++rounds;
  }
}

TEST(TimeSolver, StartsAtMiiAndYields) {
  const Dfg dfg = running_example_dfg();
  const CgraArch arch = CgraArch::square(2);
  EXPECT_EQ(compute_mii(dfg, arch).mii(), 4);
  TimeSolver solver(dfg, arch, 4);
  const auto sol = solver.next(Deadline::unlimited());
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(sol->ii, 4);
  expect_solution_feasible(dfg, arch, *sol);
}

TEST(TimeSolver, EnumerationYieldsDistinctLabelVectors) {
  const Dfg dfg = running_example_dfg();
  const CgraArch arch = CgraArch::square(2);
  TimeSolver solver(dfg, arch, 4);
  std::vector<std::vector<int>> seen;
  for (int round = 0; round < 5; ++round) {
    const auto sol = solver.next(Deadline::unlimited());
    if (!sol.has_value()) break;
    std::vector<int> labels;
    for (NodeId v = 0; v < dfg.num_nodes(); ++v) {
      labels.push_back(sol->label(v));
    }
    for (const auto& prev : seen) {
      EXPECT_NE(prev, labels);
    }
    seen.push_back(labels);
  }
  EXPECT_GE(seen.size(), 2u);
}

TEST(TimeSolver, HorizonExtensionUnlocksTightCapacity) {
  // A 4-node chain on a 1x1 grid: capacity 1/slot. At II=4 with horizon 4
  // (critical path) each node has a fixed slot — feasible. But 5 nodes with
  // one branch force an extension.
  const Dfg dfg = Dfg::from_edges(
      "chain5", 5, {{0, 1, 0}, {1, 2, 0}, {2, 3, 0}, {0, 4, 0}});
  const CgraArch arch(1, 1);
  TimeSolver solver(dfg, arch, 5);  // ResII = 5 on one PE
  const auto sol = solver.next(Deadline::unlimited());
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(sol->ii, 5);
  // Node 4 must move off node 1's slot: needs horizon > critical path.
  EXPECT_GE(sol->horizon, 5);
  expect_solution_feasible(dfg, arch, *sol, false);
}

TEST(TimeSession, StartsAtAWiderHorizon) {
  // Built directly at the capacity floor (5) of the chain5 instance, the
  // session solves without any extension.
  const Dfg dfg = Dfg::from_edges(
      "chain5", 5, {{0, 1, 0}, {1, 2, 0}, {2, 3, 0}, {0, 4, 0}});
  const CgraArch arch(1, 1);
  TimeSession session(dfg, arch, 5, TimeConstraintOptions{}, 5);
  EXPECT_EQ(session.horizon(), 5);
  EXPECT_EQ(session.extension(), 0);
  ASSERT_EQ(session.solve(Deadline::unlimited()), SatStatus::kSat);
  expect_solution_feasible(dfg, arch, session.extract(), false);
  ASSERT_TRUE(session.extend_horizon());
  EXPECT_EQ(session.horizon(), 6);
}

TEST(TimeSolver, CapacityFloorSkipsPigeonholeHorizons) {
  // chain5 on one PE at II 5: the critical-path horizon (4) cannot seat
  // node 4 (see TimeSolver.HorizonExtensionUnlocksTightCapacity), so both
  // engines start at horizon 5 and answer with a single SAT call.
  const Dfg dfg = Dfg::from_edges(
      "chain5", 5, {{0, 1, 0}, {1, 2, 0}, {2, 3, 0}, {0, 4, 0}});
  const CgraArch arch(1, 1);
  for (const TimeEngine engine :
       {TimeEngine::kIncremental, TimeEngine::kReference}) {
    TimeSolverOptions opt;
    opt.engine = engine;
    TimeSolver solver(dfg, arch, 5, opt);
    const auto sol = solver.next(Deadline::unlimited());
    ASSERT_TRUE(sol.has_value()) << to_string(engine);
    EXPECT_EQ(sol->ii, 5) << to_string(engine);
    EXPECT_EQ(sol->horizon, 5) << to_string(engine);
    EXPECT_EQ(solver.stats().sat_calls, 1) << to_string(engine);
    EXPECT_EQ(solver.stats().instances_built, 1) << to_string(engine);
    EXPECT_EQ(solver.stats().capacity_refuted_horizons, 1)
        << to_string(engine);
  }
}

TEST(TimeSolver, CapacityFloorExhaustsIiWithoutASolver) {
  // Six edge-free nodes on one PE share the window [0, h-1]: with at most
  // two extensions (h <= 3) no II can seat them, so IIs 6 (mII) and 7 are
  // refuted by matching alone — no session, no formulation, no SAT call.
  const Dfg dfg = Dfg::from_edges("six", 6, {});
  const CgraArch arch(1, 1);
  for (const TimeEngine engine :
       {TimeEngine::kIncremental, TimeEngine::kReference}) {
    TimeSolverOptions opt;
    opt.engine = engine;
    opt.max_horizon_extension = 2;
    for (int ii = 6; ii <= 7; ++ii) {
      TimeSolver solver(dfg, arch, ii, opt);
      EXPECT_FALSE(solver.next(Deadline::unlimited()).has_value());
      EXPECT_FALSE(solver.timed_out()) << to_string(engine) << " II " << ii;
      EXPECT_EQ(solver.stats().sat_calls, 0) << to_string(engine);
      EXPECT_EQ(solver.stats().instances_built, 0) << to_string(engine);
      EXPECT_EQ(solver.stats().sessions_created, 0) << to_string(engine);
      // Three horizons per II.
      EXPECT_EQ(solver.stats().capacity_refuted_horizons, 3)
          << to_string(engine) << " II " << ii;
    }
  }
  // The CNF agrees: every one of those horizons is unsatisfiable.
  for (int ii = 6; ii <= 7; ++ii) {
    for (int horizon = 1; horizon <= 3; ++horizon) {
      TimeFormulation f(dfg, arch, ii, horizon);
      if (f.build()) {
        EXPECT_EQ(f.solve(Deadline::unlimited()), SatStatus::kUnsat)
            << "II " << ii << " horizon " << horizon;
      }
    }
  }
}

TEST(TimeSolver, CapacityFloorIsOffWithoutCapacityConstraints) {
  const Dfg dfg = Dfg::from_edges(
      "chain5", 5, {{0, 1, 0}, {1, 2, 0}, {2, 3, 0}, {0, 4, 0}});
  const CgraArch arch(1, 1);
  TimeSolverOptions opt;
  opt.constraints.capacity = false;
  TimeSolver solver(dfg, arch, 5, opt);
  const auto sol = solver.next(Deadline::unlimited());
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(sol->horizon, 4);
  EXPECT_EQ(solver.stats().capacity_refuted_horizons, 0);
}

TEST(TimeSolver, ReportsExhaustionOnImpossibleInstance) {
  // Zero-distance cycle would throw earlier; instead: impossible capacity
  // at every II below the requirement.
  const Dfg dfg = Dfg::from_edges("six", 6, {});
  const CgraArch arch(1, 1);
  for (int ii = 1; ii <= 3; ++ii) {  // needs II >= 6 on a single PE
    TimeSolver solver(dfg, arch, ii);
    const auto sol = solver.next(Deadline::unlimited());
    EXPECT_FALSE(sol.has_value()) << "II " << ii;
    EXPECT_FALSE(solver.timed_out()) << "II " << ii;
  }
}

TEST(TimeSolver, DeadlineShortCircuits) {
  const Dfg dfg = benchmark_by_name("hotspot3D").dfg;
  const CgraArch arch = CgraArch::square(5);
  TimeSolver solver(dfg, arch, compute_mii(dfg, arch).mii());
  const auto sol = solver.next(Deadline(0.0));
  EXPECT_FALSE(sol.has_value());
  EXPECT_TRUE(solver.timed_out());
}

}  // namespace
}  // namespace monomap
