// Cross-cutting sweep: for every benchmark and several grids, the first
// schedule the time solver yields must satisfy all three constraint
// families of Sec. IV-B, and the resulting end-to-end mapping must respect
// the monomorphism properties — checked here independently of the
// mapper-internal validation.
#include <gtest/gtest.h>

#include "first_schedule.hpp"
#include "mapper/decoupled_mapper.hpp"
#include "sched/mii.hpp"
#include "workloads/suite.hpp"

namespace monomap {
namespace {

struct Case {
  int bench;
  int grid;
};

class ConstraintSweep : public ::testing::TestWithParam<Case> {};

TEST_P(ConstraintSweep, FirstScheduleSatisfiesAllConstraintFamilies) {
  const Benchmark& b =
      benchmark_suite()[static_cast<std::size_t>(GetParam().bench)];
  const CgraArch arch = CgraArch::square(GetParam().grid);
  const auto sol = first_schedule(b.dfg, arch, Deadline(30.0)).solution;
  if (!sol.has_value()) {
    GTEST_SKIP() << "no schedule within budget";
  }
  const Graph& g = b.dfg.graph();
  const int ii = sol->ii;
  ASSERT_GE(ii, compute_mii(b.dfg, arch).mii());

  // 1. Modulo-scheduling constraints.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    if (edge.src == edge.dst) continue;
    EXPECT_GE(sol->time[static_cast<std::size_t>(edge.dst)] + edge.attr * ii,
              sol->time[static_cast<std::size_t>(edge.src)] + 1)
        << b.name << " edge " << edge.src << "->" << edge.dst;
  }
  // 2. Capacity constraints.
  std::vector<int> load(static_cast<std::size_t>(ii), 0);
  for (NodeId v = 0; v < b.dfg.num_nodes(); ++v) {
    ++load[static_cast<std::size_t>(sol->label(v))];
  }
  for (const int c : load) {
    EXPECT_LE(c, arch.num_pes()) << b.name;
  }
  // 3. Connectivity constraints (strict form, the default).
  for (NodeId v = 0; v < b.dfg.num_nodes(); ++v) {
    std::vector<int> per_slot(static_cast<std::size_t>(ii), 0);
    for (const NodeId u : g.undirected_neighbors(v)) {
      ++per_slot[static_cast<std::size_t>(sol->label(u))];
    }
    ++per_slot[static_cast<std::size_t>(sol->label(v))];  // self term
    for (const int c : per_slot) {
      EXPECT_LE(c, arch.connectivity_degree()) << b.name << " node " << v;
    }
  }
}

TEST_P(ConstraintSweep, EndToEndMappingRespectsMonoProperties) {
  const Benchmark& b =
      benchmark_suite()[static_cast<std::size_t>(GetParam().bench)];
  const CgraArch arch = CgraArch::square(GetParam().grid);
  DecoupledMapperOptions opt;
  opt.timeout_s = 30.0;
  const MapResult r = DecoupledMapper(opt).map(b.dfg, arch);
  if (!r.success) {
    GTEST_SKIP() << r.failure_reason;
  }
  // mono1: injectivity.
  std::set<std::pair<PeId, int>> seen;
  for (NodeId v = 0; v < b.dfg.num_nodes(); ++v) {
    EXPECT_TRUE(seen.emplace(r.mapping.pe(v), r.mapping.slot(v)).second);
  }
  // mono2: labels equal T mod II by construction; check range.
  for (NodeId v = 0; v < b.dfg.num_nodes(); ++v) {
    EXPECT_GE(r.mapping.slot(v), 0);
    EXPECT_LT(r.mapping.slot(v), r.ii);
  }
  // mono3: adjacency.
  const Graph& g = b.dfg.graph();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    if (edge.src == edge.dst) continue;
    EXPECT_TRUE(arch.adjacent_or_same(r.mapping.pe(edge.src),
                                      r.mapping.pe(edge.dst)))
        << b.name;
  }
}

std::vector<Case> sweep_cases() {
  std::vector<Case> cases;
  for (int bench = 0; bench < 17; ++bench) {
    for (const int grid : {3, 6}) {
      cases.push_back(Case{bench, grid});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    SuiteByGrid, ConstraintSweep, ::testing::ValuesIn(sweep_cases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      return benchmark_suite()[static_cast<std::size_t>(info.param.bench)]
                 .name +
             "_" + std::to_string(info.param.grid) + "x" +
             std::to_string(info.param.grid);
    });

}  // namespace
}  // namespace monomap
