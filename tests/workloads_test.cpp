// Pins the workload suite to the paper's Table III: node counts, recurrence
// bounds, and mII = max(ResII, RecII) for all 68 (benchmark, grid) cells.
#include <gtest/gtest.h>

#include <cstdlib>

#include "graph/algorithms.hpp"
#include "ir/interpreter.hpp"
#include "sched/mii.hpp"
#include "workloads/running_example.hpp"
#include "workloads/suite.hpp"
#include "workloads/synthetic.hpp"

namespace monomap {
namespace {

TEST(Suite, HasSeventeenBenchmarks) {
  EXPECT_EQ(benchmark_suite().size(), 17u);
}

class SuiteShape : public ::testing::TestWithParam<int> {};

TEST_P(SuiteShape, NodeCountMatchesPaper) {
  const Benchmark& b = benchmark_suite()[static_cast<std::size_t>(GetParam())];
  EXPECT_EQ(b.dfg.num_nodes(), b.paper_nodes) << b.name;
}

TEST_P(SuiteShape, RecurrenceMatchesPaper) {
  const Benchmark& b = benchmark_suite()[static_cast<std::size_t>(GetParam())];
  EXPECT_EQ(recurrence_mii_of(b.dfg), b.paper_rec_ii) << b.name;
}

TEST_P(SuiteShape, DfgIsConnected) {
  const Benchmark& b = benchmark_suite()[static_cast<std::size_t>(GetParam())];
  EXPECT_TRUE(b.dfg.is_connected()) << b.name;
}

TEST_P(SuiteShape, KernelValidatesAndInterprets) {
  const Benchmark& b = benchmark_suite()[static_cast<std::size_t>(GetParam())];
  ASSERT_NO_THROW(b.kernel.validate()) << b.name;
  const ExecutionTrace trace = interpret(b.kernel, 8);
  EXPECT_EQ(trace.values.size(), 8u);
  // Something observable must happen: at least one store per kernel.
  EXPECT_FALSE(trace.memory.written_cells().empty()) << b.name;
}

TEST_P(SuiteShape, MiiMatchesPaperOnAllGrids) {
  const Benchmark& b = benchmark_suite()[static_cast<std::size_t>(GetParam())];
  for (std::size_t g = 0; g < kPaperGridSizes.size(); ++g) {
    const CgraArch arch = CgraArch::square(kPaperGridSizes[g]);
    const MiiBreakdown mii = compute_mii(b.dfg, arch);
    // sha2 on 2x2: the paper prints 6, inconsistent with its own RecII; we
    // assert the self-consistent value (max(7, 7) = 7).
    int expected = b.paper_mii[g];
    if (b.name == "sha2" && g == 0) expected = 7;
    EXPECT_EQ(mii.mii(), expected)
        << b.name << " on " << kPaperGridSizes[g] << "x" << kPaperGridSizes[g];
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, SuiteShape, ::testing::Range(0, 17),
    [](const ::testing::TestParamInfo<int>& info) {
      return benchmark_suite()[static_cast<std::size_t>(info.param)].name;
    });

TEST(Suite, LookupByName) {
  EXPECT_EQ(benchmark_by_name("aes").paper_nodes, 23);
  EXPECT_EQ(benchmark_by_name("hotspot3D").paper_nodes, 57);
  EXPECT_THROW(benchmark_by_name("nope"), InputError);
}

TEST(Suite, DeterministicConstruction) {
  // Two lookups return the same object (cached suite).
  EXPECT_EQ(&benchmark_by_name("fft"), &benchmark_by_name("fft"));
}

TEST(RunningExample, MatchesPaperShape) {
  const Dfg dfg = running_example_dfg();
  EXPECT_EQ(dfg.num_nodes(), 14);
  EXPECT_EQ(dfg.num_edges(), 15);
  EXPECT_TRUE(dfg.is_connected());
  EXPECT_EQ(recurrence_mii_of(dfg), 4);
  const CgraArch arch = CgraArch::square(2);
  const MiiBreakdown mii = compute_mii(dfg, arch);
  EXPECT_EQ(mii.res_ii, 4);
  EXPECT_EQ(mii.rec_ii, 4);
  EXPECT_EQ(mii.mii(), 4);
}

TEST(Synthetic, RandomDfgIsConnectedAndBounded) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SyntheticSpec spec;
    spec.num_nodes = 25;
    spec.seed = seed;
    const Dfg dfg = random_dfg(spec);
    EXPECT_EQ(dfg.num_nodes(), 25);
    EXPECT_TRUE(dfg.is_connected()) << seed;
    EXPECT_LE(dfg.max_undirected_degree(), spec.max_degree + 2) << seed;
  }
}

TEST(Synthetic, LayeredDfgShape) {
  const Dfg dfg = layered_dfg(5, 4, 7);
  EXPECT_EQ(dfg.num_nodes(), 20);
  EXPECT_GE(recurrence_mii_of(dfg), 1);
}

TEST(Synthetic, PlaceableGridShapeAndIdentityWitness) {
  // The generator's contract: diagonal-wave labels, and every edge joins
  // grid-adjacent cells, so placing node (r, c) on PE (r, c) is a
  // monomorphism witness for ANY ii — that identity check here is what
  // entitles the space tests to assert found == true.
  for (const int ii : {2, 4, 6}) {
    PlaceableGridSpec spec;
    spec.rows = 7;
    spec.cols = 9;
    spec.ii = ii;
    spec.edge_keep = 0.6;
    spec.seed = 11;
    std::vector<int> labels;
    const Dfg dfg = placeable_grid_dfg(spec, &labels);
    ASSERT_EQ(dfg.num_nodes(), 63);
    ASSERT_EQ(labels.size(), 63u);
    EXPECT_TRUE(dfg.is_connected()) << "ii " << ii;
    for (int r = 0; r < spec.rows; ++r) {
      for (int c = 0; c < spec.cols; ++c) {
        EXPECT_EQ(labels[static_cast<std::size_t>(r * spec.cols + c)],
                  (r + c) % ii);
      }
    }
    const Graph& g = dfg.graph();
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const Edge& edge = g.edge(e);
      const int dr = edge.src / spec.cols - edge.dst / spec.cols;
      const int dc = edge.src % spec.cols - edge.dst % spec.cols;
      EXPECT_EQ(std::abs(dr) + std::abs(dc), 1)
          << "edge " << edge.src << "->" << edge.dst << " not grid-adjacent";
    }
  }
}

TEST(Synthetic, PlaceableSpecScalesWithFabricAndBallCapacity) {
  // spec_for sizes the patch to ~3/5 the linear extent and never returns
  // an II whose densest same-label 2-hop cluster overflows the interior
  // distance-2 ball (on a plain mesh the requested II already fits).
  for (const int grid : {16, 32, 64}) {
    const CgraArch arch = CgraArch::square(grid);
    const PlaceableGridSpec spec =
        placeable_spec_for(arch, 2, static_cast<std::uint64_t>(grid));
    EXPECT_EQ(spec.rows, grid * 3 / 5);
    EXPECT_EQ(spec.cols, grid * 3 / 5);
    EXPECT_EQ(spec.ii, 2) << grid;
    EXPECT_LE(spec.rows, arch.rows());
  }
  // Higher requested IIs pass through unchanged on the mesh.
  EXPECT_EQ(placeable_spec_for(CgraArch::square(16), 5, 1).ii, 5);
}

}  // namespace
}  // namespace monomap
