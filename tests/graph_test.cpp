// Tests for the graph substrate: structure, traversals, SCC, cycles,
// II-feasibility (Bellman-Ford) and DOT export.
#include <algorithm>
#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "graph/dot.hpp"
#include "graph/graph.hpp"

namespace monomap {
namespace {

Graph diamond() {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  return g;
}

TEST(Graph, BasicStructure) {
  Graph g;
  EXPECT_EQ(g.num_nodes(), 0);
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const EdgeId e = g.add_edge(a, b, 7);
  EXPECT_EQ(g.num_nodes(), 2);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.edge(e).src, a);
  EXPECT_EQ(g.edge(e).dst, b);
  EXPECT_EQ(g.edge(e).attr, 7);
  EXPECT_EQ(g.out_degree(a), 1);
  EXPECT_EQ(g.in_degree(b), 1);
  EXPECT_TRUE(g.are_adjacent(a, b));
  EXPECT_TRUE(g.are_adjacent(b, a));
}

TEST(Graph, SelfEdgeCountsOnceInUndirectedDegree) {
  Graph g(1);
  g.add_edge(0, 0, 1);
  EXPECT_EQ(g.undirected_degree(0), 1);
  EXPECT_TRUE(g.undirected_neighbors(0).empty());
}

TEST(Graph, ParallelEdgesAllowed) {
  Graph g(2);
  g.add_edge(0, 1, 3);
  g.add_edge(0, 1, 8);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.undirected_neighbors(0), std::vector<NodeId>{1});
}

TEST(Graph, InvalidAccessThrows) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 5), AssertionError);
  EXPECT_THROW((void)g.edge(0), AssertionError);
  EXPECT_THROW((void)g.out_edges(-1), AssertionError);
}

TEST(TopologicalSort, DiamondOrder) {
  const Graph g = diamond();
  const auto order = topological_sort(g);
  ASSERT_TRUE(order.has_value());
  std::vector<int> pos(4);
  for (int i = 0; i < 4; ++i) {
    pos[static_cast<std::size_t>((*order)[static_cast<std::size_t>(i)])] = i;
  }
  EXPECT_LT(pos[0], pos[1]);
  EXPECT_LT(pos[0], pos[2]);
  EXPECT_LT(pos[1], pos[3]);
  EXPECT_LT(pos[2], pos[3]);
}

TEST(TopologicalSort, DetectsCycle) {
  Graph g(2);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  EXPECT_FALSE(topological_sort(g).has_value());
}

TEST(TopologicalSort, EdgeFilterIgnoresBackEdges) {
  Graph g(2);
  g.add_edge(0, 1, 0);
  g.add_edge(1, 0, 1);  // loop-carried
  EXPECT_FALSE(topological_sort(g).has_value());
  EXPECT_TRUE(topological_sort(g, edges_with_attr(0)).has_value());
}

TEST(LongestPath, DiamondDepths) {
  const Graph g = diamond();
  const auto depth = longest_path_from_sources(g, all_edges());
  EXPECT_EQ(depth[0], 0);
  EXPECT_EQ(depth[1], 1);
  EXPECT_EQ(depth[2], 1);
  EXPECT_EQ(depth[3], 2);
}

TEST(ElementaryCycles, FindsAllSimpleCycles) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  const auto cycles = elementary_cycles(g);
  EXPECT_EQ(cycles.size(), 2u);  // 0-1 and 0-1-2
}

TEST(ElementaryCycles, RespectsCap) {
  // Complete digraph on 5 nodes has many cycles; cap at 3.
  Graph g(5);
  for (NodeId a = 0; a < 5; ++a) {
    for (NodeId b = 0; b < 5; ++b) {
      if (a != b) g.add_edge(a, b);
    }
  }
  EXPECT_EQ(elementary_cycles(g, 3).size(), 3u);
}

TEST(IiFeasibility, MatchesCycleRatioAnalysis) {
  // Cycle of length 3 with distance 1: feasible iff ii >= 3.
  Graph g(3);
  g.add_edge(0, 1, 0);
  g.add_edge(1, 2, 0);
  g.add_edge(2, 0, 1);
  EXPECT_FALSE(ii_feasible(g, 1));
  EXPECT_FALSE(ii_feasible(g, 2));
  EXPECT_TRUE(ii_feasible(g, 3));
  EXPECT_TRUE(ii_feasible(g, 10));
  EXPECT_EQ(recurrence_mii(g), 3);
}

TEST(IiFeasibility, MultipleCyclesTakeTheMax) {
  Graph g(5);
  // cycle A: 0->1->0 distance 1 (ratio 2)
  g.add_edge(0, 1, 0);
  g.add_edge(1, 0, 1);
  // cycle B: 2->3->4->2 distance 1 (ratio 3)
  g.add_edge(2, 3, 0);
  g.add_edge(3, 4, 0);
  g.add_edge(4, 2, 1);
  EXPECT_EQ(recurrence_mii(g), 3);
}

TEST(IiFeasibility, ZeroDistanceCycleThrows) {
  Graph g(2);
  g.add_edge(0, 1, 0);
  g.add_edge(1, 0, 0);
  EXPECT_THROW(recurrence_mii(g), AssertionError);
}

TEST(IiFeasibility, CrossValidatedAgainstCycleEnumeration) {
  // Random-ish structured graph: RecII from Bellman-Ford must equal the max
  // ceil(len/dist) over all elementary cycles.
  Graph g(6);
  g.add_edge(0, 1, 0);
  g.add_edge(1, 2, 0);
  g.add_edge(2, 3, 0);
  g.add_edge(3, 0, 2);
  g.add_edge(2, 4, 0);
  g.add_edge(4, 5, 0);
  g.add_edge(5, 2, 1);
  g.add_edge(1, 1, 1);
  const auto cycles = elementary_cycles(g);
  int expected = 1;
  for (const auto& cyc : cycles) {
    int dist = 0;
    // Sum distances along the cycle's edges.
    for (std::size_t i = 0; i < cyc.size(); ++i) {
      const NodeId a = cyc[i];
      const NodeId b = cyc[(i + 1) % cyc.size()];
      int best = 1 << 20;
      for (const EdgeId e : g.out_edges(a)) {
        if (g.edge(e).dst == b) best = std::min(best, g.edge(e).attr);
      }
      dist += best;
    }
    ASSERT_GT(dist, 0);
    const int len = static_cast<int>(cyc.size());
    expected = std::max(expected, (len + dist - 1) / dist);
  }
  EXPECT_EQ(recurrence_mii(g), expected);
}

TEST(UndirectedComponents, CountsIslands) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(3, 4);
  int count = 0;
  const auto comp = undirected_components(g, &count);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[2]);
}

TEST(Dot, ContainsNodesAndLoopCarriedStyling) {
  Graph g(2);
  g.add_edge(0, 1, 0);
  g.add_edge(1, 0, 1);
  const std::string dot = to_dot(g, "T");
  EXPECT_NE(dot.find("digraph T"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("color=red"), std::string::npos);
}

}  // namespace
}  // namespace monomap
