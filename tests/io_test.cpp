// Tests for the text serialisation of DFGs and mappings.
#include <gtest/gtest.h>

#include "io/dfg_io.hpp"
#include "workloads/running_example.hpp"

namespace monomap {
namespace {

TEST(DfgIo, RoundTripRunningExample) {
  const Dfg original = running_example_dfg();
  const std::string text = dfg_to_text(original);
  const Dfg parsed = dfg_from_text(text);
  EXPECT_EQ(parsed.name(), original.name());
  EXPECT_EQ(parsed.num_nodes(), original.num_nodes());
  ASSERT_EQ(parsed.num_edges(), original.num_edges());
  for (EdgeId e = 0; e < original.num_edges(); ++e) {
    EXPECT_EQ(parsed.graph().edge(e).src, original.graph().edge(e).src);
    EXPECT_EQ(parsed.graph().edge(e).dst, original.graph().edge(e).dst);
    EXPECT_EQ(parsed.graph().edge(e).attr, original.graph().edge(e).attr);
  }
}

TEST(DfgIo, ParsesCommentsAndWhitespace) {
  const std::string text =
      "# a comment\n"
      "dfg tiny\n"
      "nodes 2\n"
      "  edge 0 1 0   # data dep\n"
      "edge 1 0 1\n"
      "end\n";
  const Dfg dfg = dfg_from_text(text);
  EXPECT_EQ(dfg.num_nodes(), 2);
  EXPECT_EQ(dfg.num_edges(), 2);
  EXPECT_EQ(dfg.graph().edge(1).attr, 1);
}

TEST(DfgIo, RejectsMalformedInput) {
  EXPECT_THROW(dfg_from_text(""), InputError);
  EXPECT_THROW(dfg_from_text("dfg x\nedge 0 1 0\nend\n"), InputError);
  EXPECT_THROW(dfg_from_text("dfg x\nnodes 1\nedge 0 5 0\nend\n"),
               InputError);
  EXPECT_THROW(dfg_from_text("dfg x\nnodes 1\n"), InputError);
  EXPECT_THROW(dfg_from_text("dfg x\nnodes 1\nbogus\nend\n"),
               InputError);
  EXPECT_THROW(dfg_from_text("dfg x\nnodes 1\nedge 0 0 -1\nend\n"),
               InputError);
  // A distance above the cap is refused (distance x II must fit an int);
  // the cap itself loads.
  EXPECT_THROW(dfg_from_text("dfg x\nnodes 2\nedge 0 1 0\nedge 1 0 " +
                             std::to_string(kMaxDfgTextDistance + 1) +
                             "\nend\n"),
               InputError);
  EXPECT_NO_THROW((void)dfg_from_text(
      "dfg x\nnodes 2\nedge 0 1 0\nedge 1 0 " +
      std::to_string(kMaxDfgTextDistance) + "\nend\n"));
  // Not an integer, and an integer out of int range: input errors, not a
  // std::stoi exception escaping to the caller.
  EXPECT_THROW(dfg_from_text("dfg x\nnodes 1\nedge 0 one 0\nend\n"),
               InputError);
  EXPECT_THROW(dfg_from_text("dfg x\nnodes 99999999999\nend\n"),
               InputError);
  // A node count just above the cap is refused before anything is built.
  EXPECT_THROW(dfg_from_text("dfg x\nnodes " +
                             std::to_string(kMaxDfgTextNodes + 1) +
                             "\nend\n"),
               InputError);
  EXPECT_NO_THROW((void)dfg_from_text(
      "dfg x\nnodes " + std::to_string(kMaxDfgTextNodes) + "\nend\n"));
  // So is one edge line past the edge cap; the cap itself loads. Distinct
  // distance-1 edges i -> i + k, k = 1..4, fill it exactly.
  std::string at_cap =
      "dfg x\nnodes " + std::to_string(kMaxDfgTextNodes) + "\n";
  for (int k = 1; k <= kMaxDfgTextEdges / kMaxDfgTextNodes; ++k) {
    for (int i = 0; i < kMaxDfgTextNodes; ++i) {
      at_cap += "edge " + std::to_string(i) + " " +
                std::to_string((i + k) % kMaxDfgTextNodes) + " 1\n";
    }
  }
  EXPECT_EQ(dfg_from_text(at_cap + "end\n").num_edges(), kMaxDfgTextEdges);
  EXPECT_THROW(dfg_from_text(at_cap + "edge 0 1 0\nend\n"), InputError);
  // DFGs no II can map: no nodes, and cycles of distance-0 edges (a
  // self-loop, a two-node cycle). A distance-1 cycle is a recurrence.
  EXPECT_THROW(dfg_from_text("dfg x\nnodes 0\nend\n"), InputError);
  EXPECT_THROW(dfg_from_text("dfg x\nnodes 1\nedge 0 0 0\nend\n"),
               InputError);
  EXPECT_THROW(
      dfg_from_text("dfg x\nnodes 2\nedge 0 1 0\nedge 1 0 0\nend\n"),
      InputError);
  EXPECT_NO_THROW((void)dfg_from_text(
      "dfg x\nnodes 2\nedge 0 1 0\nedge 1 0 1\nedge 1 1 1\nend\n"));
}

TEST(MappingIo, RoundTrip) {
  const Dfg dfg = Dfg::from_edges("pair", 2, {{0, 1, 0}});
  const Mapping mapping(2, {0, 1}, {0, 1});
  const std::string text = mapping_to_text(dfg, mapping);
  const Mapping parsed = mapping_from_text(text, 2);
  EXPECT_EQ(parsed.ii(), 2);
  for (NodeId v = 0; v < 2; ++v) {
    EXPECT_EQ(parsed.pe(v), mapping.pe(v));
    EXPECT_EQ(parsed.time(v), mapping.time(v));
  }
}

TEST(MappingIo, RejectsIncompleteMapping) {
  EXPECT_THROW(mapping_from_text("mapping x\nii 2\nplace 0 0 0\nend\n", 2),
               InputError);
  EXPECT_THROW(mapping_from_text("mapping x\nplace 0 0 0\nend\n", 1),
               InputError);
}

TEST(MappingIo, BoundsTheIi) {
  // validate_mapping sizes its per-slot table by II: the loader takes an II
  // up to the protocol's max_ii cap and refuses one above it before any
  // table exists.
  const Mapping at_cap =
      mapping_from_text("mapping x\nii 4096\nplace 0 0 0\nend\n", 1);
  EXPECT_EQ(at_cap.ii(), kMaxDfgTextNodes);
  EXPECT_THROW(mapping_from_text("mapping x\nii 4097\nplace 0 0 0\nend\n", 1),
               InputError);
  EXPECT_THROW(
      mapping_from_text("mapping x\nii 2147483647\nplace 0 0 0\nend\n", 1),
      InputError);
}

TEST(MappingIo, TimingTestTakesTheLargestTime) {
  // A time of INT_MAX loads, and the timing test T_d + dist*II >= T_s + 1
  // must judge it without overflowing on either side: the distance-0 edge
  // 0->1 is violated (7 < INT_MAX + 1), the distance-1 edge 1->0 holds
  // (INT_MAX + 2 >= 8).
  const Dfg dfg = Dfg::from_edges("pair", 2, {{0, 1, 0}, {1, 0, 1}});
  const CgraArch arch = CgraArch::square(2);
  const Mapping mapping = mapping_from_text(
      "mapping x\nii 2\nplace 0 0 2147483647\nplace 1 1 7\nend\n", 2);
  const auto violations = validate_mapping(dfg, arch, mapping);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].what.find("edge 0->1"), std::string::npos)
      << violations[0].what;
  EXPECT_NE(violations[0].what.find("violates timing"), std::string::npos)
      << violations[0].what;
}

}  // namespace
}  // namespace monomap
