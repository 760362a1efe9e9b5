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

}  // namespace
}  // namespace monomap
