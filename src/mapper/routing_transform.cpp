#include "mapper/routing_transform.hpp"

#include <algorithm>
#include <string>

#include "graph/algorithms.hpp"
#include "support/log.hpp"

namespace monomap {

RoutedDfg insert_route_nodes(const Dfg& dfg, int max_span) {
  MONOMAP_ASSERT(max_span >= 1);
  const Graph& g = dfg.graph();
  const auto asap = longest_path_from_sources(g, edges_with_attr(0));

  // Rebuild the edge list, splitting long distance-0 edges.
  std::vector<Edge> edges;
  std::vector<std::pair<NodeId, NodeId>> routes;
  int next_node = dfg.num_nodes();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    if (edge.attr != 0 || edge.src == edge.dst) {
      edges.push_back(edge);
      continue;
    }
    const int gap = asap[static_cast<std::size_t>(edge.dst)] -
                    asap[static_cast<std::size_t>(edge.src)];
    const int hops = std::max(1, (gap + max_span - 1) / max_span);
    if (hops <= 1) {
      edges.push_back(edge);
      continue;
    }
    // s -> r1 -> ... -> r_{hops-1} -> d, all distance 0.
    NodeId prev = edge.src;
    for (int h = 1; h < hops; ++h) {
      const NodeId r = next_node++;
      routes.emplace_back(edge.src, edge.dst);
      edges.push_back(Edge{prev, r, 0});
      prev = r;
    }
    edges.push_back(Edge{prev, edge.dst, 0});
  }

  RoutedDfg result{
      Dfg::from_edges(dfg.name() + "+routes", next_node, edges),
      dfg.num_nodes(), std::move(routes)};
  return result;
}

MapResult map_with_routing(const Dfg& dfg, const CgraArch& arch,
                           DecoupledMapperOptions options, RoutedDfg* routed) {
  MONOMAP_ASSERT(routed != nullptr);
  options.space.model = MrrgModel::kConsecutiveOnly;
  // Placement under the restricted model is a snake-embedding problem: the
  // routed DFG is dominated by unit-slot chains that must wind through the
  // mesh. Give the (complete) space search a much larger effort budget and
  // fewer alternative schedules per II — alternatives rarely change the
  // chain structure.
  if (options.space.max_backtracks != 0 &&
      options.space.max_backtracks < 20'000'000) {
    options.space.max_backtracks = 20'000'000;
  }
  options.max_space_retries_per_ii =
      std::min(options.max_space_retries_per_ii, 3);
  // Recurrence cycles pin the II almost exactly under consecutive-slot
  // routing (the cycle's slot spans must all be 0/1), so escalating far
  // past mII only burns the budget.
  auto capped = [&](const Dfg& d) {
    DecoupledMapperOptions opt = options;
    if (opt.max_ii <= 0) {
      opt.max_ii = compute_mii(d, arch).mii() + 6;
    }
    return opt;
  };

  // Round 0: the DFG may already be mappable without routing.
  RoutedDfg current{dfg, dfg.num_nodes(), {}};
  MapResult result = DecoupledMapper(capped(current.dfg)).map(current.dfg, arch);
  if (result.success || result.timed_out) {
    *routed = std::move(current);
    return result;
  }
  // Round 1: unit-span routing of long intra-iteration dependences.
  MONOMAP_INFO("restricted mapping of '" << dfg.name()
                                         << "' needs route nodes");
  current = insert_route_nodes(dfg, 1);
  result = DecoupledMapper(capped(current.dfg)).map(current.dfg, arch);
  *routed = std::move(current);
  return result;
}

}  // namespace monomap
