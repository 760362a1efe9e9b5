// Graph algorithms used by the scheduling front end and the mappers.
#ifndef MONOMAP_GRAPH_ALGORITHMS_HPP
#define MONOMAP_GRAPH_ALGORITHMS_HPP

#include <functional>
#include <optional>
#include <vector>

#include "graph/graph.hpp"

namespace monomap {

/// Predicate selecting which edges an algorithm traverses. The scheduling
/// front end uses it to restrict to intra-iteration (distance 0) edges.
using EdgePredicate = std::function<bool(const Graph&, EdgeId)>;

/// Predicate accepting every edge.
EdgePredicate all_edges();

/// Predicate accepting edges whose attribute equals `attr` (DFG: distance 0
/// edges form the acyclic intra-iteration dependence DAG).
EdgePredicate edges_with_attr(int attr);

/// Kahn topological order over the selected edges. Returns std::nullopt if
/// the selected subgraph has a cycle.
std::optional<std::vector<NodeId>> topological_sort(
    const Graph& g, const EdgePredicate& include = all_edges());

/// Longest path length (in edges) from any source, over selected edges,
/// which must form a DAG. Result[v] = length of the longest selected path
/// ending at v. Throws AssertionError if the selected subgraph is cyclic.
std::vector<int> longest_path_from_sources(const Graph& g,
                                           const EdgePredicate& include);

/// All elementary cycles (Johnson's algorithm), as node sequences. Intended
/// for DFG-sized graphs; enumeration stops after `max_cycles`.
std::vector<std::vector<NodeId>> elementary_cycles(const Graph& g,
                                                   std::size_t max_cycles = 100000);

/// True iff the difference-constraint system {T_dst - T_src >= 1 - ii*attr(e)}
/// derived from the graph's edges admits a solution, i.e. no positive-weight
/// cycle exists (Bellman-Ford). This is exactly "ii >= RecII".
bool ii_feasible(const Graph& g, int ii);

/// Smallest ii such that ii_feasible(g, ii); 1 for acyclic graphs.
/// This is the paper's RecII (max over cycles of ceil(length/distance)).
int recurrence_mii(const Graph& g);

/// Undirected connected components: one id per node plus component count.
std::vector<int> undirected_components(const Graph& g, int* count = nullptr);

}  // namespace monomap

#endif  // MONOMAP_GRAPH_ALGORITHMS_HPP
