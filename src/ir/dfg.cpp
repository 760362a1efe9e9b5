#include "ir/dfg.hpp"

#include <algorithm>
#include <set>
#include <tuple>

#include "graph/algorithms.hpp"

namespace monomap {

Dfg Dfg::from_kernel(const LoopKernel& kernel) {
  kernel.validate();
  const int n = kernel.size();
  Graph g(n);
  std::vector<Opcode> ops;
  std::vector<std::string> names;
  ops.reserve(static_cast<std::size_t>(n));
  names.reserve(static_cast<std::size_t>(n));
  for (InstrId id = 0; id < n; ++id) {
    ops.push_back(kernel.instr(id).op);
    names.push_back(kernel.instr(id).name);
  }
  std::set<std::tuple<NodeId, NodeId, int>> seen;
  for (InstrId id = 0; id < n; ++id) {
    for (const OperandRef& o : kernel.instr(id).operands) {
      const auto key = std::make_tuple(o.producer, id, o.distance);
      if (seen.insert(key).second) {
        g.add_edge(o.producer, id, o.distance);
      }
    }
  }
  return Dfg(kernel.name(), std::move(g), std::move(ops), std::move(names));
}

Dfg Dfg::from_edges(std::string name, int num_nodes,
                    const std::vector<Edge>& edges) {
  Graph g(num_nodes);
  for (const Edge& e : edges) {
    g.add_edge(e.src, e.dst, e.attr);
  }
  std::vector<Opcode> ops(static_cast<std::size_t>(num_nodes), Opcode::kAdd);
  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(num_nodes));
  for (int v = 0; v < num_nodes; ++v) {
    // append, not "n" + ...: GCC 12 reports a false -Wrestrict on the latter.
    names.emplace_back("n").append(std::to_string(v));
  }
  return Dfg(std::move(name), std::move(g), std::move(ops), std::move(names));
}

Opcode Dfg::opcode(NodeId v) const {
  MONOMAP_ASSERT(graph_.has_node(v));
  return ops_[static_cast<std::size_t>(v)];
}

const std::string& Dfg::node_name(NodeId v) const {
  MONOMAP_ASSERT(graph_.has_node(v));
  return names_[static_cast<std::size_t>(v)];
}

int Dfg::max_undirected_degree() const {
  int best = 0;
  for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
    best = std::max(
        best, static_cast<int>(graph_.undirected_neighbors(v).size()));
  }
  return best;
}

bool Dfg::is_connected() const {
  if (graph_.num_nodes() == 0) return true;
  int count = 0;
  undirected_components(graph_, &count);
  return count == 1;
}

}  // namespace monomap
