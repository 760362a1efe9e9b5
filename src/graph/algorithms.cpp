#include "graph/algorithms.hpp"

#include <algorithm>
#include <deque>

namespace monomap {

EdgePredicate all_edges() {
  return [](const Graph&, EdgeId) { return true; };
}

EdgePredicate edges_with_attr(int attr) {
  return [attr](const Graph& g, EdgeId e) { return g.edge(e).attr == attr; };
}

std::optional<std::vector<NodeId>> topological_sort(
    const Graph& g, const EdgePredicate& include) {
  const int n = g.num_nodes();
  std::vector<int> in_deg(static_cast<std::size_t>(n), 0);
  for (NodeId v = 0; v < n; ++v) {
    for (EdgeId e : g.out_edges(v)) {
      if (include(g, e)) {
        ++in_deg[static_cast<std::size_t>(g.edge(e).dst)];
      }
    }
  }
  std::deque<NodeId> ready;
  for (NodeId v = 0; v < n; ++v) {
    if (in_deg[static_cast<std::size_t>(v)] == 0) {
      ready.push_back(v);
    }
  }
  std::vector<NodeId> order;
  order.reserve(static_cast<std::size_t>(n));
  while (!ready.empty()) {
    const NodeId v = ready.front();
    ready.pop_front();
    order.push_back(v);
    for (EdgeId e : g.out_edges(v)) {
      if (!include(g, e)) continue;
      const NodeId d = g.edge(e).dst;
      if (--in_deg[static_cast<std::size_t>(d)] == 0) {
        ready.push_back(d);
      }
    }
  }
  if (static_cast<int>(order.size()) != n) {
    return std::nullopt;  // cycle in the selected subgraph
  }
  return order;
}

std::vector<int> longest_path_from_sources(const Graph& g,
                                           const EdgePredicate& include) {
  const auto order = topological_sort(g, include);
  MONOMAP_ASSERT_MSG(order.has_value(),
                     "longest_path_from_sources requires an acyclic subgraph");
  std::vector<int> dist(static_cast<std::size_t>(g.num_nodes()), 0);
  for (NodeId v : *order) {
    for (EdgeId e : g.out_edges(v)) {
      if (!include(g, e)) continue;
      const NodeId d = g.edge(e).dst;
      dist[static_cast<std::size_t>(d)] =
          std::max(dist[static_cast<std::size_t>(d)],
                   dist[static_cast<std::size_t>(v)] + 1);
    }
  }
  return dist;
}

namespace {

/// Johnson's circuit-enumeration state.
class JohnsonState {
 public:
  JohnsonState(const Graph& g, std::size_t max_cycles)
      : g_(g),
        max_cycles_(max_cycles),
        blocked_(static_cast<std::size_t>(g.num_nodes()), false),
        block_map_(static_cast<std::size_t>(g.num_nodes())) {}

  std::vector<std::vector<NodeId>> run() {
    const int n = g_.num_nodes();
    for (NodeId s = 0; s < n && cycles_.size() < max_cycles_; ++s) {
      start_ = s;
      std::fill(blocked_.begin(), blocked_.end(), false);
      for (auto& bm : block_map_) bm.clear();
      circuit(s);
    }
    return std::move(cycles_);
  }

 private:
  bool circuit(NodeId v) {
    bool found = false;
    path_.push_back(v);
    blocked_[static_cast<std::size_t>(v)] = true;
    for (EdgeId e : g_.out_edges(v)) {
      const NodeId w = g_.edge(e).dst;
      if (w < start_) continue;  // only consider nodes >= start (canonical)
      if (w == start_) {
        cycles_.push_back(path_);
        found = true;
        if (cycles_.size() >= max_cycles_) break;
      } else if (!blocked_[static_cast<std::size_t>(w)]) {
        if (circuit(w)) {
          found = true;
        }
        if (cycles_.size() >= max_cycles_) break;
      }
    }
    if (found) {
      unblock(v);
    } else {
      for (EdgeId e : g_.out_edges(v)) {
        const NodeId w = g_.edge(e).dst;
        if (w < start_) continue;
        auto& bm = block_map_[static_cast<std::size_t>(w)];
        if (std::find(bm.begin(), bm.end(), v) == bm.end()) {
          bm.push_back(v);
        }
      }
    }
    path_.pop_back();
    return found;
  }

  void unblock(NodeId v) {
    blocked_[static_cast<std::size_t>(v)] = false;
    auto& bm = block_map_[static_cast<std::size_t>(v)];
    while (!bm.empty()) {
      const NodeId w = bm.back();
      bm.pop_back();
      if (blocked_[static_cast<std::size_t>(w)]) {
        unblock(w);
      }
    }
  }

  const Graph& g_;
  std::size_t max_cycles_;
  NodeId start_ = 0;
  std::vector<bool> blocked_;
  std::vector<std::vector<NodeId>> block_map_;
  std::vector<NodeId> path_;
  std::vector<std::vector<NodeId>> cycles_;
};

}  // namespace

std::vector<std::vector<NodeId>> elementary_cycles(const Graph& g,
                                                   std::size_t max_cycles) {
  return JohnsonState(g, max_cycles).run();
}

bool ii_feasible(const Graph& g, int ii) {
  MONOMAP_ASSERT(ii >= 1);
  // Difference constraints T_dst >= T_src + (1 - ii*dist). A solution exists
  // iff there is no positive-weight cycle. Run Bellman-Ford longest-path
  // relaxation from a virtual source connected to every node with weight 0.
  const int n = g.num_nodes();
  if (n == 0) return true;
  std::vector<std::int64_t> dist(static_cast<std::size_t>(n), 0);
  for (int round = 0; round < n; ++round) {
    bool changed = false;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const Edge& edge = g.edge(e);
      const std::int64_t w =
          1 - static_cast<std::int64_t>(ii) * edge.attr;
      const std::int64_t candidate = dist[static_cast<std::size_t>(edge.src)] + w;
      if (candidate > dist[static_cast<std::size_t>(edge.dst)]) {
        dist[static_cast<std::size_t>(edge.dst)] = candidate;
        changed = true;
      }
    }
    if (!changed) return true;
  }
  return false;  // still relaxing after n rounds => positive cycle
}

int recurrence_mii(const Graph& g) {
  // A cycle with total distance d and length l forces ii >= ceil(l/d).
  // l <= num_nodes, d >= 1, so RecII <= num_nodes; linear scan is fine at
  // DFG scale and avoids corner cases of binary search on a non-monotone
  // predicate (ii_feasible *is* monotone, so the first feasible ii is it).
  for (int ii = 1; ii <= std::max(1, g.num_nodes()); ++ii) {
    if (ii_feasible(g, ii)) {
      return ii;
    }
  }
  MONOMAP_ASSERT_MSG(false, "graph has a zero-distance cycle: no feasible II");
  return -1;
}

std::vector<int> undirected_components(const Graph& g, int* count) {
  const int n = g.num_nodes();
  std::vector<int> comp(static_cast<std::size_t>(n), -1);
  int next = 0;
  std::vector<NodeId> queue;
  for (NodeId s = 0; s < n; ++s) {
    if (comp[static_cast<std::size_t>(s)] != -1) continue;
    comp[static_cast<std::size_t>(s)] = next;
    queue.assign(1, s);
    while (!queue.empty()) {
      const NodeId v = queue.back();
      queue.pop_back();
      for (const NodeId w : g.undirected_neighbors(v)) {
        if (comp[static_cast<std::size_t>(w)] == -1) {
          comp[static_cast<std::size_t>(w)] = next;
          queue.push_back(w);
        }
      }
    }
    ++next;
  }
  if (count != nullptr) *count = next;
  return comp;
}

}  // namespace monomap
