#include "mapper/fingerprint.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <utility>

namespace monomap {
namespace {

constexpr std::uint64_t kSeedA = 0x6d6f6e6f6d61702bULL;  // "monomap+"
constexpr std::uint64_t kSeedB = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kIndividualize = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kDefaultBudget = 4'000'000;

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return mix64(h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}

/// Budgeted individualisation-refinement canonical search. Every quantity
/// that steers it (colours, cell choice, budget spend) is a function of the
/// graph's structure only, so isomorphic copies take identical paths —
/// including the abort path.
///
/// The search allocates only while it warms up: the adjacency is flattened
/// once, with each edge's (role, distance) seed folded up front, and the
/// round, cell and per-depth colouring buffers are reused across refinement
/// rounds and tree nodes.
class CanonSearch {
 public:
  CanonSearch(const Dfg& dfg, std::uint64_t budget)
      : dfg_(dfg), n_(dfg.num_nodes()), budget_(budget) {
    const Graph& g = dfg.graph();
    arc_begin_.reserve(static_cast<std::size_t>(n_) + 1);
    out_begin_.reserve(static_cast<std::size_t>(n_) + 1);
    arcs_.reserve(2 * static_cast<std::size_t>(dfg.num_edges()));
    outs_.reserve(static_cast<std::size_t>(dfg.num_edges()));
    for (NodeId v = 0; v < n_; ++v) {
      arc_begin_.push_back(arcs_.size());
      out_begin_.push_back(outs_.size());
      for (EdgeId e : g.out_edges(v)) {
        const Edge& edge = g.edge(e);
        arcs_.push_back({fold(0x0f0f0f0f0f0f0f0fULL,
                              static_cast<std::uint64_t>(edge.attr) + 1),
                         edge.dst});
        outs_.push_back({edge.dst, edge.attr});
      }
      for (EdgeId e : g.in_edges(v)) {
        const Edge& edge = g.edge(e);
        arcs_.push_back({fold(0xf0f0f0f0f0f0f0f0ULL,
                              static_cast<std::uint64_t>(edge.attr) + 1),
                         edge.src});
      }
    }
    arc_begin_.push_back(arcs_.size());
    out_begin_.push_back(outs_.size());
    next_.resize(static_cast<std::size_t>(n_));
    sorted_.resize(static_cast<std::size_t>(n_));
    prev_rep_.resize(static_cast<std::size_t>(n_));
    rep_.resize(static_cast<std::size_t>(n_));
    perm_.resize(static_cast<std::size_t>(n_));
  }

  bool exhausted() const { return exhausted_; }
  bool have_best() const { return have_best_; }
  const std::array<std::uint64_t, 2>& best_sig() const { return best_sig_; }
  std::vector<NodeId> take_best_perm() { return std::move(best_perm_); }

  /// Refine `color` to a fixpoint of WL splitting. Returns false when the
  /// budget ran out (exhausted_ is then latched). On success sorted_ holds
  /// the (colour, node) pairs of the fixpoint in ascending order.
  bool refine(std::vector<std::uint64_t>& color) {
    cell_reps(color, prev_rep_);
    for (;;) {
      if (!spend(static_cast<std::uint64_t>(n_))) {
        return false;
      }
      for (NodeId v = 0; v < n_; ++v) {
        parts_.clear();
        for (std::size_t i = arc_begin_[static_cast<std::size_t>(v)];
             i < arc_begin_[static_cast<std::size_t>(v) + 1]; ++i) {
          parts_.push_back(fold(
              arcs_[i].seed, color[static_cast<std::size_t>(arcs_[i].nbr)]));
        }
        std::sort(parts_.begin(), parts_.end());
        std::uint64_t h = color[static_cast<std::size_t>(v)];
        for (std::uint64_t p : parts_) {
          h = fold(h, p);
        }
        next_[static_cast<std::size_t>(v)] = h;
      }
      color.swap(next_);
      cell_reps(color, rep_);
      if (rep_ == prev_rep_) {
        return true;  // partition stable: refinement is at its fixpoint
      }
      prev_rep_.swap(rep_);
    }
  }

  /// Run the tree search from `root` (a copy is refined, never `root`).
  void search(const std::vector<std::uint64_t>& root) {
    levels_.resize(1);
    levels_[0] = root;
    search_at(0);
  }

 private:
  /// A WL arc of a node: `seed` folds the edge's direction role and
  /// distance; the neighbour's colour is folded in every round.
  struct Arc {
    std::uint64_t seed;
    NodeId nbr;
  };

  /// The search node at `depth` owns levels_[depth]; its children are
  /// built one at a time in levels_[depth + 1].
  void search_at(std::size_t depth) {
    if (exhausted_) {
      return;
    }
    if (!refine(levels_[depth])) {
      return;
    }
    // Pick the target cell: smallest non-singleton cell, ties broken by
    // smallest colour value. Colour values are equal on corresponding
    // nodes of isomorphic copies, so the choice is iso-invariant.
    std::uint64_t target = 0;
    int target_size = n_ + 1;
    for (std::size_t i = 0; i < sorted_.size();) {
      std::size_t j = i + 1;
      while (j < sorted_.size() && sorted_[j].first == sorted_[i].first) ++j;
      const int k = static_cast<int>(j - i);
      if (k > 1 && k < target_size) {
        target = sorted_[i].first;
        target_size = k;
      }
      i = j;
    }
    if (target_size > n_) {
      leaf();
      return;
    }
    if (levels_.size() == depth + 1) {
      levels_.emplace_back();
    }
    // Index levels_ afresh after each child: a deeper child may grow it.
    for (NodeId v = 0; v < n_ && !exhausted_; ++v) {
      if (levels_[depth][static_cast<std::size_t>(v)] != target) {
        continue;
      }
      std::vector<std::uint64_t>& child = levels_[depth + 1];
      child = levels_[depth];
      child[static_cast<std::size_t>(v)] =
          mix64(child[static_cast<std::size_t>(v)] ^ kIndividualize);
      search_at(depth + 1);
    }
  }

  bool spend(std::uint64_t steps) {
    if (exhausted_ || budget_ < steps) {
      exhausted_ = true;
      return false;
    }
    budget_ -= steps;
    return true;
  }

  /// rep[v] = the smallest node sharing v's colour — equal vectors iff the
  /// two colourings induce the same partition (value-independent, so the
  /// refinement fixpoint test ignores the hash churn per round). Leaves
  /// the colouring's (colour, node) pairs sorted in sorted_.
  void cell_reps(const std::vector<std::uint64_t>& color,
                 std::vector<NodeId>& rep) {
    for (NodeId v = 0; v < n_; ++v) {
      sorted_[static_cast<std::size_t>(v)] = {
          color[static_cast<std::size_t>(v)], v};
    }
    std::sort(sorted_.begin(), sorted_.end());
    for (std::size_t i = 0; i < sorted_.size(); ++i) {
      const bool opens = i == 0 || sorted_[i].first != sorted_[i - 1].first;
      rep[static_cast<std::size_t>(sorted_[i].second)] =
          opens ? sorted_[i].second
                : rep[static_cast<std::size_t>(sorted_[i - 1].second)];
    }
  }

  /// Discrete colouring (the one refine() left in sorted_, where every
  /// colour is distinct, so sorted_ is the node order): hash the induced
  /// canonical form, keep the minimum.
  void leaf() {
    if (!spend(static_cast<std::uint64_t>(n_))) {
      return;
    }
    for (int pos = 0; pos < n_; ++pos) {
      perm_[static_cast<std::size_t>(
          sorted_[static_cast<std::size_t>(pos)].second)] = pos;
    }
    std::array<std::uint64_t, 2> sig{kSeedA, kSeedB};
    auto fold2 = [&sig](std::uint64_t v) {
      sig[0] = fold(sig[0], v);
      sig[1] = fold(sig[1], mix64(v ^ 0xabcdef0123456789ULL));
    };
    fold2(static_cast<std::uint64_t>(n_));
    fold2(static_cast<std::uint64_t>(dfg_.num_edges()));
    for (int pos = 0; pos < n_; ++pos) {
      const NodeId v = sorted_[static_cast<std::size_t>(pos)].second;
      fold2(static_cast<std::uint64_t>(dfg_.opcode(v)));
      leaf_outs_.clear();
      for (std::size_t i = out_begin_[static_cast<std::size_t>(v)];
           i < out_begin_[static_cast<std::size_t>(v) + 1]; ++i) {
        leaf_outs_.emplace_back(perm_[static_cast<std::size_t>(outs_[i].first)],
                                outs_[i].second);
      }
      std::sort(leaf_outs_.begin(), leaf_outs_.end());
      fold2(0x5e5e5e5e'00000000ULL + leaf_outs_.size());
      for (const auto& [dst, attr] : leaf_outs_) {
        fold2((static_cast<std::uint64_t>(dst) << 20) ^
              static_cast<std::uint64_t>(attr));
      }
    }
    if (!have_best_ || sig < best_sig_) {
      have_best_ = true;
      best_sig_ = sig;
      best_perm_ = perm_;
    }
  }

  const Dfg& dfg_;
  const int n_;
  std::uint64_t budget_;
  bool exhausted_ = false;
  bool have_best_ = false;
  std::array<std::uint64_t, 2> best_sig_{};
  std::vector<NodeId> best_perm_;

  // Flat adjacency: node v's WL arcs (out-edges, then in-edges, in the
  // graph's edge order) are arcs_[arc_begin_[v], arc_begin_[v + 1]); its
  // out-edges as (dst, distance) are outs_[out_begin_[v], out_begin_[v + 1]).
  std::vector<std::size_t> arc_begin_;
  std::vector<Arc> arcs_;
  std::vector<std::size_t> out_begin_;
  std::vector<std::pair<NodeId, int>> outs_;

  // Work buffers, reused across rounds and tree nodes.
  std::vector<std::uint64_t> next_;
  std::vector<std::uint64_t> parts_;
  std::vector<std::pair<std::uint64_t, NodeId>> sorted_;
  std::vector<NodeId> prev_rep_;
  std::vector<NodeId> rep_;
  std::vector<NodeId> perm_;
  std::vector<std::pair<int, int>> leaf_outs_;
  std::vector<std::vector<std::uint64_t>> levels_;  // colouring per depth
};

std::vector<std::uint64_t> initial_colors(const Dfg& dfg) {
  std::vector<std::uint64_t> color(
      static_cast<std::size_t>(dfg.num_nodes()));
  for (NodeId v = 0; v < dfg.num_nodes(); ++v) {
    color[static_cast<std::size_t>(v)] =
        mix64(0x1234'5678'9abc'def0ULL ^
              static_cast<std::uint64_t>(dfg.opcode(v)));
  }
  return color;
}

}  // namespace

DfgFingerprint fingerprint_dfg(const Dfg& dfg, std::uint64_t budget) {
  if (budget == 0) {
    budget = kDefaultBudget;
  }
  const int n = dfg.num_nodes();
  DfgFingerprint fp;

  // Exact (node-id-sensitive) hash: opcodes in id order + sorted edge list.
  {
    std::uint64_t h = fold(kSeedA, static_cast<std::uint64_t>(n));
    for (NodeId v = 0; v < n; ++v) {
      h = fold(h, static_cast<std::uint64_t>(dfg.opcode(v)));
    }
    std::vector<std::array<int, 3>> edges;
    edges.reserve(static_cast<std::size_t>(dfg.num_edges()));
    for (EdgeId e = 0; e < dfg.num_edges(); ++e) {
      const Edge& edge = dfg.graph().edge(e);
      edges.push_back({edge.src, edge.dst, edge.attr});
    }
    std::sort(edges.begin(), edges.end());
    for (const auto& edge : edges) {
      h = fold(fold(fold(h, static_cast<std::uint64_t>(edge[0])),
                    static_cast<std::uint64_t>(edge[1])),
               static_cast<std::uint64_t>(edge[2]) + 1);
    }
    fp.exact = h;
  }

  CanonSearch canon(dfg, budget);
  std::vector<std::uint64_t> color = initial_colors(dfg);

  // The stable WL colouring doubles as the fallback iso-hash source, so
  // compute it once up front; search() re-refines no-op-fast from here.
  std::vector<std::uint64_t> stable = color;
  const bool refined = canon.refine(stable);
  if (refined) {
    canon.search(stable);
  }
  if (!canon.exhausted() && canon.have_best()) {
    fp.canonical = true;
    fp.iso_hi = canon.best_sig()[0];
    fp.iso_lo = canon.best_sig()[1];
    fp.canon = canon.take_best_perm();
    return fp;
  }

  // Budget blown: fall back to the WL colour-multiset hash of the deepest
  // refinement we completed (the initial colouring when even round one was
  // over budget). Still iso-invariant; no transfer permutation.
  const std::vector<std::uint64_t>& base = refined ? stable : color;
  std::vector<std::uint64_t> sorted = base;
  std::sort(sorted.begin(), sorted.end());
  std::uint64_t hi = fold(kSeedA, static_cast<std::uint64_t>(n));
  std::uint64_t lo = fold(kSeedB, static_cast<std::uint64_t>(dfg.num_edges()));
  for (std::uint64_t c : sorted) {
    hi = fold(hi, c);
    lo = fold(lo, mix64(c ^ 0xabcdef0123456789ULL));
  }
  fp.canonical = false;
  fp.iso_hi = hi;
  fp.iso_lo = lo;
  return fp;
}

std::uint64_t fingerprint_arch(const CgraArch& arch) {
  std::uint64_t h = fold(kSeedB, static_cast<std::uint64_t>(arch.rows()));
  h = fold(h, static_cast<std::uint64_t>(arch.cols()));
  h = fold(h, static_cast<std::uint64_t>(arch.topology()));
  return h;
}

}  // namespace monomap
