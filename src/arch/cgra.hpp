// CGRA architecture model (paper Fig. 1).
//
// A rectangular grid of PEs; every PE has an ALU, a register file that
// neighbouring PEs can read (the paper's target architecture, Sec. V), and a
// port to the shared data memory. The interconnect topology is configurable;
// the paper evaluates the 2D near-neighbour mesh.
#ifndef MONOMAP_ARCH_CGRA_HPP
#define MONOMAP_ARCH_CGRA_HPP

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "support/assert.hpp"
#include "support/pe_set.hpp"

namespace monomap {

using PeId = std::int32_t;

/// Interconnect topology of the grid.
enum class Topology {
  kMesh,      // 4-neighbour von-Neumann mesh (the paper's architecture)
  kTorus,     // 4-neighbour with wrap-around links
  kDiagonal,  // 8-neighbour king mesh
};

const char* topology_name(Topology t);

/// A rows x cols CGRA. PEs are numbered row-major: pe = row * cols + col.
class CgraArch {
 public:
  CgraArch(int rows, int cols, Topology topology = Topology::kMesh);

  /// Square mesh shorthand: n x n, as in the paper's "2x2 .. 20x20".
  static CgraArch square(int n, Topology topology = Topology::kMesh) {
    return CgraArch(n, n, topology);
  }

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] int num_pes() const { return rows_ * cols_; }
  [[nodiscard]] Topology topology() const { return topology_; }

  [[nodiscard]] bool has_pe(PeId pe) const {
    return pe >= 0 && pe < num_pes();
  }
  [[nodiscard]] int row_of(PeId pe) const { return pe / cols_; }
  [[nodiscard]] int col_of(PeId pe) const { return pe % cols_; }
  [[nodiscard]] PeId pe_at(int row, int col) const {
    MONOMAP_ASSERT(row >= 0 && row < rows_ && col >= 0 && col < cols_);
    return row * cols_ + col;
  }

  /// Mesh neighbours of `pe`, excluding `pe` itself.
  [[nodiscard]] const std::vector<PeId>& neighbors(PeId pe) const {
    MONOMAP_ASSERT(has_pe(pe));
    return neighbors_[static_cast<std::size_t>(pe)];
  }

  /// Neighbours plus the PE itself ("closed neighbourhood"): the set of PEs
  /// whose register files `pe` can read (own RF + neighbour RFs).
  [[nodiscard]] const std::vector<PeId>& closed_neighbors(PeId pe) const {
    MONOMAP_ASSERT(has_pe(pe));
    return closed_neighbors_[static_cast<std::size_t>(pe)];
  }

  /// Bitset view of neighbors(pe) (capacity == num_pes). The space search
  /// intersects these masks to filter whole candidate domains per operation
  /// instead of probing adjacency per PE pair.
  [[nodiscard]] const PeSet& neighbor_mask(PeId pe) const {
    MONOMAP_ASSERT(has_pe(pe));
    return neighbor_masks_[static_cast<std::size_t>(pe)];
  }

  /// Bitset view of closed_neighbors(pe).
  [[nodiscard]] const PeSet& closed_neighbor_mask(PeId pe) const {
    MONOMAP_ASSERT(has_pe(pe));
    return closed_neighbor_masks_[static_cast<std::size_t>(pe)];
  }

  /// PEs within grid distance <= 2 of `pe` (the union of closed
  /// neighbourhoods over N[pe], so it includes `pe` itself). Supplemental
  /// paths-of-length-2 filtering in the space search intersects these masks
  /// into the domains of DFG nodes two hops from a placed node: if u-w-v is
  /// a DFG path, phi(v) must lie within two grid hops of phi(u).
  [[nodiscard]] const PeSet& distance2_mask(PeId pe) const {
    MONOMAP_ASSERT(has_pe(pe));
    return distance2_masks_[static_cast<std::size_t>(pe)];
  }

  /// PEs q whose closed neighbourhood shares at least `min_common` members
  /// with N[pe] — the multiplicity-aware sharpening of distance2_mask: if k
  /// DFG nodes (same slot label) are each adjacent to both of two nodes a
  /// and b, they need k *distinct* PEs inside N[phi(a)] ∩ N[phi(b)], so
  /// phi(b) ∈ common_target_mask(phi(a), k). min_common == 1 reproduces
  /// distance2_mask exactly; on a 4-neighbour mesh min_common == 2 already
  /// drops the straight-line distance-2 targets (midpoint only, |∩| = 1)
  /// and min_common == 3 pins q == pe. Computed on demand (callers cache —
  /// the space searcher builds per-k tables only for the multiplicities its
  /// DFG actually contains).
  [[nodiscard]] PeSet common_target_mask(PeId pe, int min_common) const;

  /// All common_target_mask(p, min_common) rows of one level, built on
  /// first request and memoised for the architecture's lifetime. Searchers
  /// ask for the same one or two levels on every construction, and the
  /// per-PE ball probes are the dominant cost of building a searcher on a
  /// 64x64 fabric — the memo turns that into a one-time charge per arch.
  /// Thread-safe; the reference stays valid as long as the arch does.
  [[nodiscard]] const std::vector<PeSet>& common_target_masks(
      int min_common) const;

  /// PEs sorted by descending closed-neighbourhood size (stable, so
  /// row-major id order breaks ties): the space searchers' interior-first
  /// global value order. Memoised like common_target_masks — the
  /// stable_sort over num_pes is measurable per-searcher construction on a
  /// 64x64 fabric, and the order is a pure function of the architecture.
  [[nodiscard]] const std::vector<PeId>& interior_first_order() const;

  /// Inverse permutation of interior_first_order(): rank[pe] = position.
  /// The searchers order candidate lists by rank lookups.
  [[nodiscard]] const std::vector<int>& interior_first_rank() const;

  /// PEs whose closed neighbourhood holds at least `need` members. The
  /// space search intersects candidate domains with this instead of probing
  /// closed_neighbors(p).size() per PE (the root degree filter). `need`
  /// beyond connectivity_degree() yields the empty set.
  [[nodiscard]] const PeSet& min_closed_degree_mask(int need) const {
    MONOMAP_ASSERT(need >= 0);
    const int idx = std::min(need, degree_ + 1);
    return min_degree_masks_[static_cast<std::size_t>(idx)];
  }

  [[nodiscard]] bool adjacent(PeId a, PeId b) const {
    MONOMAP_ASSERT(has_pe(a) && has_pe(b));
    return neighbor_masks_[static_cast<std::size_t>(a)].test(b);
  }

  /// adjacent(a,b) || a == b.
  [[nodiscard]] bool adjacent_or_same(PeId a, PeId b) const {
    MONOMAP_ASSERT(has_pe(a) && has_pe(b));
    return closed_neighbor_masks_[static_cast<std::size_t>(a)].test(b);
  }

  /// The paper's connectivity degree D_M: the maximum closed-neighbourhood
  /// size over all PEs (3 on a 2x2 mesh, 5 on 3x3-and-larger meshes).
  [[nodiscard]] int connectivity_degree() const { return degree_; }

  /// Grid hop distance between two PEs under this topology: Manhattan on
  /// the mesh, wrap-aware Manhattan on the torus, Chebyshev on the
  /// 8-neighbour king mesh. Pure coordinate arithmetic — the space
  /// searcher's sparse value ordering calls it inside a sort comparator.
  [[nodiscard]] int grid_distance(PeId a, PeId b) const {
    MONOMAP_ASSERT(has_pe(a) && has_pe(b));
    int dr = row_of(a) - row_of(b);
    int dc = col_of(a) - col_of(b);
    dr = dr < 0 ? -dr : dr;
    dc = dc < 0 ? -dc : dc;
    if (topology_ == Topology::kTorus) {
      dr = std::min(dr, rows_ - dr);
      dc = std::min(dc, cols_ - dc);
    }
    return topology_ == Topology::kDiagonal ? std::max(dr, dc) : dr + dc;
  }

  /// Largest distance-2 ball size (|distance2_mask(pe)|) over all PEs: the
  /// interior-PE capacity (13 on a big enough plain mesh). Workload
  /// generators size satisfiable instances against it — any same-label
  /// cluster a DFG forces into one ball must fit the interior capacity to
  /// be placeable everywhere.
  [[nodiscard]] int distance2_ball_max() const { return d2_ball_max_; }

  [[nodiscard]] std::string description() const;

 private:
  int rows_;
  int cols_;
  Topology topology_;
  int degree_ = 0;
  int d2_ball_max_ = 0;
  std::vector<std::vector<PeId>> neighbors_;
  std::vector<std::vector<PeId>> closed_neighbors_;
  std::vector<PeSet> neighbor_masks_;
  std::vector<PeSet> closed_neighbor_masks_;
  std::vector<PeSet> distance2_masks_;
  std::vector<PeSet> min_degree_masks_;  // indexed by `need`, 0..degree_+1
  // common_target_masks memo (arch is shared across threads; the lock is
  // per-call but the call is once per searcher construction).
  mutable std::mutex common_target_mutex_;
  mutable std::map<int, std::vector<PeSet>> common_target_cache_;
  mutable std::vector<PeId> interior_order_;  // same lock; empty = unbuilt
  mutable std::vector<int> interior_rank_;
};

}  // namespace monomap

#endif  // MONOMAP_ARCH_CGRA_HPP
