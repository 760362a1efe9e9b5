// Tests for the CGRA architecture model (paper Fig. 1).
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "arch/cgra.hpp"

namespace monomap {
namespace {

TEST(Cgra, TwoByTwoDegreeIsThree) {
  // Paper Sec. IV-B3: D_M = 3 in a 2x2 architecture.
  const CgraArch arch = CgraArch::square(2);
  EXPECT_EQ(arch.num_pes(), 4);
  EXPECT_EQ(arch.connectivity_degree(), 3);
  for (PeId pe = 0; pe < 4; ++pe) {
    EXPECT_EQ(arch.neighbors(pe).size(), 2u);
    EXPECT_EQ(arch.closed_neighbors(pe).size(), 3u);
  }
}

TEST(Cgra, ThreeByThreeAndLargerDegreeIsFive) {
  // Paper Sec. IV-B3: D_M = 5 in 3x3 and larger architectures.
  for (const int n : {3, 5, 10, 20}) {
    const CgraArch arch = CgraArch::square(n);
    EXPECT_EQ(arch.connectivity_degree(), 5) << n;
  }
}

TEST(Cgra, MeshAdjacency) {
  const CgraArch arch = CgraArch::square(3);
  const PeId center = arch.pe_at(1, 1);
  EXPECT_EQ(arch.neighbors(center).size(), 4u);
  EXPECT_TRUE(arch.adjacent(center, arch.pe_at(0, 1)));
  EXPECT_TRUE(arch.adjacent(center, arch.pe_at(2, 1)));
  EXPECT_TRUE(arch.adjacent(center, arch.pe_at(1, 0)));
  EXPECT_TRUE(arch.adjacent(center, arch.pe_at(1, 2)));
  EXPECT_FALSE(arch.adjacent(center, arch.pe_at(0, 0)));
  EXPECT_FALSE(arch.adjacent(center, center));
  EXPECT_TRUE(arch.adjacent_or_same(center, center));
}

TEST(Cgra, CornerAndEdgeDegrees) {
  const CgraArch arch = CgraArch::square(3);
  EXPECT_EQ(arch.neighbors(arch.pe_at(0, 0)).size(), 2u);  // corner
  EXPECT_EQ(arch.neighbors(arch.pe_at(0, 1)).size(), 3u);  // edge
}

TEST(Cgra, TorusWrapsAround) {
  const CgraArch arch(3, 3, Topology::kTorus);
  EXPECT_TRUE(arch.adjacent(arch.pe_at(0, 0), arch.pe_at(0, 2)));
  EXPECT_TRUE(arch.adjacent(arch.pe_at(0, 0), arch.pe_at(2, 0)));
  // Every PE of a 3x3 torus has 4 neighbours.
  for (PeId pe = 0; pe < 9; ++pe) {
    EXPECT_EQ(arch.neighbors(pe).size(), 4u);
  }
}

TEST(Cgra, DiagonalHasEightNeighbors) {
  const CgraArch arch(3, 3, Topology::kDiagonal);
  EXPECT_EQ(arch.neighbors(arch.pe_at(1, 1)).size(), 8u);
  EXPECT_EQ(arch.connectivity_degree(), 9);
}

TEST(Cgra, RectangularGrids) {
  const CgraArch arch(2, 4);
  EXPECT_EQ(arch.num_pes(), 8);
  EXPECT_EQ(arch.row_of(5), 1);
  EXPECT_EQ(arch.col_of(5), 1);
  EXPECT_EQ(arch.pe_at(1, 1), 5);
}

TEST(Cgra, OneByOneHasNoNeighbors) {
  const CgraArch arch(1, 1);
  EXPECT_TRUE(arch.neighbors(0).empty());
  EXPECT_EQ(arch.connectivity_degree(), 1);
}

TEST(Cgra, NeighborMasksMatchAdjacencyLists) {
  // The bitset masks are the space-search view of the same adjacency; they
  // must agree with the list representation on every topology, including a
  // >64-PE grid where masks span multiple words.
  for (const Topology t :
       {Topology::kMesh, Topology::kTorus, Topology::kDiagonal}) {
    for (const int side : {2, 3, 9}) {  // 9x9 = 81 PEs > one word
      const CgraArch arch(side, side, t);
      for (PeId pe = 0; pe < arch.num_pes(); ++pe) {
        const PeSet& open = arch.neighbor_mask(pe);
        const PeSet& closed = arch.closed_neighbor_mask(pe);
        EXPECT_EQ(open.capacity(), arch.num_pes());
        EXPECT_EQ(static_cast<std::size_t>(open.count()),
                  arch.neighbors(pe).size());
        EXPECT_EQ(static_cast<std::size_t>(closed.count()),
                  arch.closed_neighbors(pe).size());
        for (const PeId q : arch.neighbors(pe)) {
          EXPECT_TRUE(open.test(q)) << topology_name(t) << " " << pe;
        }
        EXPECT_FALSE(open.test(pe));
        EXPECT_TRUE(closed.test(pe));
        for (PeId q = 0; q < arch.num_pes(); ++q) {
          EXPECT_EQ(arch.adjacent(pe, q), open.test(q));
          EXPECT_EQ(arch.adjacent_or_same(pe, q), closed.test(q));
        }
      }
    }
  }
}

TEST(Cgra, Distance2MaskMeshHandComputed) {
  // 4x4 mesh, corner PE 0: N[0] = {0,1,4}; the <=2-hop ball is the union
  // of closed neighbourhoods over N[0] = {0,1,2,4,5,8}.
  const CgraArch arch = CgraArch::square(4);
  const PeSet& corner = arch.distance2_mask(0);
  const std::vector<PeId> expected_corner = {0, 1, 2, 4, 5, 8};
  EXPECT_EQ(corner.count(), static_cast<int>(expected_corner.size()));
  for (const PeId p : expected_corner) {
    EXPECT_TRUE(corner.test(p)) << p;
  }
  // 5x5 mesh, center PE 12: the radius-2 von Neumann diamond, 13 PEs.
  const CgraArch five = CgraArch::square(5);
  const PeId center = five.pe_at(2, 2);
  const PeSet& ball = five.distance2_mask(center);
  EXPECT_EQ(ball.count(), 13);
  for (PeId p = 0; p < five.num_pes(); ++p) {
    const int dist = std::abs(five.row_of(p) - 2) + std::abs(five.col_of(p) - 2);
    EXPECT_EQ(ball.test(p), dist <= 2) << p;
  }
}

TEST(Cgra, Distance2MaskTorusHandComputed) {
  // 4x4 torus, PE 0: N[0] = {0,1,3,4,12}; union of closed neighbourhoods
  // = {0,1,2,3,4,5,7,8,12,13,15} (11 PEs: the wrap links pull in both
  // ends of row 0 / column 0 and their neighbours).
  const CgraArch arch(4, 4, Topology::kTorus);
  const PeSet& ball = arch.distance2_mask(0);
  const std::vector<PeId> expected = {0, 1, 2, 3, 4, 5, 7, 8, 12, 13, 15};
  EXPECT_EQ(ball.count(), static_cast<int>(expected.size()));
  for (const PeId p : expected) {
    EXPECT_TRUE(ball.test(p)) << p;
  }
  EXPECT_FALSE(ball.test(arch.pe_at(1, 2)));   // PE 6: distance 3
  EXPECT_FALSE(ball.test(arch.pe_at(2, 2)));   // PE 10: distance 4
  // On a 3x3 torus every PE is within two hops of every other.
  const CgraArch tiny(3, 3, Topology::kTorus);
  for (PeId p = 0; p < tiny.num_pes(); ++p) {
    EXPECT_EQ(tiny.distance2_mask(p).count(), tiny.num_pes()) << p;
  }
}

TEST(Cgra, Distance2MaskContainsClosedNeighborhood) {
  for (const Topology t :
       {Topology::kMesh, Topology::kTorus, Topology::kDiagonal}) {
    const CgraArch arch(3, 4, t);
    for (PeId p = 0; p < arch.num_pes(); ++p) {
      EXPECT_TRUE(arch.closed_neighbor_mask(p).is_subset_of(
          arch.distance2_mask(p)))
          << topology_name(t) << " " << p;
      EXPECT_TRUE(arch.distance2_mask(p).test(p));
    }
  }
}

TEST(Cgra, CommonTargetMaskMeshHandComputed) {
  // 4x4 mesh, interior PE (1,1) = 5: N[5] = {1,4,5,6,9}.
  //  * k=1 reproduces the distance-2 ball exactly.
  //  * k=2 keeps 5 itself, the 4 direct neighbours (share {q, 5}) and the
  //    4 diagonal distance-2 PEs (share two "corner" PEs), but drops the
  //    straight-line distance-2 targets (midpoint only: |N[5] ∩ N[7]| =
  //    |{6}| = 1).
  //  * k=3 pins q == 5 (only N[5] shares three members with itself).
  const CgraArch arch = CgraArch::square(4);
  const PeId p = arch.pe_at(1, 1);
  EXPECT_EQ(arch.common_target_mask(p, 1), arch.distance2_mask(p));
  const PeSet k2 = arch.common_target_mask(p, 2);
  const std::vector<PeId> expected_k2 = {
      p,
      arch.pe_at(0, 1), arch.pe_at(1, 0), arch.pe_at(1, 2), arch.pe_at(2, 1),
      arch.pe_at(0, 0), arch.pe_at(0, 2), arch.pe_at(2, 0), arch.pe_at(2, 2)};
  EXPECT_EQ(k2.count(), static_cast<int>(expected_k2.size()));
  for (const PeId q : expected_k2) {
    EXPECT_TRUE(k2.test(q)) << q;
  }
  EXPECT_FALSE(k2.test(arch.pe_at(1, 3)));  // straight-line distance 2
  EXPECT_FALSE(k2.test(arch.pe_at(3, 1)));
  const PeSet k3 = arch.common_target_mask(p, 3);
  EXPECT_EQ(k3.count(), 1);
  EXPECT_TRUE(k3.test(p));
}

TEST(Cgra, CommonTargetMaskMatchesBruteForce) {
  // Defining property on every pair, all topologies: q is in the mask iff
  // the closed neighbourhoods share at least min_common members.
  for (const Topology t :
       {Topology::kMesh, Topology::kTorus, Topology::kDiagonal}) {
    const CgraArch arch(4, 5, t);
    for (PeId p = 0; p < arch.num_pes(); ++p) {
      for (int k = 1; k <= 4; ++k) {
        const PeSet mask = arch.common_target_mask(p, k);
        EXPECT_TRUE(mask.is_subset_of(arch.distance2_mask(p)));
        for (PeId q = 0; q < arch.num_pes(); ++q) {
          const int common = arch.closed_neighbor_mask(p).intersect_count(
              arch.closed_neighbor_mask(q));
          EXPECT_EQ(mask.test(q), common >= k)
              << topology_name(t) << " p=" << p << " q=" << q << " k=" << k;
        }
      }
    }
  }
}

TEST(Cgra, MinClosedDegreeMaskThresholds) {
  // 3x3 mesh closed-neighbourhood sizes: corners 3, edges 4, center 5.
  const CgraArch arch = CgraArch::square(3);
  EXPECT_EQ(arch.min_closed_degree_mask(0).count(), 9);  // need 0: all PEs
  EXPECT_EQ(arch.min_closed_degree_mask(3).count(), 9);
  EXPECT_EQ(arch.min_closed_degree_mask(4).count(), 5);  // edges + center
  EXPECT_EQ(arch.min_closed_degree_mask(5).count(), 1);
  EXPECT_TRUE(arch.min_closed_degree_mask(5).test(arch.pe_at(1, 1)));
  // Beyond the connectivity degree the mask is empty (clamped index).
  EXPECT_EQ(arch.min_closed_degree_mask(6).count(), 0);
  EXPECT_EQ(arch.min_closed_degree_mask(100).count(), 0);
  for (PeId p = 0; p < arch.num_pes(); ++p) {
    const int size = static_cast<int>(arch.closed_neighbors(p).size());
    for (int need = 0; need <= 6; ++need) {
      EXPECT_EQ(arch.min_closed_degree_mask(need).test(p), size >= need)
          << "p=" << p << " need=" << need;
    }
  }
}

TEST(Cgra, InvalidSizeThrows) {
  EXPECT_THROW(CgraArch(0, 3), AssertionError);
}

TEST(Cgra, DescriptionMentionsShape) {
  const CgraArch arch = CgraArch::square(5);
  const std::string desc = arch.description();
  EXPECT_NE(desc.find("5x5"), std::string::npos);
  EXPECT_NE(desc.find("25"), std::string::npos);
}

}  // namespace
}  // namespace monomap
