// Canonical DFG fingerprinting: isomorphism invariance, perturbation
// sensitivity, collision sanity over the benchmark suite, and a pinned
// digest of the whole output on a seeded corpus.
#include "mapper/fingerprint.hpp"

#include <algorithm>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "arch/cgra.hpp"
#include "io/dfg_io.hpp"
#include "support/rng.hpp"
#include "workloads/suite.hpp"
#include "workloads/synthetic.hpp"

namespace monomap {
namespace {

/// Relabel `dfg` through `perm` (old id -> new id). Opcodes collapse to
/// the from_edges default, so compare against a same-route copy of the
/// original, never against a fingerprint of the opcode-carrying source.
Dfg permuted_copy(const Dfg& dfg, const std::vector<NodeId>& perm) {
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(dfg.num_edges()));
  for (EdgeId e = 0; e < dfg.num_edges(); ++e) {
    const Edge& edge = dfg.graph().edge(e);
    edges.push_back(Edge{perm[static_cast<std::size_t>(edge.src)],
                         perm[static_cast<std::size_t>(edge.dst)],
                         edge.attr});
  }
  return Dfg::from_edges("perm", dfg.num_nodes(), edges);
}

Dfg structural_copy(const Dfg& dfg) {
  std::vector<NodeId> identity(static_cast<std::size_t>(dfg.num_nodes()));
  for (std::size_t v = 0; v < identity.size(); ++v) {
    identity[v] = static_cast<NodeId>(v);
  }
  return permuted_copy(dfg, identity);
}

std::vector<NodeId> reversed_perm(int n) {
  std::vector<NodeId> perm(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    perm[static_cast<std::size_t>(v)] = static_cast<NodeId>(n - 1 - v);
  }
  return perm;
}

std::vector<NodeId> shuffled_perm(int n, unsigned seed) {
  std::vector<NodeId> perm(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) perm[static_cast<std::size_t>(v)] = v;
  std::mt19937 rng(seed);
  std::shuffle(perm.begin(), perm.end(), rng);
  return perm;
}

TEST(FingerprintTest, IdenticalGraphsHashEqual) {
  for (const Benchmark& bench : benchmark_suite()) {
    const DfgFingerprint a = fingerprint_dfg(bench.dfg);
    const DfgFingerprint b = fingerprint_dfg(bench.dfg);
    EXPECT_EQ(a.iso_hi, b.iso_hi) << bench.name;
    EXPECT_EQ(a.iso_lo, b.iso_lo) << bench.name;
    EXPECT_EQ(a.exact, b.exact) << bench.name;
    EXPECT_EQ(a.canonical, b.canonical) << bench.name;
  }
}

TEST(FingerprintTest, IsomorphicRelabelingsHashEqual) {
  for (const Benchmark& bench : benchmark_suite()) {
    const Dfg base = structural_copy(bench.dfg);
    const DfgFingerprint fp = fingerprint_dfg(base);
    const int n = base.num_nodes();
    const std::vector<std::vector<NodeId>> perms = {
        reversed_perm(n), shuffled_perm(n, 1), shuffled_perm(n, 2),
        shuffled_perm(n, 3)};
    for (const auto& perm : perms) {
      const Dfg relabeled = permuted_copy(base, perm);
      const DfgFingerprint fp2 = fingerprint_dfg(relabeled);
      EXPECT_EQ(fp.iso_hi, fp2.iso_hi) << bench.name;
      EXPECT_EQ(fp.iso_lo, fp2.iso_lo) << bench.name;
      EXPECT_EQ(fp.canonical, fp2.canonical) << bench.name;
    }
  }
}

TEST(FingerprintTest, TextRoundTripPreservesFingerprint) {
  for (const Benchmark& bench : benchmark_suite()) {
    // dfg_to_text drops opcodes, so compare against the structural copy
    // (the graph that round-trips), not the opcode-carrying original.
    const Dfg base = structural_copy(bench.dfg);
    const Dfg reloaded = dfg_from_text(dfg_to_text(bench.dfg));
    const DfgFingerprint a = fingerprint_dfg(base);
    const DfgFingerprint b = fingerprint_dfg(reloaded);
    EXPECT_EQ(a.iso_hi, b.iso_hi) << bench.name;
    EXPECT_EQ(a.iso_lo, b.iso_lo) << bench.name;
  }
}

TEST(FingerprintTest, PerturbationChangesFingerprint) {
  for (const Benchmark& bench : benchmark_suite()) {
    const Dfg base = structural_copy(bench.dfg);
    const DfgFingerprint fp = fingerprint_dfg(base);

    // Drop the last edge.
    {
      std::vector<Edge> edges;
      for (EdgeId e = 0; e + 1 < base.num_edges(); ++e) {
        edges.push_back(base.graph().edge(e));
      }
      const Dfg fewer = Dfg::from_edges("fewer", base.num_nodes(), edges);
      const DfgFingerprint fp2 = fingerprint_dfg(fewer);
      EXPECT_FALSE(fp.iso_hi == fp2.iso_hi && fp.iso_lo == fp2.iso_lo)
          << bench.name;
    }
    // Bump one edge's loop-carried distance.
    {
      std::vector<Edge> edges;
      for (EdgeId e = 0; e < base.num_edges(); ++e) {
        edges.push_back(base.graph().edge(e));
      }
      edges.front().attr += 1;
      const Dfg shifted = Dfg::from_edges("shift", base.num_nodes(), edges);
      const DfgFingerprint fp2 = fingerprint_dfg(shifted);
      EXPECT_FALSE(fp.iso_hi == fp2.iso_hi && fp.iso_lo == fp2.iso_lo)
          << bench.name;
    }
    // Add an isolated node.
    {
      std::vector<Edge> edges;
      for (EdgeId e = 0; e < base.num_edges(); ++e) {
        edges.push_back(base.graph().edge(e));
      }
      const Dfg bigger = Dfg::from_edges("pad", base.num_nodes() + 1, edges);
      const DfgFingerprint fp2 = fingerprint_dfg(bigger);
      EXPECT_FALSE(fp.iso_hi == fp2.iso_hi && fp.iso_lo == fp2.iso_lo)
          << bench.name;
    }
  }
}

TEST(FingerprintTest, SuiteIsCollisionFree) {
  // The paper suite's graphs are pairwise non-isomorphic (as structural
  // graphs), so their 128-bit fingerprints must all differ.
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  for (const Benchmark& bench : benchmark_suite()) {
    const DfgFingerprint fp = fingerprint_dfg(structural_copy(bench.dfg));
    EXPECT_TRUE(seen.insert({fp.iso_hi, fp.iso_lo}).second)
        << bench.name << " collides with an earlier suite graph";
  }
  EXPECT_GE(seen.size(), 10u);
}

TEST(FingerprintTest, CanonicalPermutationIsValid) {
  for (const Benchmark& bench : benchmark_suite()) {
    const DfgFingerprint fp = fingerprint_dfg(bench.dfg);
    ASSERT_TRUE(fp.canonical) << bench.name;
    ASSERT_EQ(fp.canon.size(),
              static_cast<std::size_t>(bench.dfg.num_nodes()));
    std::vector<bool> hit(fp.canon.size(), false);
    for (const NodeId ci : fp.canon) {
      ASSERT_GE(ci, 0);
      ASSERT_LT(static_cast<std::size_t>(ci), fp.canon.size());
      EXPECT_FALSE(hit[static_cast<std::size_t>(ci)]);
      hit[static_cast<std::size_t>(ci)] = true;
    }
  }
}

TEST(FingerprintTest, ExhaustedBudgetStillIsomorphismInvariant) {
  // With the canonicalisation budget forced to (almost) nothing the
  // fingerprint falls back to the WL colour multiset — still isomorphism
  // invariant, just not collision-resistant against automorphic twins.
  for (const Benchmark& bench : benchmark_suite()) {
    const Dfg base = structural_copy(bench.dfg);
    const Dfg relabeled = permuted_copy(base, reversed_perm(base.num_nodes()));
    const DfgFingerprint a = fingerprint_dfg(base, 1);
    const DfgFingerprint b = fingerprint_dfg(relabeled, 1);
    EXPECT_EQ(a.canonical, b.canonical) << bench.name;
    EXPECT_EQ(a.iso_hi, b.iso_hi) << bench.name;
    EXPECT_EQ(a.iso_lo, b.iso_lo) << bench.name;
  }
}

/// A uniform relabelling drawn from `rng` (Fisher-Yates on the repo's
/// portable generator, so the corpus below is the same on every platform).
std::vector<NodeId> seeded_perm(int n, Rng& rng) {
  std::vector<NodeId> perm(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) perm[static_cast<std::size_t>(v)] = v;
  for (int i = n - 1; i > 0; --i) {
    const auto j = rng.next_below(static_cast<std::uint64_t>(i) + 1);
    std::swap(perm[static_cast<std::size_t>(i)], perm[j]);
  }
  return perm;
}

TEST(FingerprintTest, CorpusDigestIsPinned) {
  // Every field of fingerprint_dfg, bit for bit, over a seeded corpus: the
  // 17 suite DFGs from their kernels and through DFG text, 5 relabellings
  // of each, and 2,000 random DFGs of 4-43 nodes through text. Every 7th
  // graph is also fingerprinted under budgets 50, 300 and 2,000, which
  // take the abort path. The memo and the certificate store are keyed on
  // these values, so a change that moves the hash, the step budget or the
  // tree order must say so by updating the constants.
  std::vector<Dfg> corpus;
  for (const Benchmark& bench : benchmark_suite()) {
    corpus.push_back(bench.dfg);
    corpus.push_back(dfg_from_text(dfg_to_text(bench.dfg)));
  }
  Rng rng(0xf1a9e7);
  const std::size_t bases = corpus.size();
  for (std::size_t i = 0; i < bases; ++i) {
    for (int k = 0; k < 5; ++k) {
      const Dfg base = corpus[i];
      corpus.push_back(permuted_copy(base, seeded_perm(base.num_nodes(), rng)));
    }
  }
  for (int i = 0; i < 2000; ++i) {
    SyntheticSpec spec;
    spec.num_nodes = 4 + static_cast<int>(rng.next_below(40));
    spec.seed = rng.next_u64();
    corpus.push_back(dfg_from_text(dfg_to_text(random_dfg(spec))));
  }

  std::uint64_t digest = 0;
  int count = 0;
  int aborts = 0;
  const auto absorb = [&](const DfgFingerprint& fp) {
    ++count;
    aborts += fp.canonical ? 0 : 1;
    for (const std::uint64_t v :
         {fp.iso_hi, fp.iso_lo, fp.exact,
          static_cast<std::uint64_t>(fp.canonical),
          static_cast<std::uint64_t>(fp.canon.size())}) {
      digest = mix64(digest ^ v);
    }
    for (const NodeId c : fp.canon) {
      digest = mix64(digest ^ static_cast<std::uint64_t>(c));
    }
  };
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    absorb(fingerprint_dfg(corpus[i]));
    if (i % 7 == 0) {
      for (const std::uint64_t budget : {50, 300, 2000}) {
        absorb(fingerprint_dfg(corpus[i], budget));
      }
    }
  }
  EXPECT_EQ(count, 3149);
  EXPECT_EQ(aborts, 376);
  EXPECT_EQ(digest, 0xd125362ea7aa3d4aULL);
}

TEST(FingerprintTest, ArchFingerprintSeparatesShapes) {
  std::set<std::uint64_t> seen;
  for (const int rows : {2, 4, 8}) {
    for (const int cols : {2, 4, 8}) {
      for (const Topology topo :
           {Topology::kMesh, Topology::kTorus, Topology::kDiagonal}) {
        const CgraArch arch(rows, cols, topo);
        EXPECT_TRUE(seen.insert(fingerprint_arch(arch)).second)
            << rows << 'x' << cols;
      }
    }
  }
  const CgraArch again(4, 4, Topology::kMesh);
  EXPECT_EQ(fingerprint_arch(again),
            fingerprint_arch(CgraArch(4, 4, Topology::kMesh)));
}

}  // namespace
}  // namespace monomap
