// Differential tests: the bitset space-search engine against the reference
// scan engine.
//
// Both engines are complete searches over the same space, so on any
// instance they must agree on found/not-found (given unlimited budgets),
// and every found placement must be a genuine monomorphism. The sweep
// crosses random DFGs with random label vectors — schedule-feasible or not,
// the space search must handle them — over all three topologies and
// II in {1..4}.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "first_schedule.hpp"
#include "mapper/decoupled_mapper.hpp"
#include "space/monomorphism.hpp"
#include "support/rng.hpp"
#include "timing/time_solver.hpp"
#include "workloads/suite.hpp"
#include "workloads/synthetic.hpp"

namespace monomap {
namespace {

/// mono1 + mono3 validity of a found placement.
void expect_valid_placement(const Dfg& dfg, const CgraArch& arch,
                            const std::vector<int>& labels,
                            const SpaceResult& result) {
  ASSERT_EQ(result.pe.size(), static_cast<std::size_t>(dfg.num_nodes()));
  std::set<std::pair<PeId, int>> used;
  for (NodeId v = 0; v < dfg.num_nodes(); ++v) {
    ASSERT_TRUE(arch.has_pe(result.pe[static_cast<std::size_t>(v)]));
    EXPECT_TRUE(used.emplace(result.pe[static_cast<std::size_t>(v)],
                             labels[static_cast<std::size_t>(v)])
                    .second)
        << "vertex collision for node " << v;
  }
  const Graph& g = dfg.graph();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    if (edge.src == edge.dst) continue;
    EXPECT_TRUE(arch.adjacent_or_same(
        result.pe[static_cast<std::size_t>(edge.src)],
        result.pe[static_cast<std::size_t>(edge.dst)]))
        << "edge " << edge.src << "->" << edge.dst;
  }
}

SpaceOptions engine_options(SpaceEngine engine) {
  SpaceOptions opt;
  opt.engine = engine;
  opt.max_backtracks = 0;  // complete searches must agree exactly
  return opt;
}

TEST(SpaceEngines, DifferentialRandomSweep) {
  int instances = 0;
  int found_count = 0;
  for (const Topology topology :
       {Topology::kMesh, Topology::kTorus, Topology::kDiagonal}) {
    const CgraArch arch(3, 3, topology);
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      SyntheticSpec spec;
      spec.num_nodes = 8 + static_cast<int>(seed) * 2;  // 10..20 nodes
      spec.seed = seed * 977;
      const Dfg dfg = random_dfg(spec);
      for (int ii = 1; ii <= 4; ++ii) {
        // Random labels: the space search must behave identically whether
        // or not a schedule would ever produce this label vector.
        Rng rng(seed * 131 + static_cast<std::uint64_t>(ii));
        std::vector<int> labels(static_cast<std::size_t>(dfg.num_nodes()));
        for (int& l : labels) {
          l = static_cast<int>(rng.next_below(static_cast<std::uint32_t>(ii)));
        }
        const SpaceResult bitset = find_monomorphism(
            dfg, arch, labels, ii, engine_options(SpaceEngine::kBitset));
        const SpaceResult reference = find_monomorphism(
            dfg, arch, labels, ii, engine_options(SpaceEngine::kReference));
        ASSERT_EQ(bitset.found, reference.found)
            << "engines disagree: topology=" << topology_name(topology)
            << " seed=" << seed << " ii=" << ii;
        ++instances;
        if (bitset.found) {
          ++found_count;
          expect_valid_placement(dfg, arch, labels, bitset);
          expect_valid_placement(dfg, arch, labels, reference);
        }
      }
    }
  }
  // The sweep must exercise both outcomes to mean anything.
  EXPECT_GT(found_count, 0);
  EXPECT_LT(found_count, instances);
}

TEST(SpaceEngines, DifferentialOnScheduleRealisticInstances) {
  // Real schedules from the time solver, both engines, all variable orders.
  // hotspot3D is restricted to dynamic MRV: its first 4x4 schedule is
  // spatially infeasible and the *reference* engine needs >10 s to prove
  // exhaustion under the weak static orders.
  for (const char* name : {"gsm", "fft", "hotspot3D"}) {
    const bool hard = std::string(name) == "hotspot3D";
    const Benchmark& b = benchmark_by_name(name);
    const CgraArch arch = CgraArch::square(4);
    const auto sol = first_schedule(b.dfg, arch, Deadline(30.0)).solution;
    ASSERT_TRUE(sol.has_value()) << name;
    std::vector<int> labels;
    for (NodeId v = 0; v < b.dfg.num_nodes(); ++v) {
      labels.push_back(sol->label(v));
    }
    for (const SpaceOrder order :
         {SpaceOrder::kDynamicMrv, SpaceOrder::kConnectivity,
          SpaceOrder::kDegree, SpaceOrder::kBfs}) {
      if (hard && order != SpaceOrder::kDynamicMrv) continue;
      SpaceOptions bitset_opt = engine_options(SpaceEngine::kBitset);
      bitset_opt.order = order;
      SpaceOptions ref_opt = engine_options(SpaceEngine::kReference);
      ref_opt.order = order;
      const SpaceResult bitset =
          find_monomorphism(b.dfg, arch, labels, sol->ii, bitset_opt);
      const SpaceResult reference =
          find_monomorphism(b.dfg, arch, labels, sol->ii, ref_opt);
      ASSERT_EQ(bitset.found, reference.found)
          << name << " order=" << to_string(order);
      if (bitset.found) {
        expect_valid_placement(b.dfg, arch, labels, bitset);
      }
    }
  }
}

/// Sub-DFG induced by `nodes` (ids are compacted in order), with the
/// matching label projection — the instance a conflict explanation claims
/// is unplaceable.
Dfg induced_subdfg(const Dfg& dfg, const std::vector<int>& labels,
                   const std::vector<NodeId>& nodes,
                   std::vector<int>& sub_labels) {
  std::vector<NodeId> to_sub(static_cast<std::size_t>(dfg.num_nodes()),
                             kInvalidNode);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    to_sub[static_cast<std::size_t>(nodes[i])] = static_cast<NodeId>(i);
  }
  std::vector<Edge> edges;
  const Graph& g = dfg.graph();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    const NodeId s = to_sub[static_cast<std::size_t>(edge.src)];
    const NodeId d = to_sub[static_cast<std::size_t>(edge.dst)];
    if (s == kInvalidNode || d == kInvalidNode) continue;
    edges.push_back(Edge{s, d, edge.attr});
  }
  sub_labels.clear();
  for (const NodeId v : nodes) {
    sub_labels.push_back(labels[static_cast<std::size_t>(v)]);
  }
  return Dfg::from_edges("induced", static_cast<int>(nodes.size()), edges);
}

TEST(SpaceEngines, ConflictExplanationsAreSoundUnderTruncation) {
  // A recorded conflict explanation claims: the induced sub-DFG with these
  // labels admits NO placement — that is what add_space_nogood turns into
  // a schedule-pruning clause, so an unsound one would silently exclude
  // mappable schedules. Sweep random instances under a range of budgets
  // (tiny budgets exercise the early self-contained-refutation path, which
  // may emit explanations from a search that never saw the whole tree) and
  // cross-check every emitted explanation against an exhaustive kReference
  // run on the induced subproblem.
  int checked = 0;
  for (const Topology topology : {Topology::kMesh, Topology::kTorus}) {
    const CgraArch arch(3, 3, topology);
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      SyntheticSpec spec;
      spec.num_nodes = 10 + static_cast<int>(seed) * 2;  // 12..22 nodes
      spec.seed = seed * 7919;
      const Dfg dfg = random_dfg(spec);
      for (int ii = 1; ii <= 3; ++ii) {
        Rng rng(seed * 53 + static_cast<std::uint64_t>(ii));
        std::vector<int> labels(static_cast<std::size_t>(dfg.num_nodes()));
        for (int& l : labels) {
          l = static_cast<int>(rng.next_below(static_cast<std::uint32_t>(ii)));
        }
        for (const std::uint64_t budget : {25ull, 400ull, 0ull}) {
          SpaceOptions opt;  // bitset default: CBJ + distance-2 on
          opt.max_backtracks = budget;
          const SpaceResult r = find_monomorphism(dfg, arch, labels, ii, opt);
          if (r.found || r.conflict_nodes.empty()) continue;
          EXPECT_FALSE(r.timed_out)
              << "explanations must only come from complete refutations";
          std::vector<int> sub_labels;
          const Dfg sub =
              induced_subdfg(dfg, labels, r.conflict_nodes, sub_labels);
          SpaceOptions oracle;
          oracle.engine = SpaceEngine::kReference;
          oracle.max_backtracks = 0;
          const SpaceResult check =
              find_monomorphism(sub, arch, sub_labels, ii, oracle);
          EXPECT_FALSE(check.found)
              << "unsound conflict explanation: topology="
              << topology_name(topology) << " seed=" << seed << " ii=" << ii
              << " budget=" << budget << " |conflict|="
              << r.conflict_nodes.size() << "/" << dfg.num_nodes();
          ++checked;
        }
      }
    }
  }
  // The sweep must actually exercise the explanation path.
  EXPECT_GT(checked, 10);

  // 3x3 grids never pin the first placement (no random DFG here has an
  // eccentricity of 1), so sweep meshes and king meshes wide enough for the
  // translation pin. A pinned refutation is proven with the root at (e, e)
  // only; its (possibly widened) certificate must hold for every placement,
  // so the oracle searches the induced sub-DFG without symmetry breaking.
  // Dense DFGs keep eccentricities small enough for the pin to fire. 5x5
  // sweeps many seeds because widening is rare (mesh, seed 183, II 3 is a
  // hit); the wider and the non-square fabrics check the common case.
  struct PinSweep {
    int rows;
    int cols;
    std::uint64_t seeds;
  };
  int pinned_checked = 0;
  int widened = 0;
  for (const PinSweep sweep : {PinSweep{5, 5, 200}, PinSweep{8, 8, 20},
                               PinSweep{12, 12, 10}, PinSweep{5, 9, 30}}) {
    for (const Topology topology : {Topology::kMesh, Topology::kDiagonal}) {
      const CgraArch arch(sweep.rows, sweep.cols, topology);
      for (std::uint64_t seed = 1; seed <= sweep.seeds; ++seed) {
        SyntheticSpec spec;
        spec.num_nodes = 6 + static_cast<int>(seed % 16);  // 6..21 nodes
        spec.extra_edge_prob = 0.6;
        spec.max_degree = 6;
        spec.seed = seed * 7919;
        const Dfg dfg = random_dfg(spec);
        for (int ii = 1; ii <= 4; ++ii) {
          Rng rng(seed * 53 + static_cast<std::uint64_t>(ii));
          std::vector<int> labels(static_cast<std::size_t>(dfg.num_nodes()));
          for (int& l : labels) {
            l = static_cast<int>(
                rng.next_below(static_cast<std::uint32_t>(ii)));
          }
          for (const std::uint64_t budget : {25ull, 400ull, 0ull}) {
            SpaceOptions opt;
            opt.max_backtracks = budget;
            const SpaceResult r =
                find_monomorphism(dfg, arch, labels, ii, opt);
            if (!r.root_pinned || r.found || r.conflict_nodes.empty()) {
              continue;
            }
            EXPECT_FALSE(r.timed_out);
            widened += r.certificate_widened ? 1 : 0;
            std::vector<int> sub_labels;
            const Dfg sub =
                induced_subdfg(dfg, labels, r.conflict_nodes, sub_labels);
            SpaceOptions oracle;
            oracle.engine = SpaceEngine::kReference;
            oracle.max_backtracks = 0;
            oracle.symmetry_breaking = false;
            EXPECT_FALSE(
                find_monomorphism(sub, arch, sub_labels, ii, oracle).found)
                << "unsound pinned certificate: " << sweep.rows << "x"
                << sweep.cols
                << " topology=" << topology_name(topology)
                << " seed=" << seed << " ii=" << ii << " budget=" << budget
                << " widened=" << r.certificate_widened;
            ++pinned_checked;
          }
        }
      }
    }
  }
  EXPECT_GE(pinned_checked, 300);
  EXPECT_GE(widened, 1) << "the sweep never reached certificate widening";
  RecordProperty("pinned_refutations_checked", pinned_checked);
  RecordProperty("widened_certificates", widened);
}

TEST(SpaceEngines, PinFabricIsExactOnNarrowFabrics) {
  // A fabric above 64 PEs that is too narrow for the in-place pin (a side
  // below 2e+1) is searched on its (2R-1)x(2C-1) pin fabric under an
  // R x C window. That must never change found/not-found against the
  // unpinned search, every placement must come back onto the real fabric,
  // and every certificate must hold there without widening: an exhaustive
  // unpinned reference search of its induced sub-DFG finds nothing.
  // Sparse DFGs keep eccentricities above the in-place bound; denser ones
  // (extra_edge_prob 0.2) reach in-place-pinned refutations that the
  // unpinned comparison search needs minutes for.
  struct Fabric {
    int rows;
    int cols;
    Topology topology;
  };
  int instances = 0;
  int found = 0;
  int certificates = 0;
  int root_pinned = 0;
  int on_pin_fabric = 0;
  int pin_fabric_certificates = 0;
  for (const Fabric f : {Fabric{9, 9, Topology::kMesh},
                         Fabric{10, 10, Topology::kMesh},
                         Fabric{12, 12, Topology::kMesh},
                         Fabric{9, 12, Topology::kMesh},
                         Fabric{11, 8, Topology::kMesh},
                         Fabric{9, 9, Topology::kDiagonal}}) {
    const CgraArch arch(f.rows, f.cols, f.topology);
    const int real_words = (arch.num_pes() + 63) / 64;
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
      SyntheticSpec spec;
      spec.num_nodes = 8 + static_cast<int>(seed % 20);  // 8..27 nodes
      spec.extra_edge_prob = 0.1;
      spec.max_degree = 4;
      spec.seed = seed * 6151 + static_cast<std::uint64_t>(f.rows * f.cols);
      const Dfg dfg = random_dfg(spec);
      for (int ii = 1; ii <= 3; ++ii) {
        Rng rng(seed * 97 + static_cast<std::uint64_t>(ii));
        std::vector<int> labels(static_cast<std::size_t>(dfg.num_nodes()));
        for (int& l : labels) {
          l = static_cast<int>(rng.next_below(static_cast<std::uint32_t>(ii)));
        }
        const std::string where =
            std::to_string(f.rows) + "x" + std::to_string(f.cols) + " " +
            topology_name(f.topology) + " seed=" + std::to_string(seed) +
            " ii=" + std::to_string(ii);
        SpaceOptions pinned;
        pinned.max_backtracks = 0;
        SpaceOptions unpinned = pinned;
        unpinned.symmetry_breaking = false;
        const SpaceResult r = find_monomorphism(dfg, arch, labels, ii, pinned);
        const SpaceResult u =
            find_monomorphism(dfg, arch, labels, ii, unpinned);
        ASSERT_FALSE(r.timed_out || u.timed_out) << where;
        EXPECT_EQ(r.found, u.found) << where;
        ++instances;
        // The domain telemetry describes the fabric the search ran on.
        const bool pin_fabric =
            r.root_pinned && r.words_per_domain > real_words;
        on_pin_fabric += pin_fabric ? 1 : 0;
        root_pinned += r.root_pinned ? 1 : 0;
        if (r.found) {
          ++found;
          expect_valid_placement(dfg, arch, labels, r);
          continue;
        }
        ASSERT_FALSE(r.conflict_nodes.empty()) << where;
        if (pin_fabric) {
          EXPECT_FALSE(r.certificate_widened) << where;
        }
        std::vector<int> sub_labels;
        const Dfg sub =
            induced_subdfg(dfg, labels, r.conflict_nodes, sub_labels);
        SpaceOptions oracle;
        oracle.engine = SpaceEngine::kReference;
        oracle.max_backtracks = 0;
        oracle.symmetry_breaking = false;
        EXPECT_FALSE(find_monomorphism(sub, arch, sub_labels, ii, oracle).found)
            << "unsound certificate: " << where << " |conflict|="
            << r.conflict_nodes.size() << "/" << dfg.num_nodes();
        ++certificates;
        pin_fabric_certificates += pin_fabric ? 1 : 0;
      }
    }
  }
  // 900 instances: 681 found, 219 certificates (102 of them proven on the
  // pin fabric), every root pinned, 356 on the pin fabric.
  EXPECT_GE(found, instances / 2);
  EXPECT_GE(certificates, instances / 5);
  EXPECT_EQ(root_pinned, instances);
  EXPECT_GE(on_pin_fabric, instances / 3)
      << "the sweep rarely reached the pin fabric";
  EXPECT_GE(pin_fabric_certificates, instances / 10);
  RecordProperty("certificates_checked", certificates);
  RecordProperty("on_pin_fabric", on_pin_fabric);
}

TEST(SpaceEngines, PinFabricWindowRefutesWhatDoesNotFit) {
  // A 2 x k ladder with one slot label is rigid on a mesh: every square
  // lands on a unit square, and the next square on the far side of the
  // shared edge, so it needs a straight 2 x k strip. On the pin fabric it
  // always has room; only the window stops a k longer than both fabric
  // sides. So the refutation rests on window rejections, and its
  // certificate must name the nodes they rest on: an exhaustive unpinned
  // reference search of the induced sub-DFG on the real fabric must fail.
  // A three-node tail off one end lets the certificate be smaller than
  // the DFG; without the culprit charge it drops nodes it needs.
  constexpr int kTail = 3;
  const auto ladder = [](int k) {
    std::vector<Edge> edges;
    for (int j = 0; j < k; ++j) {
      edges.push_back(Edge{j, k + j, 0});
      if (j + 1 < k) {
        edges.push_back(Edge{j, j + 1, 0});
        edges.push_back(Edge{k + j, k + j + 1, 0});
      }
    }
    for (int t = 0; t < kTail; ++t) {
      edges.push_back(Edge{t == 0 ? k - 1 : 2 * k + t - 1, 2 * k + t, 0});
    }
    return Dfg::from_edges("ladder", 2 * k + kTail, edges);
  };
  for (const auto& [rows, cols] : {std::pair{9, 9}, std::pair{10, 10},
                                   std::pair{9, 12}, std::pair{11, 8}}) {
    const CgraArch arch(rows, cols, Topology::kMesh);
    const int side = std::max(rows, cols);
    for (const int k : {side, side + 1}) {
      const Dfg dfg = ladder(k);
      const std::vector<int> labels(static_cast<std::size_t>(dfg.num_nodes()),
                                    0);
      SpaceOptions opt;
      opt.max_backtracks = 0;
      const SpaceResult r = find_monomorphism(dfg, arch, labels, 1, opt);
      const std::string where = std::to_string(rows) + "x" +
                                std::to_string(cols) +
                                " k=" + std::to_string(k);
      ASSERT_FALSE(r.timed_out) << where;
      EXPECT_TRUE(r.root_pinned) << where;
      EXPECT_EQ(r.found, k == side) << where;
      if (r.found) {
        expect_valid_placement(dfg, arch, labels, r);
        continue;
      }
      std::vector<int> sub_labels;
      const Dfg sub = induced_subdfg(dfg, labels, r.conflict_nodes, sub_labels);
      SpaceOptions oracle;
      oracle.engine = SpaceEngine::kReference;
      oracle.max_backtracks = 0;
      oracle.symmetry_breaking = false;
      EXPECT_FALSE(find_monomorphism(sub, arch, sub_labels, 1, oracle).found)
          << "unsound certificate: " << where << " |conflict|="
          << r.conflict_nodes.size();
    }
  }
}

TEST(SpaceEngines, TogglesPreserveCompleteness) {
  // Distance-2 filtering and backjumping are implied/complete — flipping
  // them never changes found/not-found on complete searches.
  const CgraArch arch(3, 3, Topology::kMesh);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SyntheticSpec spec;
    spec.num_nodes = 12 + static_cast<int>(seed) * 2;
    spec.seed = seed * 1231;
    const Dfg dfg = random_dfg(spec);
    for (int ii = 2; ii <= 3; ++ii) {
      Rng rng(seed * 17 + static_cast<std::uint64_t>(ii));
      std::vector<int> labels(static_cast<std::size_t>(dfg.num_nodes()));
      for (int& l : labels) {
        l = static_cast<int>(rng.next_below(static_cast<std::uint32_t>(ii)));
      }
      SpaceOptions base = engine_options(SpaceEngine::kBitset);
      const SpaceResult full = find_monomorphism(dfg, arch, labels, ii, base);
      for (const bool d2 : {false, true}) {
        for (const bool d2mult : {false, true}) {
          for (const bool cbj : {false, true}) {
            SpaceOptions opt = base;
            opt.distance2_filter = d2;
            opt.distance2_multiplicity = d2mult;
            opt.backjumping = cbj;
            const SpaceResult r =
                find_monomorphism(dfg, arch, labels, ii, opt);
            EXPECT_EQ(r.found, full.found)
                << "d2=" << d2 << " d2mult=" << d2mult << " cbj=" << cbj
                << " seed=" << seed << " ii=" << ii;
          }
        }
      }
    }
  }
}

TEST(SpaceEngines, MultiplicityFilterBitesOnDenseDfgs) {
  // Dense random DFGs (many shared neighbours) must actually trigger the
  // multiplicity-aware distance-2 prunings, and toggling the filter must
  // never change found/not-found. 12x12: the filter only arms itself on
  // multi-word fabrics (> 64 PEs).
  const CgraArch arch(12, 12, Topology::kMesh);
  std::uint64_t total_prunings = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SyntheticSpec spec;
    spec.num_nodes = 14 + static_cast<int>(seed) * 2;
    spec.extra_edge_prob = 0.8;
    spec.max_degree = 6;
    spec.seed = seed * 3571;
    const Dfg dfg = random_dfg(spec);
    for (int ii = 2; ii <= 3; ++ii) {
      Rng rng(seed * 29 + static_cast<std::uint64_t>(ii));
      std::vector<int> labels(static_cast<std::size_t>(dfg.num_nodes()));
      for (int& l : labels) {
        l = static_cast<int>(rng.next_below(static_cast<std::uint32_t>(ii)));
      }
      SpaceOptions with = engine_options(SpaceEngine::kBitset);
      SpaceOptions without = with;
      without.distance2_multiplicity = false;
      const SpaceResult on = find_monomorphism(dfg, arch, labels, ii, with);
      const SpaceResult off =
          find_monomorphism(dfg, arch, labels, ii, without);
      EXPECT_EQ(on.found, off.found) << "seed=" << seed << " ii=" << ii;
      EXPECT_EQ(off.multiplicity_prunings, 0u) << "toggle must disarm";
      total_prunings += on.multiplicity_prunings;
      if (on.found) expect_valid_placement(dfg, arch, labels, on);
    }
  }
  EXPECT_GT(total_prunings, 0u)
      << "the dense sweep never exercised the multiplicity filter";
}

TEST(SpaceEngines, DifferentialLargeGrid) {
  // Production-scale fabric: the bitset engine on 32x32 (16-word domains,
  // SIMD kernel regime) against the scan-based reference, with the
  // multiplicity filter both armed and disarmed.
  const CgraArch arch = CgraArch::square(32);
  for (const char* name : {"fft", "gsm"}) {
    const Benchmark& b = benchmark_by_name(name);
    const auto sol = first_schedule(b.dfg, arch, Deadline(30.0)).solution;
    ASSERT_TRUE(sol.has_value()) << name;
    std::vector<int> labels;
    for (NodeId v = 0; v < b.dfg.num_nodes(); ++v) {
      labels.push_back(sol->label(v));
    }
    const SpaceResult reference = find_monomorphism(
        b.dfg, arch, labels, sol->ii, engine_options(SpaceEngine::kReference));
    for (const bool d2mult : {false, true}) {
      SpaceOptions opt = engine_options(SpaceEngine::kBitset);
      opt.distance2_multiplicity = d2mult;
      const SpaceResult bitset =
          find_monomorphism(b.dfg, arch, labels, sol->ii, opt);
      ASSERT_EQ(bitset.found, reference.found)
          << name << " d2mult=" << d2mult;
      EXPECT_EQ(bitset.words_per_domain, 16) << name;
      if (bitset.found) {
        expect_valid_placement(b.dfg, arch, labels, bitset);
      }
    }
    if (reference.found) {
      expect_valid_placement(b.dfg, arch, labels, reference);
    }
  }
}

TEST(SpaceEngines, SimdLevelsAreTraceIdentical) {
  // The acceptance contract of the kernel layer: every SIMD level the CPU
  // supports must produce the exact search trace of the scalar kernels —
  // same outcome, same nodes_expanded/backtracks/backjumps/max_depth, same
  // trail traffic — on multi-word instances (16x16 = 4 words crosses the
  // dispatch threshold, 32x32 = 16 words is the production regime).
  const simd::Level saved = simd::active_level();
  const int best = static_cast<int>(simd::best_supported_level());
  for (const int side : {16, 32}) {
    const CgraArch arch = CgraArch::square(side);
    for (const char* name : {"fft", "hotspot3D"}) {
      const Benchmark& b = benchmark_by_name(name);
      const auto sol = first_schedule(b.dfg, arch, Deadline(30.0)).solution;
      ASSERT_TRUE(sol.has_value()) << name;
      std::vector<int> labels;
      for (NodeId v = 0; v < b.dfg.num_nodes(); ++v) {
        labels.push_back(sol->label(v));
      }
      simd::set_level(simd::Level::kScalar);
      const SpaceResult scalar = find_monomorphism(
          b.dfg, arch, labels, sol->ii, engine_options(SpaceEngine::kBitset));
      for (int lv = 1; lv <= best; ++lv) {
        simd::set_level(static_cast<simd::Level>(lv));
        const SpaceResult r = find_monomorphism(
            b.dfg, arch, labels, sol->ii,
            engine_options(SpaceEngine::kBitset));
        EXPECT_EQ(r.found, scalar.found) << name << " level " << lv;
        EXPECT_EQ(r.nodes_expanded, scalar.nodes_expanded)
            << name << " level " << lv;
        EXPECT_EQ(r.backtracks, scalar.backtracks) << name << " level " << lv;
        EXPECT_EQ(r.backjumps, scalar.backjumps) << name << " level " << lv;
        EXPECT_EQ(r.max_depth, scalar.max_depth) << name << " level " << lv;
        EXPECT_EQ(r.trail_words_saved, scalar.trail_words_saved)
            << name << " level " << lv;
        EXPECT_EQ(r.multiplicity_prunings, scalar.multiplicity_prunings)
            << name << " level " << lv;
        // The layout telemetry is level-independent too: which tiles are
        // skippable depends on occupancy, not on kernel width.
        EXPECT_EQ(r.tiles_skipped, scalar.tiles_skipped)
            << name << " level " << lv;
        EXPECT_EQ(r.domain_bytes_touched, scalar.domain_bytes_touched)
            << name << " level " << lv;
        EXPECT_EQ(r.pe, scalar.pe) << name << " level " << lv;
      }
      simd::set_level(saved);
    }
  }
  simd::set_level(saved);
}

TEST(SpaceEngines, TiledAndUntiledLayoutsAreTraceIdentical) {
  // Tile skipping changes which cache lines get touched, never the search:
  // with the occupancy maps disabled, every decision counter and the found
  // placement must be identical. Only the layout telemetry may differ —
  // trail_words_saved is tile- vs word-granular by design, and the tiled
  // layout can only touch fewer (never more) domain bytes.
  const auto compare = [](const Dfg& dfg, const CgraArch& arch,
                          const std::vector<int>& labels, int ii,
                          bool expect_skips, const char* tag) {
    const bool was_on = simd::set_tile_skipping(false);
    const SpaceResult untiled = find_monomorphism(
        dfg, arch, labels, ii, engine_options(SpaceEngine::kBitset));
    simd::set_tile_skipping(true);
    const SpaceResult tiled = find_monomorphism(
        dfg, arch, labels, ii, engine_options(SpaceEngine::kBitset));
    simd::set_tile_skipping(was_on);
    EXPECT_EQ(tiled.found, untiled.found) << tag;
    EXPECT_EQ(tiled.nodes_expanded, untiled.nodes_expanded) << tag;
    EXPECT_EQ(tiled.backtracks, untiled.backtracks) << tag;
    EXPECT_EQ(tiled.backjumps, untiled.backjumps) << tag;
    EXPECT_EQ(tiled.max_depth, untiled.max_depth) << tag;
    EXPECT_EQ(tiled.multiplicity_prunings, untiled.multiplicity_prunings)
        << tag;
    EXPECT_EQ(tiled.pe, untiled.pe) << tag;
    EXPECT_EQ(untiled.tiles_skipped, 0u) << tag;
    if (expect_skips) {
      EXPECT_GT(tiled.tiles_skipped, 0u) << tag;
    }
    EXPECT_LE(tiled.domain_bytes_touched, untiled.domain_bytes_touched)
        << tag;
  };
  {
    const Benchmark& b = benchmark_by_name("fft");
    const CgraArch arch = CgraArch::square(32);
    const auto sol = first_schedule(b.dfg, arch, Deadline(30.0)).solution;
    ASSERT_TRUE(sol.has_value());
    std::vector<int> labels;
    for (NodeId v = 0; v < b.dfg.num_nodes(); ++v) {
      labels.push_back(sol->label(v));
    }
    compare(b.dfg, arch, labels, sol->ii, false, "fft@32x32");
  }
  {
    // The bench's acceptance regime: a full-mesh 32x32 patch placed on the
    // 64x64 fabric, where domains span 8 tiles and skipping must fire.
    PlaceableGridSpec ps;
    ps.rows = 32;
    ps.cols = 32;
    ps.ii = 5;
    ps.edge_keep = 1.0;
    ps.seed = 154;
    std::vector<int> labels;
    const Dfg dfg = placeable_grid_dfg(ps, &labels);
    compare(dfg, CgraArch::square(64), labels, ps.ii, true,
            "placeable-32x32-ii5@64x64");
  }
}

TEST(SpaceEngines, SparseMrvAgreesWithDynamicMrvOnSuite) {
  // kSparseMrv only reweights complete variable/value orderings, so on
  // complete searches it must agree with kDynamicMrv on feasibility for
  // every suite benchmark's first 8x8 schedule (sparse_order_auto pinned
  // off on the dynamic side so the engine cannot silently swap orders).
  const CgraArch arch = CgraArch::square(8);
  int found_count = 0;
  for (const Benchmark& b : benchmark_suite()) {
    const auto sol = first_schedule(b.dfg, arch, Deadline(30.0)).solution;
    ASSERT_TRUE(sol.has_value()) << b.name;
    std::vector<int> labels;
    for (NodeId v = 0; v < b.dfg.num_nodes(); ++v) {
      labels.push_back(sol->label(v));
    }
    SpaceOptions dyn_opt = engine_options(SpaceEngine::kBitset);
    dyn_opt.order = SpaceOrder::kDynamicMrv;
    dyn_opt.sparse_order_auto = false;
    SpaceOptions sparse_opt = engine_options(SpaceEngine::kBitset);
    sparse_opt.order = SpaceOrder::kSparseMrv;
    const SpaceResult dyn_r =
        find_monomorphism(b.dfg, arch, labels, sol->ii, dyn_opt);
    const SpaceResult sparse_r =
        find_monomorphism(b.dfg, arch, labels, sol->ii, sparse_opt);
    EXPECT_EQ(sparse_r.found, dyn_r.found) << b.name;
    if (sparse_r.found) {
      ++found_count;
      expect_valid_placement(b.dfg, arch, labels, sparse_r);
    }
  }
  EXPECT_GT(found_count, 0);
}

TEST(SpaceEngines, PlaceableGridInstancesAreFeasible) {
  // Satisfiable-by-construction instances must actually be *found* at every
  // fabric scale the bench exercises — the identity placement is a witness
  // the generator guarantees, but the search has to discover its own.
  for (const int grid : {16, 32, 64}) {
    const CgraArch arch = CgraArch::square(grid);
    const PlaceableGridSpec spec = placeable_spec_for(arch, 2, 42);
    std::vector<int> labels;
    const Dfg dfg = placeable_grid_dfg(spec, &labels);
    const SpaceResult r = find_monomorphism(
        dfg, arch, labels, spec.ii, engine_options(SpaceEngine::kBitset));
    ASSERT_TRUE(r.found) << "grid " << grid;
    expect_valid_placement(dfg, arch, labels, r);
  }
  // The bench's 64x64 acceptance suite: full-mesh 32x32 patches at the IIs
  // and seeds BENCH_space.json records.
  const CgraArch arch64 = CgraArch::square(64);
  struct PatchCase {
    int ii;
    std::uint64_t seed;
  };
  for (const PatchCase pc :
       {PatchCase{4, 77}, PatchCase{5, 154}, PatchCase{6, 154}}) {
    PlaceableGridSpec ps;
    ps.rows = 32;
    ps.cols = 32;
    ps.ii = pc.ii;
    ps.edge_keep = 1.0;
    ps.seed = pc.seed;
    std::vector<int> labels;
    const Dfg dfg = placeable_grid_dfg(ps, &labels);
    const SpaceResult r = find_monomorphism(
        dfg, arch64, labels, ps.ii, engine_options(SpaceEngine::kBitset));
    ASSERT_TRUE(r.found) << "ii " << pc.ii << " seed " << pc.seed;
    expect_valid_placement(dfg, arch64, labels, r);
  }
  // Cross-check the generator against the reference engine on a patch
  // small enough for the scan-based search.
  PlaceableGridSpec small;
  small.rows = 12;
  small.cols = 12;
  small.ii = 2;
  small.seed = 7;
  std::vector<int> labels;
  const Dfg dfg = placeable_grid_dfg(small, &labels);
  const CgraArch arch16 = CgraArch::square(16);
  const SpaceResult ref = find_monomorphism(
      dfg, arch16, labels, small.ii, engine_options(SpaceEngine::kReference));
  ASSERT_TRUE(ref.found);
  expect_valid_placement(dfg, arch16, labels, ref);
}

TEST(SpaceEngines, AdaptiveBudgetCountersAreConsistent) {
  // The mapper's conflict-driven budget policy exposes its decisions; the
  // counters must add up against the per-search outcomes.
  const Benchmark& b = benchmark_by_name("hotspot3D");
  const CgraArch arch = CgraArch::square(4);
  DecoupledMapperOptions opt;
  opt.timeout_s = 120.0;
  const MapResult r = DecoupledMapper(opt).map(b.dfg, arch);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_LE(r.space_truncated + r.space_exhausted, r.schedules_tried);
  // Every budget action responds to exactly one failed search.
  EXPECT_LE(r.budget_extensions + r.budget_shrinks,
            r.space_truncated + r.space_exhausted);
  // hotspot3D's early IIs are the truncation mill: the policy must have
  // shrunk at least once.
  EXPECT_GT(r.budget_shrinks, 0);
}

TEST(SpaceEngines, BitsetPrunesAtLeastAsHard) {
  // Wipeout propagation explores no more nodes than the reference engine's
  // one-step lookahead on the same static order.
  const Benchmark& b = benchmark_by_name("hotspot3D");
  const CgraArch arch = CgraArch::square(4);
  const auto sol = first_schedule(b.dfg, arch, Deadline(30.0)).solution;
  ASSERT_TRUE(sol.has_value());
  std::vector<int> labels;
  for (NodeId v = 0; v < b.dfg.num_nodes(); ++v) {
    labels.push_back(sol->label(v));
  }
  SpaceOptions bitset_opt = engine_options(SpaceEngine::kBitset);
  bitset_opt.order = SpaceOrder::kConnectivity;
  SpaceOptions ref_opt = engine_options(SpaceEngine::kReference);
  ref_opt.order = SpaceOrder::kConnectivity;
  const SpaceResult bitset =
      find_monomorphism(b.dfg, arch, labels, sol->ii, bitset_opt);
  const SpaceResult reference =
      find_monomorphism(b.dfg, arch, labels, sol->ii, ref_opt);
  ASSERT_EQ(bitset.found, reference.found);
  EXPECT_LE(bitset.nodes_expanded, reference.nodes_expanded);
}

TEST(SpaceEngines, BudgetAndDeadlineReporting) {
  const Benchmark& b = benchmark_by_name("hotspot3D");
  const CgraArch arch = CgraArch::square(4);
  const auto sol = first_schedule(b.dfg, arch, Deadline(30.0)).solution;
  ASSERT_TRUE(sol.has_value());
  std::vector<int> labels;
  for (NodeId v = 0; v < b.dfg.num_nodes(); ++v) {
    labels.push_back(sol->label(v));
  }
  SpaceOptions opt;  // bitset default
  opt.max_backtracks = 1;
  const SpaceResult tiny = find_monomorphism(b.dfg, arch, labels, sol->ii, opt);
  if (!tiny.found) {
    EXPECT_TRUE(tiny.timed_out);
    EXPECT_FALSE(tiny.deadline_expired);
  }
  const Deadline expired(0.0);
  const SpaceResult dead = find_monomorphism(b.dfg, arch, labels, sol->ii,
                                             SpaceOptions{}, expired);
  if (!dead.found) {
    EXPECT_TRUE(dead.deadline_expired);
  }
}

TEST(SpaceEngines, EmptyDfgMapsTrivially) {
  const Dfg dfg = Dfg::from_edges("empty", 0, {});
  const CgraArch arch = CgraArch::square(2);
  for (const SpaceEngine engine :
       {SpaceEngine::kBitset, SpaceEngine::kReference}) {
    const SpaceResult r =
        find_monomorphism(dfg, arch, {}, 1, engine_options(engine));
    EXPECT_TRUE(r.found) << to_string(engine);
    EXPECT_TRUE(r.pe.empty());
  }
}

TEST(SpaceEngines, CancelTokenStopsTheSearch) {
  CancelToken token;
  token.cancel();
  const Deadline cancelled(1e9, &token);
  EXPECT_TRUE(cancelled.expired());
  token.reset();
  EXPECT_FALSE(cancelled.expired());
}

}  // namespace
}  // namespace monomap
