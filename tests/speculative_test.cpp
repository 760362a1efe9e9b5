// Speculative cross-II race (a walk with lookahead above 0) and the
// cross-II slot-partition certificate store.
//
// The load-bearing property is determinism: the race may only buy wall
// clock, never change the answer — the committed II must equal what the
// lookahead-0 walk finds, because a feasible II commits only after every
// strictly smaller II has been refuted, and without a store every attempt
// is a pure function of its II. The tests here pin that agreement (answer
// and effort) across the suite and random DFGs, check the certificate
// machinery's soundness against both time engines, and stress the
// cancellation plumbing (run these under ThreadSanitizer via
// -DMONOMAP_TSAN=ON to check the pool and store synchronisation).
#include <chrono>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "mapper/cross_ii_store.hpp"
#include "mapper/decoupled_mapper.hpp"
#include "workloads/suite.hpp"
#include "workloads/synthetic.hpp"

namespace monomap {
namespace {

DecoupledMapperOptions fast_options() {
  DecoupledMapperOptions opt;
  opt.timeout_s = 120.0;
  return opt;
}

WalkOptions race_options(int lookahead = 2) {
  WalkOptions walk;
  walk.lookahead = lookahead;  // a pool of lookahead + 1 workers, clamped
  return walk;
}

/// The race agrees with the sequential walk on the answer and on the
/// effort behind it: the frontier merges exactly the attempts the
/// sequential walk runs, so the deterministic counters match too.
void expect_same_walk(const MapResult& seq, const MapResult& spec,
                      const std::string& what) {
  ASSERT_EQ(seq.success, spec.success) << what << ": " << spec.failure_reason;
  EXPECT_EQ(seq.ii, spec.ii) << what;
  EXPECT_EQ(seq.ii_lo, spec.ii_lo) << what;
  EXPECT_EQ(seq.schedules_tried, spec.schedules_tried) << what;
  EXPECT_EQ(seq.time_stats.sat_calls, spec.time_stats.sat_calls) << what;
}

/// Determinism on the suite: the cold race and the sequential walk agree
/// on feasibility, the exact final II and the effort. Grid 5 is
/// load-bearing: it is where a certificate-sharing walk historically
/// settled one II above sequential on hotspot3D (which is why the race
/// shares no certificates unless given a store).
TEST(SpeculativeMapper, MatchesSequentialOnSuiteGrids) {
  const DecoupledMapper mapper(fast_options());
  for (const char* name : {"bitcount", "fft", "nw", "hotspot3D", "cfd"}) {
    const Benchmark& b = benchmark_by_name(name);
    for (const int side : {4, 5, 8}) {
      const CgraArch arch = CgraArch::square(side);
      const std::string what =
          std::string(name) + " " + std::to_string(side) + "x" +
          std::to_string(side);
      const MapResult seq = mapper.map(b.dfg, arch);
      const MapResult spec = mapper.map(b.dfg, arch, race_options());
      expect_same_walk(seq, spec, what);
      if (seq.success) {
        EXPECT_TRUE(mapping_is_valid(b.dfg, arch, spec.mapping)) << what;
      }
    }
  }
}

/// Determinism across 10 random DFGs: same final II as sequential map().
TEST(SpeculativeMapper, MatchesSequentialOnRandomDfgs) {
  const DecoupledMapper mapper(fast_options());
  const CgraArch arch = CgraArch::square(4);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SyntheticSpec dfg_spec;
    dfg_spec.num_nodes = 18;
    dfg_spec.seed = seed;
    const Dfg dfg = random_dfg(dfg_spec);
    const MapResult seq = mapper.map(dfg, arch);
    const MapResult spec = mapper.map(dfg, arch, race_options());
    expect_same_walk(seq, spec, "seed " + std::to_string(seed));
    if (seq.success) {
      EXPECT_TRUE(mapping_is_valid(dfg, arch, spec.mapping)) << seed;
    }
  }
}

/// The narrowest race — one II beyond the frontier on two workers, the
/// shape every map_batch case takes — must still agree.
TEST(SpeculativeMapper, LookaheadOneStillMatches) {
  const DecoupledMapper mapper(fast_options());
  const Benchmark& b = benchmark_by_name("hotspot3D");
  const CgraArch arch = CgraArch::square(4);
  const MapResult seq = mapper.map(b.dfg, arch);
  const MapResult r = mapper.map(b.dfg, arch, race_options(1));
  expect_same_walk(seq, r, "hotspot3D 4x4");
}

/// map_at_ii is the exact per-II policy of map(): pinned below the
/// sequential answer it refutes, at the answer it succeeds.
TEST(SpeculativeMapper, MapAtIiMirrorsSequentialDecisions) {
  const DecoupledMapper mapper(fast_options());
  const Benchmark& b = benchmark_by_name("hotspot3D");
  const CgraArch arch = CgraArch::square(4);
  const MapResult seq = mapper.map(b.dfg, arch);
  ASSERT_TRUE(seq.success) << seq.failure_reason;
  ASSERT_GT(seq.ii, seq.mii.mii())
      << "hotspot3D/4x4 is expected to escalate past mII; if this ever "
         "changes pick another escalation-heavy case for this test";
  for (int ii = seq.mii.mii(); ii < seq.ii; ++ii) {
    const MapResult r = mapper.map_at_ii(b.dfg, arch, ii, Deadline(120.0));
    EXPECT_FALSE(r.success) << "II " << ii;
    EXPECT_EQ(r.outcome, MapOutcome::kRefuted)
        << "II " << ii << ": must be a refutation, " << r.failure_reason;
  }
  const MapResult r =
      mapper.map_at_ii(b.dfg, arch, seq.ii, Deadline(120.0));
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_EQ(r.ii, seq.ii);
  EXPECT_TRUE(mapping_is_valid(b.dfg, arch, r.mapping));
}

/// Soundness of cross-II certificate lifting, checked against BOTH time
/// engines: certificates harvested from refuted lower IIs are injected
/// into an attempt at the feasible II, which must still find a valid
/// mapping at the same II — the lifted clauses prune relabelings of dead
/// placements, never a placeable schedule.
TEST(SpeculativeMapper, CrossIiCertificatesAreSoundOnBothEngines) {
  DecoupledMapperOptions opt = fast_options();
  const DecoupledMapper mapper(opt);
  const Benchmark& b = benchmark_by_name("hotspot3D");
  const CgraArch arch = CgraArch::square(8);
  const MapResult seq = mapper.map(b.dfg, arch);
  ASSERT_TRUE(seq.success) << seq.failure_reason;
  ASSERT_GT(seq.ii, seq.mii.mii())
      << "needs a case whose lower IIs are refuted so the store fills up";

  CrossIiNogoodStore store;
  for (int ii = seq.mii.mii(); ii < seq.ii; ++ii) {
    const MapResult r =
        mapper.map_at_ii(b.dfg, arch, ii, Deadline(120.0), &store);
    EXPECT_FALSE(r.success) << "II " << ii;
    EXPECT_EQ(r.outcome, MapOutcome::kRefuted) << "II " << ii;
  }
  ASSERT_GT(store.size(), 0u)
      << "the refuted IIs produced no certificates — the lifting channel "
         "is not being exercised";

  for (const TimeEngine engine :
       {TimeEngine::kIncremental, TimeEngine::kReference}) {
    DecoupledMapperOptions eopt = fast_options();
    eopt.time.engine = engine;
    const MapResult r = DecoupledMapper(eopt).map_at_ii(
        b.dfg, arch, seq.ii, Deadline(120.0), &store);
    ASSERT_TRUE(r.success)
        << to_string(engine) << ": " << r.failure_reason;
    EXPECT_EQ(r.ii, seq.ii) << to_string(engine);
    EXPECT_GT(r.time_stats.nogoods_lifted_cross_ii, 0) << to_string(engine);
    EXPECT_TRUE(mapping_is_valid(b.dfg, arch, r.mapping))
        << to_string(engine);
  }
}

/// The warm (certificate-sharing) race gives up bit-exact agreement with
/// sequential — certificate arrival can move the retry policy's give-up
/// points — but never soundness: it must always produce a mapping that
/// validates, at an II no better than feasibility allows.
TEST(SpeculativeMapper, WarmStartStaysSoundAndValid) {
  const DecoupledMapper mapper(fast_options());
  for (const char* name : {"hotspot3D", "cfd"}) {
    const Benchmark& b = benchmark_by_name(name);
    for (const int side : {5, 8}) {
      const CgraArch arch = CgraArch::square(side);
      CrossIiNogoodStore store;
      WalkOptions walk = race_options();
      walk.store = &store;
      const MapResult r = mapper.map(b.dfg, arch, walk);
      ASSERT_TRUE(r.success) << name << " " << side << ": "
                             << r.failure_reason;
      EXPECT_GE(r.ii, r.mii.mii()) << name << " " << side;
      EXPECT_TRUE(mapping_is_valid(b.dfg, arch, r.mapping))
          << name << " " << side;
    }
  }
}

/// Unit semantics of the certificate store: canonicalisation, dedup,
/// rotation instantiation and the permutation prefilter.
TEST(CrossIiStore, CanonicalisesAndDeduplicates) {
  CrossIiNogoodStore store;
  // Labels 0,1,0,1 over nodes 0..3: blocks {0,2} and {1,3}.
  EXPECT_TRUE(store.add(2, {3, 0, 2, 1}, {0, 1, 0, 1}));
  // Same partition from a different II and node order: still a duplicate
  // (block_slots are not part of the identity, the partition is).
  EXPECT_FALSE(store.add(4, {0, 1, 2, 3}, {5, 7, 5, 7}));
  EXPECT_EQ(store.size(), 1u);
  // A genuinely different partition is kept.
  EXPECT_TRUE(store.add(2, {0, 1, 2, 3}, {0, 0, 1, 1}));
  EXPECT_EQ(store.size(), 2u);
}

TEST(CrossIiStore, RotationInstantiationCoversTargetIi) {
  CrossIiNogoodStore store;
  ASSERT_TRUE(store.add(2, {0, 1, 2}, {0, 1, 0}));
  std::size_t cursor = 0;
  std::vector<SlotPartitionCert> certs;
  store.drain(&cursor, &certs);
  ASSERT_EQ(certs.size(), 1u);
  const auto rotations = instantiate_rotations(certs[0], 3);
  // One clause per target slot rotation.
  ASSERT_EQ(rotations.size(), 3u);
  for (const auto& clause : rotations) {
    ASSERT_EQ(clause.size(), 3u);
    // Nodes 0 and 2 shared a slot at the source II; every instantiation
    // keeps them equal and node 1 offset by the source block distance.
    int slot02 = -1;
    for (const auto& [v, slot] : clause) {
      EXPECT_GE(slot, 0);
      EXPECT_LT(slot, 3);
      if (v == 0 || v == 2) {
        if (slot02 < 0) slot02 = slot;
        EXPECT_EQ(slot, slot02);
      }
    }
  }
  // Drain cursor advances: nothing new on a second drain.
  std::vector<SlotPartitionCert> again;
  store.drain(&cursor, &again);
  EXPECT_TRUE(again.empty());
}

TEST(CrossIiStore, PrefilterMatchesCoarserPartitionsOnly) {
  CrossIiNogoodStore store;
  ASSERT_TRUE(store.add(2, {0, 1, 2, 3}, {0, 0, 1, 1}));
  std::size_t cursor = 0;
  std::vector<SlotPartitionCert> certs;
  store.drain(&cursor, &certs);
  ASSERT_EQ(certs.size(), 1u);
  // Same partition under arbitrary relabeling: hit.
  EXPECT_TRUE(cert_hits_labels(certs[0], {4, 4, 2, 2}));
  // Coarser (all merged): still a hit — merging blocks only tightens.
  EXPECT_TRUE(cert_hits_labels(certs[0], {3, 3, 3, 3}));
  // A block split apart: no hit.
  EXPECT_FALSE(cert_hits_labels(certs[0], {0, 1, 1, 1}));
}

/// Cancellation stress: cancel the race from another thread at varying
/// points in its life. Every run must come back promptly, and a cut-short
/// run must report cancelled (not a bare wall-clock timeout). Runs warm
/// so TSan additionally exercises the certificate store alongside the
/// token chain and the pool teardown.
TEST(SpeculativeMapper, CancellationStress) {
  const DecoupledMapper mapper(fast_options());
  const Benchmark& b = benchmark_by_name("cfd");
  const CgraArch arch = CgraArch::square(8);
  for (const int delay_ms : {0, 1, 3, 10, 30, 100}) {
    CancelToken cancel;
    const Deadline deadline(600.0, &cancel);
    std::thread axe([&cancel, delay_ms] {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      cancel.cancel();
    });
    CrossIiNogoodStore store;
    WalkOptions walk = race_options();
    walk.store = &store;
    const MapResult r = mapper.map(b.dfg, arch, deadline, walk);
    axe.join();
    if (r.success) {
      // The race beat the axe; the mapping must still be a real one.
      EXPECT_TRUE(mapping_is_valid(b.dfg, arch, r.mapping)) << delay_ms;
    } else {
      EXPECT_EQ(r.outcome, MapOutcome::kCancelled)
          << delay_ms << ": " << r.failure_reason;
    }
  }
}

/// An expired wall clock without a fired token is a deadline, NOT a cancel
/// — the two outcomes must stay distinguishable.
TEST(SpeculativeMapper, ExpiredDeadlineIsNotReportedAsCancelled) {
  const DecoupledMapper mapper(fast_options());
  const Benchmark& b = benchmark_by_name("fft");
  const CgraArch arch = CgraArch::square(4);
  const MapResult r =
      mapper.map(b.dfg, arch, Deadline(0.0), race_options());
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.outcome, MapOutcome::kDeadline);
}

}  // namespace
}  // namespace monomap
