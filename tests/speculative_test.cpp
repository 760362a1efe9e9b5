// Speculative cross-II race (a walk with lookahead above 0).
//
// The load-bearing property is determinism: the race may only buy wall
// clock, never change the answer — the committed II must equal what the
// lookahead-0 walk finds, because a feasible II commits only after every
// strictly smaller II has been refuted, and every attempt is a pure
// function of its II. The tests here pin that agreement (answer and
// effort) across the suite and random DFGs and stress the cancellation
// plumbing (run these under ThreadSanitizer via -DMONOMAP_TSAN=ON to check
// the pool synchronisation).
#include <chrono>
#include <string>
#include <thread>

#include <gtest/gtest.h>

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

/// IIs raced beyond the frontier: a pool of kLookahead + 1 workers,
/// clamped to the machine's cores.
constexpr int kLookahead = 2;

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

/// Determinism on the suite: the race and the sequential walk agree on
/// feasibility, the exact final II and the effort. Grid 5 is
/// load-bearing: hotspot3D there is borderline, and a walk that let
/// attempts influence each other historically settled it one II above
/// sequential.
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
      const MapResult spec = mapper.map(b.dfg, arch, kLookahead);
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
    const MapResult spec = mapper.map(dfg, arch, kLookahead);
    expect_same_walk(seq, spec, "seed " + std::to_string(seed));
    if (seq.success) {
      EXPECT_TRUE(mapping_is_valid(dfg, arch, spec.mapping)) << seed;
    }
  }
}

/// On 10x10 every nw attempt searches the fabric's pin fabric, which the
/// racing attempts build and read through the arch's memo: the race runs
/// first on a fresh fabric, so its workers are the ones that race to build
/// it, and must still agree with the sequential walk.
TEST(SpeculativeMapper, RacingAttemptsSharePinFabric) {
  const DecoupledMapper mapper(fast_options());
  const Benchmark& b = benchmark_by_name("nw");
  const CgraArch arch = CgraArch::square(10);
  const MapResult spec = mapper.map(b.dfg, arch, kLookahead);
  const MapResult seq = mapper.map(b.dfg, arch);
  expect_same_walk(seq, spec, "nw 10x10");
  EXPECT_TRUE(mapping_is_valid(b.dfg, arch, spec.mapping));
}

/// The narrowest race — one II beyond the frontier on two workers, the
/// shape every map_batch case takes — must still agree.
TEST(SpeculativeMapper, LookaheadOneStillMatches) {
  const DecoupledMapper mapper(fast_options());
  const Benchmark& b = benchmark_by_name("hotspot3D");
  const CgraArch arch = CgraArch::square(4);
  const MapResult seq = mapper.map(b.dfg, arch);
  const MapResult r = mapper.map(b.dfg, arch, /*lookahead=*/1);
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

/// Cancellation stress: cancel the race from another thread at varying
/// points in its life. Every run must come back promptly, and a cut-short
/// run must report cancelled (not a bare wall-clock timeout). Under TSan
/// this exercises the token chain and the pool teardown.
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
    const MapResult r = mapper.map(b.dfg, arch, deadline, kLookahead);
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
      mapper.map(b.dfg, arch, Deadline(0.0), kLookahead);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.outcome, MapOutcome::kDeadline);
}

}  // namespace
}  // namespace monomap
