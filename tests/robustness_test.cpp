// Robustness layer: the MapOutcome taxonomy, anytime graceful degradation,
// the resource governor, the deterministic fault-injection harness, and the
// Deadline/CancelToken edge cases around them.
//
// The load-bearing properties:
//  * every way a request can end maps to exactly one MapOutcome, never a
//    crash — injected faults included;
//  * degradation is deterministic: a deterministic work budget (not a wall
//    clock) cut mid-walk returns the same held mapping and the same sound
//    II interval on every rerun;
//  * all the robustness knobs default off, so the governed/fault-aware
//    build behaves bit-identically to the seed until a knob is turned.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mapper/decoupled_mapper.hpp"
#include "support/fault.hpp"
#include "support/outcome.hpp"
#include "support/parallel.hpp"
#include "support/resource.hpp"
#include "workloads/suite.hpp"
#include "workloads/synthetic.hpp"

namespace monomap {
namespace {

/// Every fault-installing test disarms on exit so later tests (and later
/// suites in the same binary) run clean.
struct FaultGuard {
  FaultGuard() = default;
  ~FaultGuard() { fault::clear_faults(); }
};

void install_spec(const std::string& spec) {
  std::string error;
  const auto plan = fault::parse_fault_spec(spec, &error);
  ASSERT_TRUE(plan.has_value()) << spec << ": " << error;
  fault::install_faults(*plan);
}

DecoupledMapperOptions base_options() {
  DecoupledMapperOptions opt;
  opt.timeout_s = 120.0;
  return opt;
}

// ---------------------------------------------------------------------------
// Outcome taxonomy
// ---------------------------------------------------------------------------

TEST(Outcome, ExitCodesAreDistinctAndStable) {
  // Scripted callers (CI's fault sweep) key on these exact values.
  EXPECT_EQ(exit_code(MapOutcome::kFeasible), 0);
  EXPECT_EQ(exit_code(MapOutcome::kDegraded), 3);
  EXPECT_EQ(exit_code(MapOutcome::kRefuted), 4);
  EXPECT_EQ(exit_code(MapOutcome::kDeadline), 5);
  EXPECT_EQ(exit_code(MapOutcome::kMemory), 6);
  EXPECT_EQ(exit_code(MapOutcome::kFault), 7);
  EXPECT_EQ(exit_code(MapOutcome::kCancelled), 8);
}

TEST(Outcome, NamesCoverEveryValue) {
  for (int i = 0; i < kMapOutcomeCount; ++i) {
    EXPECT_STRNE(to_string(static_cast<MapOutcome>(i)), "?");
  }
}

TEST(Outcome, FormatCausesChainsInOrder) {
  EXPECT_EQ(format_causes({}), "");
  EXPECT_EQ(format_causes({{"time", "deadline"}, {"governor", "tripped"}}),
            "time: deadline; governor: tripped");
}

// ---------------------------------------------------------------------------
// Fault-spec grammar
// ---------------------------------------------------------------------------

TEST(FaultSpec, ParsesRulesAndSeed) {
  std::string error;
  const auto plan = fault::parse_fault_spec(
      "sat.solve=throw@5,pool.worker=stall@3,space.search=alloc@7:42",
      &error);
  ASSERT_TRUE(plan.has_value()) << error;
  ASSERT_EQ(plan->rules.size(), 3u);
  EXPECT_EQ(plan->rules[0].site, "sat.solve");
  EXPECT_EQ(plan->rules[0].kind, fault::FaultKind::kThrow);
  EXPECT_EQ(plan->rules[0].period, 5u);
  EXPECT_EQ(plan->rules[1].kind, fault::FaultKind::kStall);
  EXPECT_EQ(plan->rules[2].kind, fault::FaultKind::kAlloc);
  EXPECT_EQ(plan->seed, 42u);
}

TEST(FaultSpec, SeedDefaultsToZero) {
  const auto plan = fault::parse_fault_spec("sat.solve=throw@1");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->seed, 0u);
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  for (const char* bad :
       {"sat.solve=throw",        // missing @period
        "sat.solve@5",            // missing =kind
        "sat.solve=explode@5",    // unknown kind
        "sat.solve=throw@0",      // period must be >= 1
        "sat.solve=throw@x",      // period not a number
        "=throw@5",               // empty site
        "sat.solve=throw@5,",     // trailing empty rule
        "sat.solve=throw@5:",     // empty seed
        "sat.solve=throw@5:12x"   // malformed seed
       }) {
    std::string error;
    EXPECT_FALSE(fault::parse_fault_spec(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(FaultSpec, FiringPatternIsSeedDeterministic) {
  const FaultGuard guard;
  const auto fire_pattern = [](std::uint64_t seed) {
    fault::FaultPlan plan;
    plan.rules.push_back({"sat.solve", fault::FaultKind::kThrow, 4});
    plan.seed = seed;
    fault::install_faults(plan);
    std::vector<int> fired;
    for (int i = 0; i < 40; ++i) {
      try {
        fault::maybe_inject("sat.solve");
      } catch (const fault::FaultInjectedError&) {
        fired.push_back(i);
      }
      fault::maybe_inject("space.search");  // other sites never fire
    }
    return fired;
  };
  const std::vector<int> a = fire_pattern(7);
  const std::vector<int> b = fire_pattern(7);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 10u);  // every 4th arrival, whatever the phase
}

// ---------------------------------------------------------------------------
// Deadline / CancelToken edges
// ---------------------------------------------------------------------------

TEST(Robustness, ZeroDurationDeadlineIsCleanDeadlineOutcome) {
  const Benchmark& b = benchmark_by_name("bitcount");
  const CgraArch arch = CgraArch::square(4);
  const DecoupledMapper mapper(base_options());
  const MapResult r = mapper.map(b.dfg, arch, Deadline(0.0));
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.outcome, MapOutcome::kDeadline);
  EXPECT_GE(r.ii_lo, 1);
  EXPECT_EQ(r.ii_hi, 0);
}

TEST(Robustness, CancelBeforeStartIsCancelledOutcome) {
  const Benchmark& b = benchmark_by_name("bitcount");
  const CgraArch arch = CgraArch::square(4);
  CancelToken token;
  token.cancel();
  const Deadline deadline(1000.0, &token);
  const DecoupledMapper mapper(base_options());
  const MapResult r = mapper.map(b.dfg, arch, deadline);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.outcome, MapOutcome::kCancelled);
}

TEST(Robustness, ParentChainCancelInterruptsFaultBackoff) {
  // A permanently-faulting solver with a huge retry budget spends its life
  // in backoff_sleep; a cancel arriving through a *parent* token must be
  // observed mid-sleep and end the request as kCancelled, promptly.
  const FaultGuard guard;
  install_spec("sat.solve=throw@1");
  CancelToken parent;
  CancelToken child(&parent);
  const Deadline deadline(1000.0, &child);
  DecoupledMapperOptions opt = base_options();
  opt.max_fault_retries = 1000000;
  const DecoupledMapper mapper(opt);
  const Benchmark& b = benchmark_by_name("bitcount");
  const CgraArch arch = CgraArch::square(4);
  std::thread canceller([&parent] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    parent.cancel();
  });
  const auto start = std::chrono::steady_clock::now();
  const MapResult r = mapper.map(b.dfg, arch, deadline);
  canceller.join();
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.outcome, MapOutcome::kCancelled);
  // The fault evidence survives classification.
  EXPECT_NE(std::find_if(r.causes.begin(), r.causes.end(),
                         [](const OutcomeCause& c) {
                           return c.site == "sat.solve";
                         }),
            r.causes.end())
      << format_causes(r.causes);
  EXPECT_LT(elapsed_s, 10.0);
}

// ---------------------------------------------------------------------------
// Anytime degradation
// ---------------------------------------------------------------------------

TEST(Anytime, FeasibleWalkIsUnchangedByAnytimeMode) {
  const Benchmark& b = benchmark_by_name("bitcount");
  const CgraArch arch = CgraArch::square(4);
  const DecoupledMapper plain(base_options());
  const MapResult reference = plain.map(b.dfg, arch);
  ASSERT_TRUE(reference.success);
  DecoupledMapperOptions opt = base_options();
  opt.anytime = true;
  const MapResult anytime = DecoupledMapper(opt).map(b.dfg, arch);
  ASSERT_TRUE(anytime.success);
  EXPECT_EQ(anytime.outcome, MapOutcome::kFeasible);
  EXPECT_EQ(anytime.ii, reference.ii);
  EXPECT_EQ(anytime.ii_hi, anytime.ii);
}

TEST(Anytime, ScheduleBudgetWithoutAnytimeIsDeadlineOutcome) {
  DecoupledMapperOptions opt = base_options();
  opt.max_schedules = 1;
  const Benchmark& b = benchmark_by_name("cfd");
  const CgraArch arch = CgraArch::square(4);
  const MapResult r = DecoupledMapper(opt).map(b.dfg, arch);
  if (r.success) GTEST_SKIP() << "cfd mapped on the first schedule";
  EXPECT_EQ(r.outcome, MapOutcome::kDeadline);
  ASSERT_FALSE(r.causes.empty());
  EXPECT_EQ(r.causes.front().site, "budget");
}

TEST(Anytime, DegradedModeIsDeterministic) {
  // The acceptance property: a deterministic budget cut mid-walk returns
  // the held feasible mapping marked degraded with a sound [lo, hi]
  // interval — bit-identical across reruns.
  DecoupledMapperOptions opt = base_options();
  opt.anytime = true;
  opt.max_schedules = 6;
  const DecoupledMapper mapper(opt);
  const Benchmark& b = benchmark_by_name("cfd");
  const CgraArch arch = CgraArch::square(4);
  const MapResult r1 = mapper.map(b.dfg, arch);
  const MapResult r2 = mapper.map(b.dfg, arch);
  ASSERT_TRUE(r1.success) << r1.failure_reason;
  ASSERT_EQ(r1.outcome, MapOutcome::kDegraded);
  // Sound interval: the held mapping bounds from above, the refuted prefix
  // from below, and the true minimum sits in between.
  EXPECT_EQ(r1.ii_hi, r1.ii);
  EXPECT_GE(r1.ii_lo, 1);
  EXPECT_LE(r1.ii_lo, r1.ii_hi);
  // Bit-identical rerun.
  EXPECT_EQ(r2.outcome, r1.outcome);
  EXPECT_EQ(r2.ii, r1.ii);
  EXPECT_EQ(r2.ii_lo, r1.ii_lo);
  EXPECT_EQ(r2.ii_hi, r1.ii_hi);
  EXPECT_EQ(r2.schedules_tried, r1.schedules_tried);
  ASSERT_EQ(r2.mapping.num_nodes(), r1.mapping.num_nodes());
  for (NodeId v = 0; v < r1.mapping.num_nodes(); ++v) {
    EXPECT_EQ(r2.mapping.time(v), r1.mapping.time(v)) << "node " << v;
    EXPECT_EQ(r2.mapping.pe(v), r1.mapping.pe(v)) << "node " << v;
  }
  // The degraded mapping still validates.
  EXPECT_TRUE(validate_mapping(b.dfg, arch, r1.mapping,
                               MrrgModel::kRegisterPersistence)
                  .empty());
}

TEST(Anytime, RefutationBelowMiiIsSoundAndRefutedOutcome) {
  const Benchmark& b = benchmark_by_name("fft");
  const CgraArch arch = CgraArch::square(4);
  const DecoupledMapper probe(base_options());
  const MapResult feasible = probe.map(b.dfg, arch);
  ASSERT_TRUE(feasible.success);
  if (feasible.mii.mii() < 2) GTEST_SKIP() << "mII too small to cap below";
  // Cap the search strictly below mII: the time phase refutes the whole
  // range without one SAT call — the strongest sound refutation there is.
  DecoupledMapperOptions opt = base_options();
  opt.max_ii = feasible.mii.mii() - 1;
  const MapResult r = DecoupledMapper(opt).map(b.dfg, arch);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.outcome, MapOutcome::kRefuted);
  EXPECT_TRUE(r.sound_refutation);
  EXPECT_EQ(r.ii_refuted_up_to, feasible.mii.mii() - 1);
  EXPECT_EQ(r.ii_lo, feasible.mii.mii());
  EXPECT_EQ(r.ii_hi, 0);
}

// ---------------------------------------------------------------------------
// Resource governor
// ---------------------------------------------------------------------------

TEST(Governor, ChargesRollBackAndTripLatches) {
  ResourceGovernor gov(1000);
  EXPECT_TRUE(gov.try_charge(600));
  EXPECT_FALSE(gov.try_charge(600));  // would exceed: nothing charged
  EXPECT_EQ(gov.used(), 600u);
  EXPECT_TRUE(gov.try_charge(400));
  EXPECT_TRUE(gov.soft_pressure());
  gov.uncharge(1000);
  EXPECT_EQ(gov.used(), 0u);
  EXPECT_EQ(gov.peak(), 1000u);
  gov.trip("first cause");
  gov.trip("second cause");
  EXPECT_TRUE(gov.tripped());
  EXPECT_STREQ(gov.trip_reason(), "first cause");  // first trip wins
  EXPECT_FALSE(gov.try_charge(1));  // tripped governor grants nothing
}

TEST(Governor, ZeroBudgetIsUnlimited) {
  ResourceGovernor gov(0);
  EXPECT_TRUE(gov.try_charge(std::size_t{1} << 40));
  EXPECT_FALSE(gov.soft_pressure());
  EXPECT_FALSE(gov.tripped());
}

TEST(Governor, ScopeNestsAndNullIsNoOpShadow) {
  EXPECT_EQ(GovernorScope::current(), nullptr);
  ResourceGovernor outer(0);
  {
    const GovernorScope a(&outer);
    EXPECT_EQ(GovernorScope::current(), &outer);
    {
      const GovernorScope b(nullptr);  // no-op shadow
      EXPECT_EQ(GovernorScope::current(), &outer);
      ResourceGovernor inner(0);
      const GovernorScope c(&inner);
      EXPECT_EQ(GovernorScope::current(), &inner);
    }
    EXPECT_EQ(GovernorScope::current(), &outer);
  }
  EXPECT_EQ(GovernorScope::current(), nullptr);
}

TEST(Governor, StarvedRequestEndsAsMemoryOutcome) {
  // A 64-byte budget denies the very first real reservation (SAT learnt
  // clause or searcher trail, whichever comes first): the request must end
  // as a classified kMemory outcome, never an abort.
  ResourceGovernor gov(64);
  const GovernorScope scope(&gov);
  const Benchmark& b = benchmark_by_name("bitcount");
  const CgraArch arch = CgraArch::square(4);
  const MapResult r = DecoupledMapper(base_options()).map(b.dfg, arch);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.outcome, MapOutcome::kMemory);
  EXPECT_TRUE(gov.tripped());
  ASSERT_FALSE(r.causes.empty());
}

TEST(Governor, GenerousBudgetMatchesUngoverned) {
  const Benchmark& b = benchmark_by_name("fft");
  const CgraArch arch = CgraArch::square(4);
  const MapResult plain = DecoupledMapper(base_options()).map(b.dfg, arch);
  DecoupledMapperOptions opt = base_options();
  opt.memory_budget_mb = 512;
  const MapResult governed = DecoupledMapper(opt).map(b.dfg, arch);
  ASSERT_EQ(governed.success, plain.success);
  EXPECT_EQ(governed.outcome, MapOutcome::kFeasible);
  EXPECT_EQ(governed.ii, plain.ii);
  EXPECT_EQ(governed.schedules_tried, plain.schedules_tried);
  EXPECT_GT(governed.mem_peak_bytes, 0u);  // telemetry actually flows
  EXPECT_EQ(plain.mem_peak_bytes, 0u);     // ...and only when asked for
}

TEST(Governor, BatchReportsTelemetryAtEveryThreadCount) {
  // The batch's governor reports into every case, whether the cases take
  // turns on the caller's thread or share a pool.
  std::vector<const Dfg*> dfgs;
  for (const char* name :
       {"gsm", "fft", "susan", "nw", "lud", "sha1", "hotspot3D"}) {
    dfgs.push_back(&benchmark_by_name(name).dfg);
  }
  const CgraArch arch = CgraArch::square(4);
  DecoupledMapperOptions opt = base_options();
  opt.memory_budget_mb = 512;
  for (const int threads : {1, 3}) {
    const std::vector<MapResult> batch =
        DecoupledMapper(opt).map_batch(dfgs, arch, threads);
    ASSERT_EQ(batch.size(), dfgs.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch[i].outcome, MapOutcome::kFeasible)
          << threads << " threads, case " << i;
      EXPECT_GT(batch[i].mem_peak_bytes, 0u)
          << threads << " threads, case " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Worker pool under faults
// ---------------------------------------------------------------------------

TEST(Pool, CollectReturnsTaskErrorAndPoolStaysUsable) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task died"); });
  const std::exception_ptr error = pool.wait_idle_collect();
  ASSERT_NE(error, nullptr);
  EXPECT_THROW(std::rethrow_exception(error), std::runtime_error);
  // The pool survives: the queue drained, pending balanced, workers alive.
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&ran] { ran.fetch_add(1); });
  }
  EXPECT_EQ(pool.wait_idle_collect(), nullptr);
  EXPECT_EQ(ran.load(), 8);
}

TEST(Pool, WaitIdleRethrowsCollectedError) {
  ThreadPool pool(1);
  pool.submit([] { throw std::runtime_error("task died"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  pool.wait_idle();  // error was consumed; the pool is clean again
}

TEST(Pool, WorkerFaultRequeuesTaskInsteadOfDroppingIt) {
  const FaultGuard guard;
  install_spec("pool.worker=throw@3:1");
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 30; ++i) {
    pool.submit([&ran] { ran.fetch_add(1); });
  }
  // Injected worker faults requeue the task they pre-empted — every task
  // still runs exactly once and no error surfaces.
  EXPECT_EQ(pool.wait_idle_collect(), nullptr);
  EXPECT_EQ(ran.load(), 30);
  EXPECT_GT(pool.fault_requeues(), 0u);
}

TEST(Pool, WorkerFaultsPastTheRequeueCapStillRunTheTask) {
  const FaultGuard guard;
  install_spec("pool.worker=throw@1");
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&ran] { ran.fetch_add(1); });
  }
  // Every pickup faults. The first 4,096 requeue their task; past that cap
  // a task runs anyway, so nothing is dropped and no error surfaces.
  EXPECT_EQ(pool.wait_idle_collect(), nullptr);
  EXPECT_EQ(ran.load(), 8);
  EXPECT_EQ(pool.fault_requeues(), 4096u);
}

// ---------------------------------------------------------------------------
// End-to-end fault sweep: every injected class lands in its taxonomy bucket
// ---------------------------------------------------------------------------

TEST(FaultSweep, PermanentThrowAtEachSiteIsFaultOutcome) {
  const Benchmark& b = benchmark_by_name("bitcount");
  const CgraArch arch = CgraArch::square(4);
  for (const char* site : {"sat.solve", "space.search", "time.session"}) {
    const FaultGuard guard;
    install_spec(std::string(site) + "=throw@1");
    const MapResult r = DecoupledMapper(base_options()).map(b.dfg, arch);
    EXPECT_FALSE(r.success) << site;
    EXPECT_EQ(r.outcome, MapOutcome::kFault) << site;
    EXPECT_EQ(r.fault_retries, 3) << site;  // default retry budget spent
    ASSERT_FALSE(r.causes.empty()) << site;
    EXPECT_EQ(r.causes.front().site, site);
  }
}

TEST(FaultSweep, AllocFaultIsMemoryOutcome) {
  const FaultGuard guard;
  install_spec("sat.solve=alloc@1");
  const Benchmark& b = benchmark_by_name("bitcount");
  const CgraArch arch = CgraArch::square(4);
  const MapResult r = DecoupledMapper(base_options()).map(b.dfg, arch);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.outcome, MapOutcome::kMemory);
}

TEST(FaultSweep, StallFaultOnlySlowsTheRequest) {
  const FaultGuard guard;
  install_spec("sat.solve=stall@5:9");
  const Benchmark& b = benchmark_by_name("bitcount");
  const CgraArch arch = CgraArch::square(4);
  const MapResult r = DecoupledMapper(base_options()).map(b.dfg, arch);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.outcome, MapOutcome::kFeasible);
}

TEST(FaultSweep, TransientThrowIsRetriedToFeasible) {
  // Period 1000 with the default 3-retry budget: the first walk dies at
  // the 1000th SAT call of the process-wide counter at most once per map;
  // use a fresh period that fires once early, then never again within the
  // retry window — period large enough that retry 1 completes clean.
  const FaultGuard guard;
  fault::FaultPlan plan;
  plan.rules.push_back({"space.search", fault::FaultKind::kThrow, 50});
  plan.seed = 3;
  fault::install_faults(plan);
  const Benchmark& b = benchmark_by_name("bitcount");
  const CgraArch arch = CgraArch::square(4);
  const MapResult r = DecoupledMapper(base_options()).map(b.dfg, arch);
  // Either the walk never hit the firing phase (fine) or it did and the
  // retry recovered. A permanent failure would be a kFault — that is the
  // one verdict this plan must never produce.
  EXPECT_NE(r.outcome, MapOutcome::kFault);
  EXPECT_TRUE(r.success) << r.failure_reason;
}

TEST(FaultSweep, SpeculativeSurvivesPermanentFaults) {
  const FaultGuard guard;
  install_spec("sat.solve=throw@1");
  const Benchmark& b = benchmark_by_name("bitcount");
  const CgraArch arch = CgraArch::square(4);
  DecoupledMapperOptions opt = base_options();
  opt.timeout_s = 20.0;
  const MapResult r = DecoupledMapper(opt).map(b.dfg, arch, /*lookahead=*/1);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.outcome, MapOutcome::kFault);
}

TEST(FaultSweep, BatchCompletesEveryCaseUnderWorkerFaults) {
  const FaultGuard guard;
  install_spec("pool.worker=throw@2:5");
  const CgraArch arch = CgraArch::square(4);
  std::vector<const Dfg*> dfgs;
  std::vector<Dfg> storage;
  storage.reserve(3);
  for (const char* name : {"bitcount", "fft", "nw"}) {
    storage.push_back(benchmark_by_name(name).dfg);
  }
  for (const Dfg& dfg : storage) dfgs.push_back(&dfg);
  BatchStats stats;
  const std::vector<MapResult> results =
      DecoupledMapper(base_options())
          .map_batch(dfgs, arch, Deadline(120.0), 2, &stats);
  ASSERT_EQ(results.size(), 3u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].success) << i << ": " << results[i].failure_reason;
    EXPECT_EQ(results[i].outcome, MapOutcome::kFeasible) << i;
  }
  EXPECT_EQ(stats.outcome_counts[static_cast<std::size_t>(
                MapOutcome::kFeasible)],
            3u);
}

TEST(Batch, SequentialPathFillsOutcomeCounters) {
  const CgraArch arch = CgraArch::square(4);
  std::vector<Dfg> storage;
  storage.push_back(benchmark_by_name("bitcount").dfg);
  storage.push_back(benchmark_by_name("fft").dfg);
  std::vector<const Dfg*> dfgs;
  for (const Dfg& dfg : storage) dfgs.push_back(&dfg);
  BatchStats stats;
  const std::vector<MapResult> results =
      DecoupledMapper(base_options())
          .map_batch(dfgs, arch, Deadline(120.0), 1, &stats);
  ASSERT_EQ(results.size(), 2u);
  std::uint64_t total = 0;
  for (const std::uint64_t c : stats.outcome_counts) total += c;
  EXPECT_EQ(total, 2u);
  EXPECT_EQ(stats.outcome_counts[static_cast<std::size_t>(
                MapOutcome::kFeasible)],
            2u);
}

}  // namespace
}  // namespace monomap
