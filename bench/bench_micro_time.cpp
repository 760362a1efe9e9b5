// Micro-benchmark A7: time-phase engine comparison.
//
// Two modes:
//  * default — google-benchmark timings of the incremental vs reference
//    time engines on representative solves (single-shot and
//    horizon-extension-heavy cases);
//  * --json [--grid N] [--repeats R] — machine-readable end-to-end map()
//    wall-clock comparison over the whole workload suite per engine,
//    recorded in BENCH_time.json to track the time-phase perf trajectory
//    across PRs. Every row is (suite, [grid,] engine, seconds) plus the
//    last run's result as write_json writes it: outcome, II and interval,
//    and every effort counter. The "hard" section additionally records
//    engine="speculative" rows — the cross-II race (a lookahead-2 walk),
//    which lands on the incremental rows' answer and effort and adds the
//    pool's steals.
#include <benchmark/benchmark.h>

#include <cstring>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "mapper/decoupled_mapper.hpp"
#include "support/json.hpp"
#include "support/stopwatch.hpp"
#include "timing/time_solver.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace monomap;
using monomap::bench::first_schedule;
using monomap::bench::median;

TimeSolverOptions engine_options(TimeEngine engine) {
  TimeSolverOptions opt;
  opt.engine = engine;
  return opt;
}

void BM_TimeFirstSolution(benchmark::State& state) {
  // First schedule of a mid-size suite benchmark (Arg 0: engine).
  const CgraArch arch = CgraArch::square(8);
  const Benchmark& b = benchmark_by_name("fft");
  const TimeEngine engine = state.range(0) == 0 ? TimeEngine::kIncremental
                                                : TimeEngine::kReference;
  for (auto _ : state) {
    const auto sol =
        first_schedule(b.dfg, arch, Deadline(30.0), engine_options(engine));
    benchmark::DoNotOptimize(sol.has_value());
  }
}
BENCHMARK(BM_TimeFirstSolution)->Arg(0)->Arg(1);

void BM_TimeScheduleEnumeration(benchmark::State& state) {
  // The mapper's retry pattern: enumerate 8 distinct schedules at mII
  // (Arg 0: engine). The incremental engine answers re-solves from a warm
  // solver.
  const CgraArch arch = CgraArch::square(8);
  const Benchmark& b = benchmark_by_name("gsm");
  const TimeEngine engine = state.range(0) == 0 ? TimeEngine::kIncremental
                                                : TimeEngine::kReference;
  const int ii = compute_mii(b.dfg, arch).mii();
  for (auto _ : state) {
    TimeSolver solver(b.dfg, arch, ii, engine_options(engine));
    int yielded = 0;
    while (yielded < 8 && solver.next(Deadline(30.0)).has_value()) {
      ++yielded;
    }
    benchmark::DoNotOptimize(yielded);
  }
}
BENCHMARK(BM_TimeScheduleEnumeration)->Arg(0)->Arg(1);

void BM_TimeHorizonExtensions(benchmark::State& state) {
  // Capacity-bound chain on one PE at II 6: horizons 4 and 5 are UNSAT,
  // so the walk from the critical path needs two extensions before the
  // first schedule appears (Arg 0: 0 = one TimeSession extended in place,
  // 1 = a fresh TimeFormulation per horizon). TimeSolver would start at
  // the capacity floor and skip that walk, so the layers are driven
  // directly.
  const Dfg dfg = Dfg::from_edges(
      "chain6", 6,
      {{0, 1, 0}, {1, 2, 0}, {2, 3, 0}, {0, 4, 0}, {1, 5, 0}});
  const CgraArch arch(1, 1);
  const int ii = 6;
  for (auto _ : state) {
    bool found = false;
    if (state.range(0) == 0) {
      TimeSession session(dfg, arch, ii);
      while (!(found = session.solve(Deadline(30.0)) == SatStatus::kSat) &&
             session.extend_horizon()) {
      }
    } else {
      for (int horizon = critical_path_length(dfg); !found; ++horizon) {
        TimeFormulation formulation(dfg, arch, ii, horizon);
        found = formulation.build() &&
                formulation.solve(Deadline(30.0)) == SatStatus::kSat;
      }
    }
    benchmark::DoNotOptimize(found);
  }
}
BENCHMARK(BM_TimeHorizonExtensions)->Arg(0)->Arg(1);

// --- --json mode -----------------------------------------------------------

/// One way of running map(): the time engine and the lookahead (above 0
/// races the walk).
struct Variant {
  const char* engine;  // the row's engine name
  TimeEngine time_engine;
  int lookahead;
};

constexpr Variant kIncremental{"incremental", TimeEngine::kIncremental, 0};
constexpr Variant kReference{"reference", TimeEngine::kReference, 0};

/// Median wall clock of `repeats` map() calls run as `v`; `last` receives
/// the last call's result.
double timed_map(const Dfg& dfg, const CgraArch& arch, double timeout_s,
                 const Variant& v, int repeats, MapResult& last) {
  DecoupledMapperOptions opt;
  opt.timeout_s = timeout_s;
  opt.time.engine = v.time_engine;
  const DecoupledMapper mapper(opt);
  std::vector<double> seconds;
  for (int r = 0; r < repeats; ++r) {
    Stopwatch wall;
    last = mapper.map(dfg, arch, v.lookahead);
    seconds.push_back(wall.elapsed_s());
  }
  return median(seconds);
}

/// One row: suite, grid (< 0: the document's), engine, the median seconds
/// and the last run's result.
void write_row(json::Writer& json, const std::string& suite, int grid,
               const char* engine, double seconds, const MapResult& last) {
  json.begin_object();
  json.field("suite", suite);
  if (grid >= 0) json.field("grid", grid);
  json.field("engine", engine);
  json.field("seconds", seconds);
  write_json(json, last);
  json.end_object();
}

/// Per-(benchmark, engine) records.
void run_json_mode(int grid, int repeats) {
  const CgraArch arch = CgraArch::square(grid);
  json::Writer json;
  json.begin_object();
  json.field("bench", "bench_micro_time");
  json.field("grid", grid);
  json.field("topology", topology_name(arch.topology()));
  json.field("repeats", repeats);

  std::vector<double> ratios;
  json.key("time");
  json.begin_array();
  for (const Benchmark& b : benchmark_suite()) {
    MapResult last;
    const double incremental =
        timed_map(b.dfg, arch, 60.0, kIncremental, repeats, last);
    write_row(json, b.name, -1, kIncremental.engine, incremental, last);
    const double reference =
        timed_map(b.dfg, arch, 60.0, kReference, repeats, last);
    write_row(json, b.name, -1, kReference.engine, reference, last);
    if (incremental > 0.0) ratios.push_back(reference / incremental);
  }
  json.end_array();

  // Space-failure-heavy instances on the smaller paper grids: this is
  // where schedule seeding, retry diversification, conflict-set nogoods
  // and the adaptive space budget are decisive, so the baseline pins them
  // explicitly (nw rides along for its II-3-vs-4 sensitivity to the
  // refutation-patience rule). Grid 2 is the paper's 2x2 mesh, where the
  // time phase itself is the hard part: pigeonhole horizons that the
  // capacity floor skips (capacity_refuted_horizons) used to cost SAT
  // seconds there. Each case also records the cross-II race, a lookahead-2
  // walk (3 workers, clamped to the machine's cores): engine="speculative"
  // lands on the incremental rows' final II and effort bit-exactly.
  const Variant variants[] = {
      kIncremental, kReference,
      {"speculative", TimeEngine::kIncremental, 2}};
  json.key("hard");
  json.begin_array();
  for (const char* name : {"hotspot3D", "cfd", "nw"}) {
    const Benchmark& b = benchmark_by_name(name);
    for (const int side : {2, 4, 5, 8}) {
      for (const Variant& v : variants) {
        MapResult last;
        const double med = timed_map(b.dfg, CgraArch::square(side), 120.0, v,
                                     repeats, last);
        write_row(json, b.name, side, v.engine, med, last);
      }
    }
  }
  json.end_array();

  json.key("summary");
  json.begin_object();
  json.field("median_speedup_reference_over_incremental", median(ratios));
  json.end_object();
  json.end_object();
  std::cout << json.str() << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  int grid = 8;
  int repeats = 5;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    if (std::strcmp(argv[i], "--grid") == 0 && i + 1 < argc) {
      grid = std::atoi(argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--repeats") == 0 && i + 1 < argc) {
      repeats = std::atoi(argv[i + 1]);
    }
  }
  if (json) {
    run_json_mode(std::max(grid, 1), std::max(repeats, 1));
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
