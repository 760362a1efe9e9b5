// Micro-benchmark A4: CDCL solver throughput on classic instance families.
// The SAT engine is the substrate of both mappers; this tracks its raw
// performance independently of the mapping formulations.
//
// Two modes:
//  * default — google-benchmark timings of each family;
//  * --json [--repeats R] — one row per instance, recorded in
//    BENCH_sat.json as the SAT layer's baseline: the families below at fixed
//    seeds plus the time formulations of Table III's slowest 2x2 rows (cfd
//    at II 13, hotspot3D at II 15, one session at the capacity floor, as the
//    mapper solves them). Each row holds the median wall clock of building
//    and solving the instance and the solvers' summed sat_conflicts,
//    sat_decisions and sat_propagations, which repeat exactly.
#include <benchmark/benchmark.h>

#include <cstring>
#include <functional>
#include <iostream>
#include <string>
#include <thread>

#include "bench_common.hpp"
#include "encode/cnf_builder.hpp"
#include "sat/solver.hpp"
#include "sched/kms.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "support/stopwatch.hpp"
#include "timing/time_session.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace monomap;

CnfFormula random_3sat(int num_vars, double ratio, std::uint64_t seed) {
  Rng rng(seed);
  CnfFormula f;
  f.num_vars = num_vars;
  const int num_clauses = static_cast<int>(num_vars * ratio);
  for (int c = 0; c < num_clauses; ++c) {
    std::vector<int> clause;
    while (clause.size() < 3) {
      const int v =
          static_cast<int>(rng.next_below(static_cast<std::uint64_t>(num_vars))) + 1;
      const int lit = rng.next_bool(0.5) ? v : -v;
      bool dup = false;
      for (const int l : clause) {
        if (l == lit || l == -lit) dup = true;
      }
      if (!dup) clause.push_back(lit);
    }
    f.clauses.push_back(clause);
  }
  return f;
}

/// PHP(holes+1, holes): each pigeon's at-least-one row, guarded by each of
/// `guards` (one copy per guard: assuming a guard activates the
/// contradiction, like a horizon selector activates a window), or
/// unguarded when there are none, and at-most-one per hole.
void pigeonhole(SatSolver& solver, int holes,
                const std::vector<SatVar>& guards = {}) {
  std::vector<std::vector<Lit>> pigeon(static_cast<std::size_t>(holes + 1));
  std::vector<std::vector<Lit>> hole(static_cast<std::size_t>(holes));
  for (int p = 0; p <= holes; ++p) {
    for (int h = 0; h < holes; ++h) {
      const Lit l = Lit::pos(solver.new_var());
      pigeon[static_cast<std::size_t>(p)].push_back(l);
      hole[static_cast<std::size_t>(h)].push_back(l);
    }
  }
  CnfBuilder cnf(solver);
  for (const auto& row : pigeon) {
    if (guards.empty()) cnf.at_least_one(row);
    for (const SatVar g : guards) {
      std::vector<Lit> clause = row;
      clause.push_back(Lit::neg(g));
      solver.add_clause(std::move(clause));
    }
  }
  for (const auto& col : hole) cnf.at_most_one(col);
}

/// `n` fresh variables.
std::vector<SatVar> new_vars(SatSolver& solver, int n) {
  std::vector<SatVar> vars;
  for (int i = 0; i < n; ++i) vars.push_back(solver.new_var());
  return vars;
}

/// The chain v0 -> v1 -> ... -> v(n-1); returns its variables.
std::vector<SatVar> implication_chain(SatSolver& solver, int n) {
  const std::vector<SatVar> v = new_vars(solver, n);
  for (std::size_t i = 0; i + 1 < v.size(); ++i) {
    solver.add_binary(Lit::neg(v[i]), Lit::pos(v[i + 1]));
  }
  return v;
}

/// At most n/4 of n fresh variables true, as a sequential counter.
void at_most_quarter(SatSolver& solver, int n) {
  std::vector<Lit> lits;
  for (const SatVar v : new_vars(solver, n)) lits.push_back(Lit::pos(v));
  CnfBuilder(solver).at_most_k(lits, n / 4);
}

/// Enumerate up to 64 models over `vars` by blocking each; returns how
/// many were found.
int enumerate_models(SatSolver& solver, const std::vector<SatVar>& vars) {
  int models = 0;
  while (models < 64 && solver.solve() == SatStatus::kSat) {
    ++models;
    std::vector<Lit> block;
    for (const SatVar v : vars) block.push_back(Lit(v, solver.model_value(v)));
    if (!solver.add_clause(block)) break;
  }
  return models;
}

void BM_Random3SatUnderdetermined(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    SatSolver solver;
    const CnfFormula f = random_3sat(n, 3.0, seed++);
    load_into_solver(f, solver);
    benchmark::DoNotOptimize(solver.solve());
  }
}
BENCHMARK(BM_Random3SatUnderdetermined)->Arg(50)->Arg(100)->Arg(200);

void BM_Random3SatPhaseTransition(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::uint64_t seed = 7;
  for (auto _ : state) {
    SatSolver solver;
    const CnfFormula f = random_3sat(n, 4.26, seed++);
    load_into_solver(f, solver);
    benchmark::DoNotOptimize(solver.solve());
  }
}
BENCHMARK(BM_Random3SatPhaseTransition)->Arg(40)->Arg(60)->Arg(80);

void BM_Pigeonhole(benchmark::State& state) {
  const int holes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    SatSolver solver;
    pigeonhole(solver, holes);
    benchmark::DoNotOptimize(solver.solve());
  }
}
BENCHMARK(BM_Pigeonhole)->Arg(5)->Arg(7)->Arg(8);

void BM_SequentialCounterEncoding(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    SatSolver solver;
    at_most_quarter(solver, n);
    benchmark::DoNotOptimize(solver.num_clauses());
  }
}
BENCHMARK(BM_SequentialCounterEncoding)->Arg(64)->Arg(256)->Arg(1024);

void BM_AssumptionReuseVsRebuild(benchmark::State& state) {
  // The incremental time session's query pattern: one formula, a sequence
  // of closely related queries under rotating selector assumptions.
  // Arg 0 == 0: ONE warm solver answers all queries (learnt clauses and
  // activities retained). Arg 0 == 1: a fresh solver per query (the
  // rebuild-per-instance reference pattern). Reported counters expose the
  // reuse (learnt clauses retained across queries, assumptions used).
  const int holes = 7;
  const int queries = 8;
  std::uint64_t learnt_retained = 0;
  std::uint64_t assumptions_used = 0;
  auto build_guarded_php = [&](SatSolver& solver,
                               std::vector<SatVar>& guards) {
    guards = new_vars(solver, queries);
    pigeonhole(solver, holes, guards);
  };
  const bool fresh_per_query = state.range(0) == 1;
  for (auto _ : state) {
    if (fresh_per_query) {
      for (int q = 0; q < queries; ++q) {
        SatSolver solver;
        std::vector<SatVar> guards;
        build_guarded_php(solver, guards);
        ++assumptions_used;
        benchmark::DoNotOptimize(solver.solve_assuming(
            {Lit::pos(guards[static_cast<std::size_t>(q)])}));
      }
    } else {
      SatSolver solver;
      std::vector<SatVar> guards;
      build_guarded_php(solver, guards);
      for (int q = 0; q < queries; ++q) {
        ++assumptions_used;
        benchmark::DoNotOptimize(solver.solve_assuming(
            {Lit::pos(guards[static_cast<std::size_t>(q)])}));
        learnt_retained +=
            static_cast<std::uint64_t>(solver.num_learnts());
      }
    }
  }
  state.counters["learnt_retained"] = benchmark::Counter(
      static_cast<double>(learnt_retained), benchmark::Counter::kAvgIterations);
  state.counters["assumptions_used"] = benchmark::Counter(
      static_cast<double>(assumptions_used), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_AssumptionReuseVsRebuild)->Arg(0)->Arg(1);

void BM_FailedAssumptionExtraction(benchmark::State& state) {
  // Long implication chains; assuming head and ~tail is refuted and the
  // final-conflict analysis must name only the two culprits.
  const int n = static_cast<int>(state.range(0));
  SatSolver solver;
  const std::vector<SatVar> v = implication_chain(solver, n);
  for (auto _ : state) {
    const SatStatus status = solver.solve_assuming(
        {Lit::pos(v[0]), Lit::neg(v[static_cast<std::size_t>(n - 1)])});
    benchmark::DoNotOptimize(status);
    benchmark::DoNotOptimize(solver.failed_assumptions().size());
  }
}
BENCHMARK(BM_FailedAssumptionExtraction)->Arg(256)->Arg(4096);

void BM_IncrementalBlocking(benchmark::State& state) {
  // Model enumeration via blocking clauses — the decoupled mapper's retry
  // pattern.
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    SatSolver solver;
    const std::vector<SatVar> vars = new_vars(solver, n);
    benchmark::DoNotOptimize(enumerate_models(solver, vars));
  }
}
BENCHMARK(BM_IncrementalBlocking)->Arg(10)->Arg(16);

// --- --json mode -----------------------------------------------------------

/// An instance of the SAT baseline: builds and solves, and returns the
/// summed SatStats of every solver it used.
struct Instance {
  std::string name;
  std::function<SatStats()> run;
};

void add_stats(SatStats& into, const SatStats& from) {
  into.conflicts += from.conflicts;
  into.decisions += from.decisions;
  into.propagations += from.propagations;
}

/// One solver: `build` fills it, one solve() runs.
SatStats solve_once(const std::function<void(SatSolver&)>& build) {
  SatSolver solver;
  build(solver);
  solver.solve();
  return solver.stats();
}

/// The first solve of `bench`'s time formulation on a grid x grid mesh at
/// `ii`, as TimeSolver runs it.
SatStats time_formulation(const char* bench, int grid, int ii) {
  const Benchmark& b = benchmark_by_name(bench);
  const CgraArch arch = CgraArch::square(grid);
  const int floor = capacity_horizon_floor(
      b.dfg, ii, arch.num_pes(), TimeSolverOptions{}.max_horizon_extension);
  TimeSession session(b.dfg, arch, ii, TimeConstraintOptions{}, floor);
  session.solve(Deadline::unlimited());
  return session.solver().stats();
}

std::vector<Instance> json_instances() {
  std::vector<Instance> out;
  const auto add = [&out](std::string name, std::function<SatStats()> run) {
    out.push_back({std::move(name), std::move(run)});
  };
  for (const int n : {50, 100, 200}) {
    add("random3sat-r3.0-n" + std::to_string(n), [n] {
      return solve_once([n](SatSolver& s) {
        load_into_solver(random_3sat(n, 3.0, 1), s);
      });
    });
  }
  for (const int n : {40, 60, 80}) {
    add("random3sat-r4.26-n" + std::to_string(n), [n] {
      return solve_once([n](SatSolver& s) {
        load_into_solver(random_3sat(n, 4.26, 7), s);
      });
    });
  }
  for (const int holes : {5, 7, 8}) {
    add("pigeonhole-" + std::to_string(holes), [holes] {
      return solve_once([holes](SatSolver& s) { pigeonhole(s, holes); });
    });
  }
  for (const int n : {64, 256, 1024}) {
    add("sequential-counter-n" + std::to_string(n), [n] {
      return solve_once([n](SatSolver& s) { at_most_quarter(s, n); });
    });
  }
  // BM_AssumptionReuseVsRebuild's two query patterns.
  constexpr int kQueries = 8;
  add("assumptions-php7-warm", [] {
    SatSolver solver;
    const std::vector<SatVar> guards = new_vars(solver, kQueries);
    pigeonhole(solver, 7, guards);
    for (const SatVar g : guards) solver.solve_assuming({Lit::pos(g)});
    return solver.stats();
  });
  add("assumptions-php7-fresh", [] {
    SatStats sum;
    for (int q = 0; q < kQueries; ++q) {
      SatSolver solver;
      const std::vector<SatVar> guards = new_vars(solver, kQueries);
      pigeonhole(solver, 7, guards);
      solver.solve_assuming({Lit::pos(guards[static_cast<std::size_t>(q)])});
      add_stats(sum, solver.stats());
    }
    return sum;
  });
  for (const int n : {256, 4096}) {
    add("failed-assumption-chain-" + std::to_string(n), [n] {
      SatSolver solver;
      const std::vector<SatVar> v = implication_chain(solver, n);
      solver.solve_assuming({Lit::pos(v.front()), Lit::neg(v.back())});
      return solver.stats();
    });
  }
  for (const int n : {10, 16}) {
    add("blocking-enumeration-" + std::to_string(n), [n] {
      SatSolver solver;
      enumerate_models(solver, new_vars(solver, n));
      return solver.stats();
    });
  }
  add("time-cfd-2x2-ii13", [] { return time_formulation("cfd", 2, 13); });
  add("time-hotspot3D-2x2-ii15",
      [] { return time_formulation("hotspot3D", 2, 15); });
  return out;
}

void run_json_mode(int repeats) {
  json::Writer json;
  json.begin_object();
  json.field("bench", "bench_micro_sat");
  json.field("nproc", static_cast<int>(std::thread::hardware_concurrency()));
  json.field("simd", simd::level_name(simd::active_level()));
  json.field("repeats", repeats);
  json.key("sat");
  json.begin_array();
  for (const Instance& instance : json_instances()) {
    std::vector<double> seconds;
    SatStats stats;
    for (int r = 0; r < repeats; ++r) {
      Stopwatch wall;
      stats = instance.run();
      seconds.push_back(wall.elapsed_s());
    }
    json.begin_object();
    json.field("suite", instance.name);
    json.field("seconds", bench::median(seconds));
    json.field("sat_conflicts", stats.conflicts);
    json.field("sat_decisions", stats.decisions);
    json.field("sat_propagations", stats.propagations);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  std::cout << json.str() << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  int repeats = 5;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    if (std::strcmp(argv[i], "--repeats") == 0 && i + 1 < argc) {
      repeats = std::atoi(argv[i + 1]);
    }
  }
  if (json) {
    run_json_mode(std::max(repeats, 1));
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
