// Micro-benchmark A4: CDCL solver throughput on classic instance families
// (google-benchmark). The SAT engine is the substrate of both mappers; this
// tracks its raw performance independently of the mapping formulations.
#include <benchmark/benchmark.h>

#include "encode/cnf_builder.hpp"
#include "sat/solver.hpp"
#include "support/rng.hpp"

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
    CnfBuilder cnf(solver);
    std::vector<std::vector<Lit>> pigeon(
        static_cast<std::size_t>(holes + 1));
    std::vector<std::vector<Lit>> hole(static_cast<std::size_t>(holes));
    for (int p = 0; p <= holes; ++p) {
      for (int h = 0; h < holes; ++h) {
        const Lit l = Lit::pos(solver.new_var());
        pigeon[static_cast<std::size_t>(p)].push_back(l);
        hole[static_cast<std::size_t>(h)].push_back(l);
      }
    }
    for (const auto& row : pigeon) cnf.at_least_one(row);
    for (const auto& col : hole) cnf.at_most_one(col);
    benchmark::DoNotOptimize(solver.solve());
  }
}
BENCHMARK(BM_Pigeonhole)->Arg(5)->Arg(7)->Arg(8);

void BM_SequentialCounterEncoding(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    SatSolver solver;
    CnfBuilder cnf(solver);
    std::vector<Lit> lits;
    for (int i = 0; i < n; ++i) lits.push_back(Lit::pos(solver.new_var()));
    cnf.at_most_k(lits, n / 4);
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
    // PHP(holes+1, holes), with each pigeon's at-least-one row guarded by
    // one of `queries` selector literals — assuming selector q activates
    // the contradiction, exactly like a horizon selector activates a
    // window.
    for (int q = 0; q < queries; ++q) guards.push_back(solver.new_var());
    std::vector<std::vector<Lit>> pigeon(static_cast<std::size_t>(holes + 1));
    std::vector<std::vector<Lit>> hole(static_cast<std::size_t>(holes));
    CnfBuilder cnf(solver);
    for (int p = 0; p <= holes; ++p) {
      for (int h = 0; h < holes; ++h) {
        const Lit l = Lit::pos(solver.new_var());
        pigeon[static_cast<std::size_t>(p)].push_back(l);
        hole[static_cast<std::size_t>(h)].push_back(l);
      }
    }
    for (const auto& row : pigeon) {
      for (int q = 0; q < queries; ++q) {
        std::vector<Lit> clause = row;
        clause.push_back(Lit::neg(guards[static_cast<std::size_t>(q)]));
        solver.add_clause(std::move(clause));
      }
    }
    for (const auto& col : hole) cnf.at_most_one(col);
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
  std::vector<SatVar> v;
  for (int i = 0; i < n; ++i) v.push_back(solver.new_var());
  for (int i = 0; i + 1 < n; ++i) {
    solver.add_binary(Lit::neg(v[static_cast<std::size_t>(i)]),
                      Lit::pos(v[static_cast<std::size_t>(i + 1)]));
  }
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
    std::vector<SatVar> vars;
    for (int i = 0; i < n; ++i) vars.push_back(solver.new_var());
    int models = 0;
    while (solver.solve() == SatStatus::kSat && models < 64) {
      ++models;
      std::vector<Lit> block;
      for (const SatVar v : vars) {
        block.push_back(Lit(v, solver.model_value(v)));
      }
      if (!solver.add_clause(block)) break;
    }
    benchmark::DoNotOptimize(models);
  }
}
BENCHMARK(BM_IncrementalBlocking)->Arg(10)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
