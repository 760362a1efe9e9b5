// Tests for the CDCL SAT solver.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "sat/solver.hpp"
#include "sched/kms.hpp"
#include "support/resource.hpp"
#include "support/rng.hpp"
#include "timing/time_session.hpp"
#include "timing/time_solver.hpp"
#include "workloads/suite.hpp"

namespace monomap {
namespace {

TEST(SatSolver, EmptyFormulaIsSat) {
  SatSolver s;
  EXPECT_EQ(s.solve(), SatStatus::kSat);
}

TEST(SatSolver, SingleUnitClause) {
  SatSolver s;
  const SatVar x = s.new_var();
  ASSERT_TRUE(s.add_unit(Lit::pos(x)));
  ASSERT_EQ(s.solve(), SatStatus::kSat);
  EXPECT_TRUE(s.model_value(x));
}

TEST(SatSolver, ContradictoryUnitsAreUnsat) {
  SatSolver s;
  const SatVar x = s.new_var();
  ASSERT_TRUE(s.add_unit(Lit::pos(x)));
  EXPECT_FALSE(s.add_unit(Lit::neg(x)));
  EXPECT_EQ(s.solve(), SatStatus::kUnsat);
}

TEST(SatSolver, SimpleImplicationChain) {
  SatSolver s;
  std::vector<SatVar> v;
  for (int i = 0; i < 10; ++i) v.push_back(s.new_var());
  for (int i = 0; i + 1 < 10; ++i) {
    ASSERT_TRUE(s.add_binary(Lit::neg(v[static_cast<std::size_t>(i)]),
                             Lit::pos(v[static_cast<std::size_t>(i + 1)])));
  }
  ASSERT_TRUE(s.add_unit(Lit::pos(v[0])));
  ASSERT_EQ(s.solve(), SatStatus::kSat);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(s.model_value(v[static_cast<std::size_t>(i)])) << i;
  }
}

TEST(SatSolver, XorChainSat) {
  // x1 xor x2 = 1, x2 xor x3 = 1, ..., satisfiable (alternating).
  SatSolver s;
  const int n = 20;
  std::vector<SatVar> v;
  for (int i = 0; i < n; ++i) v.push_back(s.new_var());
  for (int i = 0; i + 1 < n; ++i) {
    const Lit a = Lit::pos(v[static_cast<std::size_t>(i)]);
    const Lit b = Lit::pos(v[static_cast<std::size_t>(i + 1)]);
    ASSERT_TRUE(s.add_binary(a, b));
    ASSERT_TRUE(s.add_binary(~a, ~b));
  }
  ASSERT_EQ(s.solve(), SatStatus::kSat);
  for (int i = 0; i + 1 < n; ++i) {
    EXPECT_NE(s.model_value(v[static_cast<std::size_t>(i)]),
              s.model_value(v[static_cast<std::size_t>(i + 1)]));
  }
}

TEST(SatSolver, TautologyIgnored) {
  SatSolver s;
  const SatVar x = s.new_var();
  const SatVar y = s.new_var();
  ASSERT_TRUE(s.add_clause({Lit::pos(x), Lit::neg(x), Lit::pos(y)}));
  EXPECT_EQ(s.solve(), SatStatus::kSat);
}

TEST(SatSolver, DuplicateLiteralsCollapsed) {
  SatSolver s;
  const SatVar x = s.new_var();
  ASSERT_TRUE(s.add_clause({Lit::pos(x), Lit::pos(x), Lit::pos(x)}));
  ASSERT_EQ(s.solve(), SatStatus::kSat);
  EXPECT_TRUE(s.model_value(x));
}

/// Pigeonhole principle PHP(n+1, n): always UNSAT, classically hard-ish.
CnfFormula pigeonhole(int holes) {
  const int pigeons = holes + 1;
  CnfFormula f;
  auto var = [&](int p, int h) { return p * holes + h + 1; };
  f.num_vars = pigeons * holes;
  for (int p = 0; p < pigeons; ++p) {
    std::vector<int> clause;
    for (int h = 0; h < holes; ++h) clause.push_back(var(p, h));
    f.clauses.push_back(clause);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        f.clauses.push_back({-var(p1, h), -var(p2, h)});
      }
    }
  }
  return f;
}

TEST(SatSolver, PigeonholeUnsat) {
  for (int holes = 2; holes <= 6; ++holes) {
    SatSolver s;
    ASSERT_TRUE(load_into_solver(pigeonhole(holes), s)) << holes;
    EXPECT_EQ(s.solve(), SatStatus::kUnsat) << "PHP(" << holes + 1 << ","
                                            << holes << ")";
  }
}

TEST(SatSolver, PigeonholeExactFitSat) {
  // n pigeons in n holes is satisfiable.
  const int n = 5;
  CnfFormula f;
  auto var = [&](int p, int h) { return p * n + h + 1; };
  f.num_vars = n * n;
  for (int p = 0; p < n; ++p) {
    std::vector<int> clause;
    for (int h = 0; h < n; ++h) clause.push_back(var(p, h));
    f.clauses.push_back(clause);
  }
  for (int h = 0; h < n; ++h) {
    for (int p1 = 0; p1 < n; ++p1) {
      for (int p2 = p1 + 1; p2 < n; ++p2) {
        f.clauses.push_back({-var(p1, h), -var(p2, h)});
      }
    }
  }
  SatSolver s;
  ASSERT_TRUE(load_into_solver(f, s));
  EXPECT_EQ(s.solve(), SatStatus::kSat);
}

TEST(SatSolver, IncrementalBlockingClauseEnumeration) {
  // 3 free variables -> 8 models; enumerate all by blocking.
  SatSolver s;
  std::vector<SatVar> v{s.new_var(), s.new_var(), s.new_var()};
  int models = 0;
  while (s.solve() == SatStatus::kSat) {
    ++models;
    ASSERT_LE(models, 8);
    std::vector<Lit> block;
    for (const SatVar x : v) {
      block.push_back(Lit(x, s.model_value(x)));  // negate current model
    }
    if (!s.add_clause(block)) break;
  }
  EXPECT_EQ(models, 8);
}

TEST(SatSolver, AssumptionsHoldInModel) {
  SatSolver s;
  const SatVar x = s.new_var();
  const SatVar y = s.new_var();
  ASSERT_TRUE(s.add_binary(Lit::pos(x), Lit::pos(y)));
  ASSERT_EQ(s.solve_assuming({Lit::neg(x)}), SatStatus::kSat);
  EXPECT_FALSE(s.model_value(x));
  EXPECT_TRUE(s.model_value(y));
  // Opposite assumption, same solver.
  ASSERT_EQ(s.solve_assuming({Lit::pos(x), Lit::neg(y)}), SatStatus::kSat);
  EXPECT_TRUE(s.model_value(x));
  EXPECT_FALSE(s.model_value(y));
}

TEST(SatSolver, FailedAssumptionsNameTheCulprits) {
  // Implication chain x0 -> x1 -> ... -> x5; assuming x0 and ~x5 is
  // contradictory, and the refutation must rest on (a subset of) exactly
  // those two, not on the irrelevant free variable.
  SatSolver s;
  std::vector<SatVar> v;
  for (int i = 0; i < 6; ++i) v.push_back(s.new_var());
  const SatVar free_var = s.new_var();
  for (int i = 0; i + 1 < 6; ++i) {
    ASSERT_TRUE(s.add_binary(Lit::neg(v[static_cast<std::size_t>(i)]),
                             Lit::pos(v[static_cast<std::size_t>(i + 1)])));
  }
  const std::vector<Lit> assumptions{Lit::pos(free_var), Lit::pos(v[0]),
                                     Lit::neg(v[5])};
  ASSERT_EQ(s.solve_assuming(assumptions), SatStatus::kUnsat);
  const std::vector<Lit>& failed = s.failed_assumptions();
  ASSERT_FALSE(failed.empty());
  for (const Lit l : failed) {
    EXPECT_NE(l.var(), free_var) << "irrelevant assumption blamed";
    EXPECT_NE(std::find(assumptions.begin(), assumptions.end(), l),
              assumptions.end())
        << "failed literal is not an assumption";
  }
}

TEST(SatSolver, AssumptionUnsatDoesNotPoisonTheSolver) {
  // Guard literal g activates a pigeonhole contradiction; refuting under g
  // must leave the solver usable (and its learnt clauses warm) for the
  // next query — the incremental time session's usage pattern.
  SatSolver s;
  const int holes = 6;
  const SatVar g = s.new_var();
  CnfFormula php = pigeonhole(holes);
  for (int i = 0; i < php.num_vars; ++i) s.new_var();
  for (auto clause : php.clauses) {
    std::vector<Lit> lits;
    for (const int lit : clause) {
      const SatVar v = (lit > 0 ? lit : -lit);  // php vars start at g+1
      lits.push_back(Lit(v, lit < 0));
    }
    // Guard only the at-least-one rows; the at-most pairs are all-negative
    // and satisfiable on their own.
    if (clause[0] > 0) lits.push_back(Lit::neg(g));
    ASSERT_TRUE(s.add_clause(lits));
  }
  ASSERT_EQ(s.solve_assuming({Lit::pos(g)}), SatStatus::kUnsat);
  ASSERT_FALSE(s.failed_assumptions().empty());
  EXPECT_EQ(s.failed_assumptions().front().var(), g);
  const std::uint64_t learned = s.stats().learned_clauses;
  EXPECT_GT(learned, 0u);
  // The formula without the assumption is satisfiable, from the same
  // (still-warm) solver.
  EXPECT_EQ(s.solve(), SatStatus::kSat);
  EXPECT_FALSE(s.model_value(g));
}

TEST(SatSolver, OutrightUnsatReportsNoFailedAssumptions) {
  SatSolver s;
  const SatVar x = s.new_var();
  const SatVar y = s.new_var();
  const SatVar a = s.new_var();
  ASSERT_TRUE(s.add_unit(Lit::pos(x)));
  ASSERT_TRUE(s.add_binary(Lit::neg(x), Lit::pos(y)));
  // (~x | ~y) contradicts the two above at level 0.
  EXPECT_FALSE(s.add_binary(Lit::neg(x), Lit::neg(y)));
  EXPECT_EQ(s.solve_assuming({Lit::pos(a)}), SatStatus::kUnsat);
  EXPECT_TRUE(s.failed_assumptions().empty());
}

TEST(SatSolver, ContradictoryAssumptionPair) {
  SatSolver s;
  const SatVar x = s.new_var();
  ASSERT_EQ(s.solve_assuming({Lit::pos(x), Lit::neg(x)}),
            SatStatus::kUnsat);
  const std::vector<Lit>& failed = s.failed_assumptions();
  ASSERT_EQ(failed.size(), 2u);
  EXPECT_NE(failed[0], failed[1]);
  EXPECT_EQ(failed[0].var(), x);
  EXPECT_EQ(failed[1].var(), x);
  EXPECT_EQ(s.solve(), SatStatus::kSat);
}

TEST(SatSolver, LearntClausesSurviveAcrossCalls) {
  SatSolver s;
  ASSERT_TRUE(load_into_solver(pigeonhole(5), s));
  const SatVar a = s.new_var();
  // PHP(6,5) is UNSAT regardless of the assumption; the second call starts
  // from the first call's learnt clauses and refutes strictly faster.
  ASSERT_EQ(s.solve_assuming({Lit::pos(a)}), SatStatus::kUnsat);
  EXPECT_TRUE(s.failed_assumptions().empty());
  EXPECT_GT(s.num_learnts(), 0);
}

TEST(SatSolver, ConflictBudgetReturnsUnknown) {
  SatSolver s;
  ASSERT_TRUE(load_into_solver(pigeonhole(8), s));
  const SatStatus status = s.solve(Deadline::unlimited(), 10);
  EXPECT_EQ(status, SatStatus::kUnknown);
}

TEST(SatSolver, DeadlineReturnsUnknownOrSolves) {
  SatSolver s;
  ASSERT_TRUE(load_into_solver(pigeonhole(9), s));
  const SatStatus status = s.solve(Deadline(0.001));
  // Tiny budget: either it finished very fast or reports unknown.
  EXPECT_NE(status, SatStatus::kSat);
}

TEST(SatSolver, UngovernedSolveReducesItsLearntDatabase) {
  // With no memory governor the learnt database is still reduced once it
  // passes 8,192 clauses: PHP(9,8) learns past that (15,104 conflicts when
  // nothing is ever deleted), and the refutation stays UNSAT.
  SatSolver s;
  ASSERT_TRUE(load_into_solver(pigeonhole(8), s));
  EXPECT_EQ(s.solve(), SatStatus::kUnsat);
  EXPECT_GT(s.stats().learned_clauses, 8192u);
  EXPECT_GT(s.stats().deleted_clauses, 0u);
}

/// Check a model satisfies a formula.
bool satisfies(const CnfFormula& f, const SatSolver& s) {
  for (const auto& clause : f.clauses) {
    bool sat = false;
    for (const int lit : clause) {
      const SatVar v = (lit > 0 ? lit : -lit) - 1;
      if (s.model_value(v) == (lit > 0)) {
        sat = true;
        break;
      }
    }
    if (!sat) return false;
  }
  return true;
}

/// Random 3-SAT at clause/var ratio r; DPLL cross-check via brute force for
/// small n.
CnfFormula random_3sat(int num_vars, int num_clauses, Rng& rng) {
  CnfFormula f;
  f.num_vars = num_vars;
  for (int c = 0; c < num_clauses; ++c) {
    std::vector<int> clause;
    while (clause.size() < 3) {
      const int v = static_cast<int>(rng.next_below(
                        static_cast<std::uint64_t>(num_vars))) + 1;
      const int lit = rng.next_bool(0.5) ? v : -v;
      if (std::find(clause.begin(), clause.end(), lit) == clause.end() &&
          std::find(clause.begin(), clause.end(), -lit) == clause.end()) {
        clause.push_back(lit);
      }
    }
    f.clauses.push_back(clause);
  }
  return f;
}

bool brute_force_sat(const CnfFormula& f) {
  const int n = f.num_vars;
  for (std::uint64_t mask = 0; mask < (1ULL << n); ++mask) {
    bool all = true;
    for (const auto& clause : f.clauses) {
      bool sat = false;
      for (const int lit : clause) {
        const int v = (lit > 0 ? lit : -lit) - 1;
        const bool val = ((mask >> v) & 1) != 0;
        if (val == (lit > 0)) {
          sat = true;
          break;
        }
      }
      if (!sat) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

class Random3SatVsBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(Random3SatVsBruteForce, AgreesWithExhaustiveCheck) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const int num_vars = 10;
  // Sweep the phase-transition region where both outcomes occur.
  const int num_clauses = 30 + GetParam() % 25;
  const CnfFormula f = random_3sat(num_vars, num_clauses, rng);
  SatSolver s;
  const bool loaded = load_into_solver(f, s);
  const bool expected = brute_force_sat(f);
  if (!loaded) {
    EXPECT_FALSE(expected);
    return;
  }
  const SatStatus status = s.solve();
  ASSERT_NE(status, SatStatus::kUnknown);
  EXPECT_EQ(status == SatStatus::kSat, expected);
  if (status == SatStatus::kSat) {
    EXPECT_TRUE(satisfies(f, s));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Random3SatVsBruteForce,
                         ::testing::Range(0, 40));

TEST(SatSolver, StatsAccumulate) {
  SatSolver s;
  ASSERT_TRUE(load_into_solver(pigeonhole(5), s));
  ASSERT_EQ(s.solve(), SatStatus::kUnsat);
  EXPECT_GT(s.stats().conflicts, 0u);
  EXPECT_GT(s.stats().decisions, 0u);
  EXPECT_GT(s.stats().propagations, 0u);
}

/// The effort and the model of a run of time-formulation solves.
struct SolveTrace {
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t model_digest = 0;
};

/// `calls` solves of the time formulation of `bench` on a grid x grid mesh
/// at `ii`, as TimeSolver drives them: one session at the II's capacity
/// floor; after each model its label vector is blocked and the phases are
/// reseeded. Every model's full assignment folds into the digest.
SolveTrace time_formulation_trace(const char* bench, int grid, int ii,
                                  int calls) {
  const Benchmark& b = benchmark_by_name(bench);
  const CgraArch arch = CgraArch::square(grid);
  const int floor = capacity_horizon_floor(
      b.dfg, ii, arch.num_pes(), TimeSolverOptions{}.max_horizon_extension);
  TimeSession session(b.dfg, arch, ii, TimeConstraintOptions{}, floor);
  SolveTrace trace;
  for (int call = 1; call <= calls; ++call) {
    EXPECT_EQ(session.solve(Deadline::unlimited()), SatStatus::kSat)
        << bench << " call " << call;
    const SatSolver& solver = session.solver();
    for (SatVar v = 0; v < solver.num_vars(); ++v) {
      trace.model_digest = mix64(trace.model_digest ^
                                 static_cast<std::uint64_t>(
                                     Lit(v, !solver.model_value(v)).code()));
    }
    session.block_labels(session.extract());
    session.reseed_phases(call);
  }
  const SatStats& stats = session.solver().stats();
  trace.conflicts = stats.conflicts;
  trace.decisions = stats.decisions;
  trace.propagations = stats.propagations;
  return trace;
}

TEST(SatTest, TimeFormulationTracesArePinned) {
  // The solver's search decisions, bit for bit, on the formulations the
  // mapper solves: the single solve of Table III's hardest 2x2 rows (cfd
  // lands at II 13 and hotspot3D at II 15 on their first model) and eight
  // enumerating calls on hotspot3D 4x4 at II 4, where learnt clauses carry
  // across calls. A change to watch order, literal order, analysis,
  // minimisation, the heuristic or the restart schedule moves these; a
  // change that means to must say so by updating the constants.
  const SolveTrace cfd = time_formulation_trace("cfd", 2, 13, 1);
  EXPECT_EQ(cfd.conflicts, 413u);
  EXPECT_EQ(cfd.decisions, 3024u);
  EXPECT_EQ(cfd.propagations, 102715u);
  EXPECT_EQ(cfd.model_digest, 0x471c223a26b0da72ULL);

  const SolveTrace hotspot = time_formulation_trace("hotspot3D", 2, 15, 1);
  EXPECT_EQ(hotspot.conflicts, 217u);
  EXPECT_EQ(hotspot.decisions, 1285u);
  EXPECT_EQ(hotspot.propagations, 53976u);
  EXPECT_EQ(hotspot.model_digest, 0xde884c2bea18c50cULL);

  const SolveTrace multi = time_formulation_trace("hotspot3D", 4, 4, 8);
  EXPECT_EQ(multi.conflicts, 35u);
  EXPECT_EQ(multi.decisions, 939u);
  EXPECT_EQ(multi.propagations, 23833u);
  EXPECT_EQ(multi.model_digest, 0xa96b3823af46d1deULL);
}

/// A sliced solve under a memory governor: its verdict, effort and sheds.
struct PressuredSolve {
  SatStatus status = SatStatus::kUnknown;
  SatStats stats;
  int sheds = 0;
};

/// Solve `f` in 300-conflict slices under a governor pre-charged so that
/// only `headroom` bytes stay free: at most a quarter of the budget keeps
/// it at soft pressure, so every restart above 256 learnt clauses reduces
/// the learnt database, and a headroom the learnt clauses outgrow makes a
/// charge fail mid-search, which sheds. With `churn`, another solver
/// allocates and frees its clauses between slices.
PressuredSolve solve_under_pressure(const CnfFormula& f, std::size_t headroom,
                                    bool churn) {
  constexpr std::size_t kBudget = std::size_t{64} << 20;
  ResourceGovernor gov(kBudget);
  EXPECT_TRUE(gov.try_charge(kBudget - headroom));
  EXPECT_TRUE(gov.soft_pressure());
  PressuredSolve out;
  {
    SatSolver s;
    EXPECT_TRUE(load_into_solver(f, s));
    Rng rng(0x5eed);
    while (out.status == SatStatus::kUnknown && !gov.tripped()) {
      {
        const GovernorScope scope(&gov);
        out.status = s.solve(Deadline::unlimited(), 300);
      }
      if (churn) {
        SatSolver other;
        load_into_solver(random_3sat(60, 255, rng), other);
        other.solve();
      }
    }
    if (out.status == SatStatus::kSat) {
      EXPECT_TRUE(satisfies(f, s));
    }
    out.stats = s.stats();
  }
  EXPECT_FALSE(gov.tripped());
  // Every byte the solver charged came back with it.
  EXPECT_EQ(gov.used(), kBudget - headroom);
  out.sheds = gov.sheds();
  return out;
}

TEST(SatTest, ReductionIsIndependentOfAllocationHistory) {
  // reduce_db detaches its victims in creation order, and the clause arena
  // is private to its solver, so the search cannot depend on where the
  // heap put a clause: the same formula solved with and without another
  // solver churning clauses in between must give the same verdict and the
  // same effort. Reductions at restarts (soft pressure) and mid-search
  // (a denied charge sheds with reasons locked) both compact the arena.
  Rng rng(0xdb);
  const CnfFormula f = random_3sat(160, 682, rng);
  SatSolver plain;
  ASSERT_TRUE(load_into_solver(f, plain));
  const SatStatus expected = plain.solve();
  ASSERT_NE(expected, SatStatus::kUnknown);

  constexpr std::size_t kSoft = std::size_t{16} << 20;  // reduce at restarts
  constexpr std::size_t kTight = std::size_t{12} << 10;  // and shed mid-search
  for (const std::size_t headroom : {kSoft, kTight}) {
    SCOPED_TRACE(headroom);
    const PressuredSolve quiet = solve_under_pressure(f, headroom, false);
    const PressuredSolve churned = solve_under_pressure(f, headroom, true);
    EXPECT_EQ(quiet.status, expected);
    EXPECT_EQ(churned.status, expected);
    EXPECT_GT(quiet.stats.deleted_clauses, 0u);  // reduce_db really ran
    EXPECT_EQ(churned.stats.conflicts, quiet.stats.conflicts);
    EXPECT_EQ(churned.stats.decisions, quiet.stats.decisions);
    EXPECT_EQ(churned.stats.propagations, quiet.stats.propagations);
    EXPECT_EQ(churned.stats.learned_clauses, quiet.stats.learned_clauses);
    EXPECT_EQ(churned.stats.deleted_clauses, quiet.stats.deleted_clauses);
    EXPECT_EQ(churned.sheds, quiet.sheds);
    if (headroom == kTight) {
      EXPECT_GT(quiet.sheds, 0);  // the mid-search path really ran
    }
  }
}

}  // namespace
}  // namespace monomap
