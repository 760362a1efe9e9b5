// table3-2x2 and table3-large: the paper's Table III compiles, one after
// another on one thread, through DecoupledMapper::map.
//
// On 2x2 almost all compile time is the SAT time phase (hotspot3D, and cfd
// running into the deadline as in the paper); on 5x5/10x10/20x20 almost all
// of it is the space search. The seed shuffles the compile order of every
// pass and salts the simulator's input memory; the compiles themselves are
// the fixed suite, so II results are seed-independent.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <random>
#include <string>
#include <vector>

#include "harness.hpp"
#include "mapper/decoupled_mapper.hpp"
#include "sim/simulator.hpp"
#include "workloads/suite.hpp"

namespace perfbench {
namespace {

using namespace monomap;

/// Fixed per-compile deadline: about three times the slowest successful
/// compile (hotspot3D on 2x2, 4-7.5 s on a 4-core x86 host), so only cfd on
/// 2x2, which the paper also reports as a timeout, runs into it, even when
/// other tenants of the host slow a compile down 2.5-fold.
constexpr double kDeadlineS = 20.0;
/// Set-up is about a millisecond of input preparation, and the host's speed
/// changes within a second, so set-up is repeated kSetupReps times after
/// every pass, to spread its samples over the run.
constexpr int kSetupReps = 5;
/// Every compile faster than kSlowS is sampled in at least kMinPasses
/// passes. A compile at or above kSlowS in the first pass joins only
/// kSlowPasses passes, so that the run's time goes to sampling the many
/// fast compiles often, instead of sampling one slow compile a few times.
constexpr int kMinPasses = 20;
constexpr double kSlowS = 1.0;
constexpr std::size_t kSlowPasses = 2;
/// Within a pass a compile repeats, back to back, until it has run
/// kMaxRepeats times or for kRepeatBudgetS. Only the sub-millisecond
/// compiles repeat; their best time is otherwise at the mercy of the cache
/// state the previous compile left behind.
constexpr int kMaxRepeats = 5;
constexpr double kRepeatBudgetS = 0.02;

struct Case {
  int grid = 0;
  std::size_t arch = 0;  // index into Inputs::archs
  const Benchmark* bench = nullptr;
  int paper_ii = -1;  // Table III II on this grid, -1 = paper timed out
};

/// What set-up prepares: the compile inputs, lowered from the suite's loop
/// kernels, and the fabrics they are compiled for.
struct Inputs {
  std::vector<Case> cases;
  std::vector<Dfg> dfgs;        // per case
  std::deque<CgraArch> archs;   // per grid
};

Inputs prepare(const std::vector<int>& grids,
               const std::vector<std::string>& skip) {
  Inputs in;
  for (const int grid : grids) {
    const auto slot = std::find(kPaperGridSizes.begin(), kPaperGridSizes.end(),
                                grid) - kPaperGridSizes.begin();
    in.archs.emplace_back(grid, grid);
    for (const Benchmark& b : benchmark_suite()) {
      if (std::find(skip.begin(), skip.end(), b.name) != skip.end()) continue;
      in.cases.push_back(Case{grid, in.archs.size() - 1, &b,
                              b.paper_ii[static_cast<std::size_t>(slot)]});
      in.dfgs.push_back(Dfg::from_kernel(b.kernel));
    }
  }
  return in;
}

/// One timed compile. Only each compile's first result is kept whole; the
/// later ones are checked and compared with it as they come, so memory
/// does not grow with the number of samples.
struct Sample {
  double wall_s = 0.0;
  double time_phase_s = 0.0;
  double space_phase_s = 0.0;
};

int ii_ceiling(const Dfg& dfg, const MapResult& r) {
  return std::max(r.mii.mii(), dfg.num_nodes());
}

/// Achieved II, or the ceiling max(mII, #nodes) for a failed compile.
int effective_ii(const Dfg& dfg, const MapResult& r) {
  return r.success ? r.ii : ii_ceiling(dfg, r);
}

/// Checks one compile's answer outside the timed region. A feasible answer
/// must validate and compute, in the cycle simulator, exactly what the
/// sequential interpreter computes. A compile without a mapping is wrong
/// unless Table III also has no II for it, and even then its outcome must
/// be classified and its interval sane. Returns "" when the answer holds.
std::string check(const Case& c, const Dfg& dfg, const CgraArch& arch,
                  const MapResult& r, std::uint64_t salt) {
  if (r.success) {
    if (r.outcome != MapOutcome::kFeasible) return "unexpected outcome";
    if (!validate_mapping(dfg, arch, r.mapping).empty()) {
      return "mapping fails validate_mapping";
    }
    SimOptions sim;
    sim.iterations = std::max(8, r.mapping.num_stages() + 2);
    sim.memory_salt = salt;
    const std::vector<std::string> problems =
        verify_mapping_by_simulation(c.bench->kernel, dfg, arch, r.mapping, sim);
    return problems.empty() ? "" : "simulation: " + problems.front();
  }
  if (c.paper_ii > 0) {
    return std::string("no mapping (") + to_string(r.outcome) + ")";
  }
  if (r.outcome != MapOutcome::kDeadline && r.outcome != MapOutcome::kRefuted) {
    return std::string("unclassified failure (") + to_string(r.outcome) + ")";
  }
  if (r.ii_lo > ii_ceiling(dfg, r)) return "interval above the II ceiling";
  return "";
}

/// The effort record the determinism guard compares across passes and
/// runs. A compile that hit the deadline keeps only its outcome: how far
/// it got depends on the wall clock.
std::string effort(const MapResult& r) {
  char buf[160];
  if (r.outcome == MapOutcome::kDeadline) {
    std::snprintf(buf, sizeof(buf), "outcome=%s", to_string(r.outcome));
  } else {
    std::snprintf(buf, sizeof(buf),
                  "outcome=%s ii=%d ii_lo=%d ii_hi=%d schedules=%d "
                  "sat_calls=%d",
                  to_string(r.outcome), r.ii, r.ii_lo, r.ii_hi,
                  r.schedules_tried, r.time_stats.sat_calls);
  }
  return buf;
}

}  // namespace

Outcome run_table3(const RunConfig& config, const std::vector<int>& grids,
                   const std::vector<std::string>& skip) {
  Tracer tracer(config.trace);

  // Set-up: lower the kernels to DFGs and build the fabrics. It is repeated
  // after every pass, so that setup_s is a median over the whole run.
  std::vector<double> setup_times;
  auto set_up = [&] {
    const double start = now_s();
    Inputs fresh = prepare(grids, skip);
    setup_times.push_back(now_s() - start);
    return fresh;
  };
  const Inputs in = set_up();
  const std::size_t n = in.cases.size();

  DecoupledMapperOptions options;
  options.timeout_s = kDeadlineS;
  const DecoupledMapper mapper(options);
  std::mt19937_64 rng(config.seed);
  const std::uint64_t salt = rng();

  // Passes in a fresh seeded order until --seconds have passed. A compile
  // that hit the deadline in the first pass is not repeated: its time is
  // set by the deadline, and the effort file still checks its outcome
  // across runs. A slow compile stops after kSlowPasses samples.
  std::vector<std::vector<Sample>> samples(n);
  std::vector<MapResult> first(n);
  std::vector<bool> have_first(n, false);
  std::vector<std::string> failures;
  bool outcome_drift = false;
  auto key = [&](std::size_t i) {
    return in.cases[i].bench->name + "@" + std::to_string(in.cases[i].grid);
  };
  int passes = 0;
  const double loop_start = now_s();
  while (passes < kMinPasses || now_s() - loop_start < config.seconds) {
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < n; ++i) {
      if (passes == 0 ||
          (first[i].outcome != MapOutcome::kDeadline &&
           (samples[i][0].wall_s < kSlowS ||
            samples[i].size() < kSlowPasses))) {
        order.push_back(i);
      }
    }
    std::shuffle(order.begin(), order.end(), rng);
    std::vector<std::pair<std::size_t, MapResult>> fresh;
    for (const std::size_t i : order) {
      double spent = 0.0;
      for (int rep = 0; rep < kMaxRepeats && spent < kRepeatBudgetS; ++rep) {
        const double start = now_s();
        MapResult r = mapper.map(in.dfgs[i], in.archs[in.cases[i].arch]);
        const double end = now_s();
        samples[i].push_back(
            Sample{end - start, r.time_phase_s, r.space_phase_s});
        spent += end - start;
        tracer.record("compile " + key(i), start, end);
        fresh.emplace_back(i, std::move(r));
      }
    }
    // Checks, and the determinism guard's first half: every sample after a
    // compile's first must repeat its effort record.
    for (auto& [i, r] : fresh) {
      const double start = now_s();
      const std::string why = check(in.cases[i], in.dfgs[i],
                                    in.archs[in.cases[i].arch], r, salt);
      tracer.record("check", start, now_s());
      if (!why.empty()) failures.push_back(key(i) + ": " + why);
      if (!have_first[i]) {
        have_first[i] = true;
        first[i] = std::move(r);
      } else if (effort(r) != effort(first[i])) {
        std::printf("drift %s first {%s} again {%s}\n", key(i).c_str(),
                    effort(first[i]).c_str(), effort(r).c_str());
        outcome_drift |= r.outcome != first[i].outcome || r.ii != first[i].ii;
      }
    }
    for (int rep = 0; rep < kSetupReps; ++rep) (void)set_up();
    // A compile that hits the deadline runs only in the first pass, and its
    // memory grows with how far it got. Where one did, peak_rss_mb covers
    // the passes after the first.
    if (passes == 0 &&
        std::any_of(first.begin(), first.end(), [](const MapResult& r) {
          return r.outcome == MapOutcome::kDeadline;
        })) {
      reset_peak_rss();
    }
    ++passes;
  }

  // The determinism guard's second half: the first samples must match the
  // first run recorded in this build tree.
  std::vector<std::pair<std::string, std::string>> records;
  for (std::size_t i = 0; i < n; ++i) records.emplace_back(key(i), effort(first[i]));
  compare_with_reference(config, records);

  // Per-compile rows and the metrics. Contention from other tenants of a
  // shared host slows whole stretches of a run by up to 2x, so each
  // compile's time is its best sample: the least disturbed measurement of
  // a deterministic amount of work.
  Outcome out;
  out.failed = failures.size();
  out.headline = "compile_total_s";

  std::vector<double> best_ms;
  double total_s = 0.0;
  double time_s = 0.0;
  double space_s = 0.0;
  double loop_s = 0.0;
  double ii_sum = 0.0;
  double gap_sum = 0.0;
  double ii_paper = 0.0;
  double paper_sum = 0.0;
  double feasible = 0.0;
  double sat_calls = 0.0;
  double instances = 0.0;
  double nogoods = 0.0;
  double searches = 0.0;
  double truncated = 0.0;
  double refuted = 0.0;
  double backjumps = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Sample* best = &samples[i][0];
    for (const Sample& s : samples[i]) {
      ++out.attempted;
      if (s.wall_s < best->wall_s) best = &s;
    }
    best_ms.push_back(best->wall_s * 1e3);
    total_s += best->wall_s;
    time_s += best->time_phase_s;
    space_s += best->space_phase_s;
    loop_s += best->wall_s - best->time_phase_s - best->space_phase_s;

    const Case& c = in.cases[i];
    const MapResult& r = first[i];
    const int ii = effective_ii(in.dfgs[i], r);
    ii_sum += ii;
    gap_sum += (r.success ? r.ii_hi : ii) - r.ii_lo;
    if (c.paper_ii > 0) {
      ii_paper += ii;
      paper_sum += c.paper_ii;
    }
    if (r.success) feasible += 1.0;
    sat_calls += r.time_stats.sat_calls;
    instances += r.time_stats.instances_built;
    nogoods += r.time_stats.nogoods_added;
    searches += r.schedules_tried;
    truncated += r.space_truncated;
    refuted += r.space_exhausted;
    backjumps += static_cast<double>(r.space_backjumps);
    std::printf("compile grid=%d suite=%-14s nodes=%2d %s paper_ii=%d "
                "best_ms=%.3f of %zu time_s=%.4f space_s=%.4f\n",
                c.grid, c.bench->name.c_str(), in.dfgs[i].num_nodes(),
                effort(r).c_str(), c.paper_ii, best_ms.back(),
                samples[i].size(), best->time_phase_s, best->space_phase_s);
  }
  out.correct = failures.empty() && !outcome_drift;
  for (const std::string& f : failures) std::printf("failed %s\n", f.c_str());
  std::printf("passes %d, compiles per pass %zu\n", passes, n);

  out.set("compile_total_s", total_s, "s");
  out.set("compile_geomean_ms", geomean(best_ms), "ms");
  out.set("ii_sum", ii_sum, "count");
  out.set("ii_gap_sum", gap_sum, "count");
  out.set("ii_paper_ratio", paper_sum > 0.0 ? ii_paper / paper_sum : 0.0,
          "ratio");
  out.set("feasible_share", feasible / static_cast<double>(n), "ratio");
  out.set("req_p50_ms", quantile(best_ms, 0.50), "ms");
  out.set("req_p99_ms", quantile(best_ms, 0.99), "ms");
  out.set("req_per_s", static_cast<double>(n) / total_s, "1/s");
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  out.set("setup_s", median(setup_times), "s");

  out.set("timing.time_phase_s", time_s, "s");
  out.set("timing.sat_calls", sat_calls, "count");
  out.set("timing.instances_built", instances, "count");
  out.set("timing.nogoods_added", nogoods, "count");
  out.set("space.space_phase_s", space_s, "s");
  out.set("space.searches", searches, "count");
  out.set("space.truncated", truncated, "count");
  out.set("space.refuted", refuted, "count");
  out.set("space.backjumps", backjumps, "count");
  out.set("space.placed_ratio", searches > 0.0 ? feasible / searches : 0.0,
          "ratio");
  out.set("mapper.loop_s", loop_s, "s");

  if (tracer.enabled()) {
    tracer.dump(config.state_dir + "/trace-" + config.workload + ".jsonl");
  }
  return out;
}

}  // namespace perfbench
