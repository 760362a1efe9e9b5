// Micro-benchmark A5: monomorphism-search scaling.
//
// Two modes:
//  * default — google-benchmark timings of search time vs grid side and vs
//    DFG size on schedule-realistic inputs (the paper's space phase stays
//    cheap as the grid grows because candidate neighbourhoods are
//    constant-size);
//  * --json [--grids 8,10,16,32,64] [--suites a,b] [--repeats R] —
//    machine-readable engine comparison per grid section (suite, grid, II,
//    seconds, effort counters per engine), recorded in BENCH_space.json to
//    track the perf trajectory across PRs. Grids of up to 128 PEs (8, 10)
//    compare the bitset engine against the scan-based reference, and grid
//    8 carries the walk section; larger grids (multi-word domains) compare
//    the dispatched SIMD bitset engine against the same engine pinned to
//    the scalar kernels ("bitset-scalar") and against the untiled domain
//    layout ("bitset-untiled", occupancy skipping off), on suite DFGs plus a
//    scaled synthetic layered DFG whose schedule is computed directly
//    (layer mod II) and satisfiable placeable-grid instances (one sized
//    against each fabric, plus the 64x64 32x32-patch suite at II 4-6), so
//    the section cost stays in the space phase and covers both refutation
//    and placement throughput. The summary's untiled-over-tiled medians
//    pool the placeable-* placement rows per grid.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "mapper/decoupled_mapper.hpp"
#include "space/monomorphism.hpp"
#include "support/json.hpp"
#include "support/simd.hpp"
#include "timing/time_solver.hpp"
#include "workloads/suite.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace monomap;
using monomap::bench::first_schedule;
using monomap::bench::median;

struct Prepared {
  const Dfg* dfg;
  std::vector<int> labels;
  int ii;
};

Prepared prepare(const Dfg& dfg, const CgraArch& arch) {
  const auto sol = first_schedule(dfg, arch, Deadline(30.0));
  Prepared p{&dfg, {}, 1};
  if (sol.has_value()) {
    p.ii = sol->ii;
    for (NodeId v = 0; v < dfg.num_nodes(); ++v) {
      p.labels.push_back(sol->label(v));
    }
  }
  return p;
}

void BM_MonoVsGridSide(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const CgraArch arch = CgraArch::square(side);
  const Benchmark& b = benchmark_by_name("fft");
  const Prepared p = prepare(b.dfg, arch);
  if (p.labels.empty()) {
    state.SkipWithError("no schedule");
    return;
  }
  for (auto _ : state) {
    const SpaceResult r = find_monomorphism(*p.dfg, arch, p.labels, p.ii);
    benchmark::DoNotOptimize(r.found);
  }
}
BENCHMARK(BM_MonoVsGridSide)->Arg(4)->Arg(8)->Arg(12)->Arg(20);

void BM_MonoVsDfgSize(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const CgraArch arch = CgraArch::square(8);
  SyntheticSpec spec;
  spec.num_nodes = nodes;
  spec.seed = 11;
  static std::vector<Dfg> keep;  // keep DFGs alive across iterations
  keep.push_back(random_dfg(spec));
  const Dfg& dfg = keep.back();
  const Prepared p = prepare(dfg, arch);
  if (p.labels.empty()) {
    state.SkipWithError("no schedule");
    return;
  }
  for (auto _ : state) {
    const SpaceResult r = find_monomorphism(dfg, arch, p.labels, p.ii);
    benchmark::DoNotOptimize(r.found);
  }
}
BENCHMARK(BM_MonoVsDfgSize)->Arg(16)->Arg(32)->Arg(64);

void BM_MonoEngineComparison(benchmark::State& state) {
  // bitset (Arg 0) vs reference (Arg 1) on the same schedule.
  const CgraArch arch = CgraArch::square(8);
  const Benchmark& b = benchmark_by_name("fft");
  const Prepared p = prepare(b.dfg, arch);
  if (p.labels.empty()) {
    state.SkipWithError("no schedule");
    return;
  }
  SpaceOptions opt;
  opt.engine = state.range(0) == 0 ? SpaceEngine::kBitset
                                   : SpaceEngine::kReference;
  for (auto _ : state) {
    const SpaceResult r = find_monomorphism(*p.dfg, arch, p.labels, p.ii, opt);
    benchmark::DoNotOptimize(r.found);
  }
}
BENCHMARK(BM_MonoEngineComparison)->Arg(0)->Arg(1);

void BM_MonoHardestSuiteCase(benchmark::State& state) {
  // hotspot3D is the suite's widest DFG and the paper's space-timeout case.
  const CgraArch arch = CgraArch::square(static_cast<int>(state.range(0)));
  const Benchmark& b = benchmark_by_name("hotspot3D");
  // Collect a handful of schedules at the lowest II that yields one;
  // measure total space effort over them.
  const auto first = first_schedule(b.dfg, arch, Deadline(30.0));
  if (!first.has_value()) {
    state.SkipWithError("no schedule");
    return;
  }
  TimeSolver solver(b.dfg, arch, first->ii);
  std::vector<Prepared> schedules;
  for (int round = 0; round < 4; ++round) {
    const auto sol = solver.next(Deadline(30.0));
    if (!sol.has_value()) break;
    Prepared p{&b.dfg, {}, sol->ii};
    for (NodeId v = 0; v < b.dfg.num_nodes(); ++v) {
      p.labels.push_back(sol->label(v));
    }
    schedules.push_back(std::move(p));
  }
  if (schedules.empty()) {
    state.SkipWithError("no schedule");
    return;
  }
  for (auto _ : state) {
    std::uint64_t total = 0;
    for (const Prepared& p : schedules) {
      SpaceOptions opt;
      opt.max_backtracks = 50'000;
      const SpaceResult r =
          find_monomorphism(*p.dfg, arch, p.labels, p.ii, opt);
      total += r.backtracks;
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_MonoHardestSuiteCase)->Arg(5)->Arg(10);

// --- --json mode -----------------------------------------------------------

/// One space-section row: median-of-repeats search time plus the effort
/// counters of the last run (deterministic, so identical each run).
void emit_space_row(json::Writer& json, const std::string& suite, int grid,
                    const char* engine, int ii, double med,
                    const SpaceResult& last) {
  json.begin_object();
  json.field("suite", suite);
  json.field("grid", grid);
  json.field("engine", engine);
  json.field("ii", ii);
  json.field("found", last.found);
  json.field("truncated", last.truncated);
  json.field("memory_out", last.memory_out);
  json.field("root_pinned", last.root_pinned);
  json.field("seconds", med);
  json.field("nodes_expanded", last.nodes_expanded);
  json.field("backtracks", last.backtracks);
  json.field("backjumps", last.backjumps);
  json.field("max_depth", last.max_depth);
  json.field("words_per_domain", last.words_per_domain);
  json.field("trail_words_saved", last.trail_words_saved);
  json.field("multiplicity_prunings", last.multiplicity_prunings);
  json.field("tiles_skipped", last.tiles_skipped);
  json.field("domain_bytes_touched", last.domain_bytes_touched);
  json.field("delegated_subtrees", last.delegated_subtrees);
  json.end_object();
}

/// Median-of-repeats wall time; `last` receives the final (deterministic)
/// result for the counter fields.
double run_search(const Prepared& p, const CgraArch& arch,
                  const SpaceOptions& opt, int repeats, SpaceResult& last) {
  std::vector<double> seconds;
  for (int r = 0; r < repeats; ++r) {
    last = find_monomorphism(*p.dfg, arch, p.labels, p.ii, opt);
    seconds.push_back(last.seconds);
  }
  return median(seconds);
}

bool suite_selected(const std::vector<std::string>& filter,
                    const std::string& name) {
  if (filter.empty()) return true;
  for (const std::string& f : filter) {
    if (f == name) return true;
  }
  return false;
}

/// One multi-word case: the dispatched-SIMD tiled engine, the scalar
/// kernels and the untiled layout, timed *interleaved within each rep*
/// after one untimed warm-up. The clock on shared hosts ramps and wanders
/// on the timescale of a whole repeats-block, so timing the variants in
/// consecutive blocks systematically biases whichever runs first
/// (measured: the same instance pair swings from 0.45x to 1.4x purely by
/// block order). Adjacent runs share clock state, so the drift cancels
/// out of the ratios. Emits the three rows and appends this case's
/// summary inputs.
void run_multi_word_case(json::Writer& json, const std::string& name, int grid,
                         const Prepared& p, const CgraArch& arch, int repeats,
                         std::vector<double>& scalar_ratio,
                         std::vector<double>& untiled_ratio,
                         std::vector<double>& grid_bytes) {
  SpaceOptions opt;
  find_monomorphism(*p.dfg, arch, p.labels, p.ii, opt);  // warm-up, untimed
  std::vector<double> tiled_s, scalar_s, untiled_s;
  SpaceResult last, scalar_last, untiled_last;
  for (int r = 0; r < repeats; ++r) {
    last = find_monomorphism(*p.dfg, arch, p.labels, p.ii, opt);
    tiled_s.push_back(last.seconds);
    const simd::Level saved = simd::active_level();
    simd::set_level(simd::Level::kScalar);
    scalar_last = find_monomorphism(*p.dfg, arch, p.labels, p.ii, opt);
    scalar_s.push_back(scalar_last.seconds);
    simd::set_level(saved);
    // Untiled layout (occupancy skipping off): identical trace and
    // counters except tiles_skipped == 0 and more bytes touched, so
    // untiled / tiled seconds isolates the cache-blocking win.
    const bool tiles_saved = simd::set_tile_skipping(false);
    untiled_last = find_monomorphism(*p.dfg, arch, p.labels, p.ii, opt);
    untiled_s.push_back(untiled_last.seconds);
    simd::set_tile_skipping(tiles_saved);
  }
  const double bitset_med = median(tiled_s);
  emit_space_row(json, name, grid, "bitset", p.ii, bitset_med, last);
  grid_bytes.push_back(static_cast<double>(last.domain_bytes_touched));
  if (bitset_med > 0.0) scalar_ratio.push_back(median(scalar_s) / bitset_med);
  emit_space_row(json, name, grid, "bitset-scalar", p.ii, median(scalar_s),
                 scalar_last);
  // The layout summary pools the satisfiable placement rows only:
  // refutation rows (suite + layered) spend their time in narrow domains
  // where both layouts touch the same lines, so folding them in would
  // measure instance mix, not the layout. Their untiled rows are still
  // recorded individually.
  if (bitset_med > 0.0 && name.rfind("placeable-", 0) == 0) {
    untiled_ratio.push_back(median(untiled_s) / bitset_med);
  }
  emit_space_row(json, name, grid, "bitset-untiled", p.ii, median(untiled_s),
                 untiled_last);
}

/// The 64x64 placement cases: the full 32x32 mesh-patch trio at II 4-6 —
/// the wide-domain, moderate-backtrack regime the cache-blocked layout
/// targets (low II dilutes the comparison with the mono1 sweep's
/// layout-neutral scalar work; high-II variants of these patches
/// backtrack thousands of times and churn the tile trail instead) — then
/// the spec_for-sized instance. The untiled/tiled summary pools exactly
/// the placeable-* rows, so these four carry the 64x64 acceptance median.
void append_placeable64_cases(
    const std::vector<std::string>& suite_filter, const CgraArch& arch,
    std::vector<Dfg>& keep,
    std::vector<std::pair<std::string, Prepared>>& cases) {
  struct PatchCase {
    int ii;
    std::uint64_t seed;
  };
  for (const PatchCase& pc :
       {PatchCase{4, 77}, PatchCase{5, 154}, PatchCase{6, 154}}) {
    PlaceableGridSpec ps;
    ps.rows = 32;
    ps.cols = 32;
    ps.ii = pc.ii;
    ps.edge_keep = 1.0;  // full patch: maximal propagation traffic
    ps.seed = pc.seed;
    const std::string nm = "placeable-32x32-ii" + std::to_string(pc.ii);
    if (suite_selected(suite_filter, nm)) {
      std::vector<int> labels;
      keep.push_back(placeable_grid_dfg(ps, &labels));
      cases.emplace_back(nm, Prepared{&keep.back(), std::move(labels), ps.ii});
    }
  }
  const PlaceableGridSpec pspec =
      placeable_spec_for(arch, 2, static_cast<std::uint64_t>(90 + 64));
  const std::string pname = "placeable-" + std::to_string(pspec.rows) + "x" +
                            std::to_string(pspec.cols);
  if (suite_selected(suite_filter, pname)) {
    std::vector<int> labels;
    keep.push_back(placeable_grid_dfg(pspec, &labels));
    cases.emplace_back(pname,
                       Prepared{&keep.back(), std::move(labels), pspec.ii});
  }
}

/// Scaled synthetic workload for the multi-word grid sections: a layered
/// DFG whose schedule is the layer index mod II — valid by construction
/// (layered edges span consecutive layers; register persistence imposes no
/// slot-adjacency constraint) and free of TimeSolver cost, so the section
/// measures the space engine only.
Prepared prepare_layered(const Dfg& dfg, int width, int ii) {
  Prepared p{&dfg, {}, ii};
  for (NodeId v = 0; v < dfg.num_nodes(); ++v) {
    p.labels.push_back((v / width) % ii);
  }
  return p;
}

void run_json_mode(const std::vector<int>& grids, int repeats,
                   const std::vector<std::string>& suite_filter) {
  json::Writer json;
  json.begin_object();
  json.field("bench", "bench_micro_space");
  json.key("grids");
  json.begin_array();
  for (const int g : grids) json.value(g);
  json.end_array();
  json.field("topology", topology_name(Topology::kMesh));
  json.field("repeats", repeats);
  json.field("nproc", static_cast<int>(std::thread::hardware_concurrency()));
  json.field("split_helpers", space_split_helpers());
  json.field("simd", simd::level_name(simd::active_level()));

  std::vector<double> ref_ratios;  // grid 8: reference / bitset
  // Per-grid summary inputs for the multi-word sections.
  std::map<int, std::vector<double>> scalar_ratios;   // scalar / simd
  std::map<int, std::vector<double>> untiled_ratios;  // untiled / tiled
  std::map<int, std::vector<double>> bytes_touched;   // tiled-row bytes

  json.key("space");
  json.begin_array();

  // The 64x64 placement (layout-comparison) suite runs before every other
  // section, in near-fresh process state. The untiled-over-tiled
  // differential is partly a memory-system effect beyond cache lines:
  // long-lived process state — the allocator adapting its mmap/trim
  // thresholds after earlier sections' large instances, hugepage
  // promotion of a heap that has been hot for seconds — measurably
  // compresses it (same instance pair: ~1.4x when measured first in the
  // process, ~1.2x after a single 1444-node case has run). A production
  // mapping is one fresh process per instance, so the clean-state numbers
  // are the representative ones; rows are self-describing (suite/grid/
  // engine fields), so their position in the array is free.
  std::set<std::string> hoisted;
  if (std::find(grids.begin(), grids.end(), 64) != grids.end()) {
    const CgraArch arch = CgraArch::square(64);
    std::vector<std::pair<std::string, Prepared>> cases;
    std::vector<Dfg> keep;
    keep.reserve(4);  // Prepared holds Dfg*; growth must not relocate
    append_placeable64_cases(suite_filter, arch, keep, cases);
    for (const auto& [name, p] : cases) {
      run_multi_word_case(json, name, 64, p, arch, repeats,
                          scalar_ratios[64], untiled_ratios[64],
                          bytes_touched[64]);
      hoisted.insert(name);
    }
  }

  for (const int grid : grids) {
    const CgraArch arch = CgraArch::square(grid);
    // Multi-word regime: compare dispatched kernels against the scalar
    // reference kernels on the identical search (bit-identical traces, so
    // the counters must match row-for-row and only `seconds` may differ).
    const bool multi_word = arch.num_pes() > 2 * PeSet::kWordBits;

    std::vector<std::pair<std::string, Prepared>> cases;
    std::vector<Dfg> keep;  // generated DFGs outlive their Prepared views
    keep.reserve(8);  // Prepared holds Dfg*; growth must not relocate
    for (const Benchmark& b : benchmark_suite()) {
      if (!suite_selected(suite_filter, b.name)) continue;
      Prepared p = prepare(b.dfg, arch);
      if (p.labels.empty()) continue;
      cases.emplace_back(b.name, std::move(p));
    }
    if (multi_word) {
      // Depth/width/II grow with the fabric so the domains stay busy.
      const int layers = grid == 16 ? 6 : grid == 32 ? 8 : 10;
      const int width = grid == 16 ? 10 : grid == 32 ? 14 : 18;
      const int ii = grid == 16 ? 3 : grid == 32 ? 4 : 5;
      const std::string name =
          "layered-" + std::to_string(layers) + "x" + std::to_string(width);
      if (suite_selected(suite_filter, name)) {
        // Seeds picked so the root degree filter does not insta-refute the
        // instance — the row must exercise propagation, not a precheck.
        keep.push_back(layered_dfg(
            layers, width, static_cast<std::uint64_t>(16 + grid)));
        cases.emplace_back(name,
                           prepare_layered(keep.back(), width, ii));
      }
      if (grid == 64) {
        // The grid-64 placement cases already ran in the hoisted
        // clean-state pass above.
      } else {
        // Satisfiable placement instance sized against the fabric: the
        // search must find an embedding (witness exists by construction),
        // so this row measures placement throughput, complementing the
        // refutation-heavy layered row.
        const PlaceableGridSpec pspec =
            placeable_spec_for(arch, 2, static_cast<std::uint64_t>(90 + grid));
        const std::string pname = "placeable-" + std::to_string(pspec.rows) +
                                  "x" + std::to_string(pspec.cols);
        if (suite_selected(suite_filter, pname)) {
          std::vector<int> labels;
          keep.push_back(placeable_grid_dfg(pspec, &labels));
          cases.emplace_back(pname,
                             Prepared{&keep.back(), std::move(labels),
                                      pspec.ii});
        }
      }
    }

    for (const auto& [name, p] : cases) {
      if (hoisted.count(name) != 0) continue;
      if (!multi_word) {
        SpaceOptions opt;
        SpaceResult last;
        const double bitset_med = run_search(p, arch, opt, repeats, last);
        emit_space_row(json, name, grid, "bitset", p.ii, bitset_med, last);
        opt.engine = SpaceEngine::kReference;
        SpaceResult ref_last;
        const double med = run_search(p, arch, opt, repeats, ref_last);
        if (bitset_med > 0.0) ref_ratios.push_back(med / bitset_med);
        emit_space_row(json, name, grid, "reference", p.ii, med, ref_last);
      } else {
        run_multi_word_case(json, name, grid, p, arch, repeats,
                            scalar_ratios[grid], untiled_ratios[grid],
                            bytes_touched[grid]);
      }
    }
  }
  json.end_array();

  // The speculative cross-II race vs the single sequential walk, full
  // decoupled solves. Grid 8 only: the section tracks the small-fabric
  // mapper end to end.
  json.key("walk");
  json.begin_array();
  for (const int grid : grids) {
    if (grid != 8) continue;
    const CgraArch arch = CgraArch::square(grid);
    for (const Benchmark& b : benchmark_suite()) {
      if (!suite_selected(suite_filter, b.name)) continue;
      DecoupledMapperOptions opt;
      opt.timeout_s = 30.0;
      const DecoupledMapper mapper(opt);
      std::vector<double> single_s;
      std::vector<double> speculative_s;
      MapResult single;
      MapResult speculative;
      for (int r = 0; r < repeats; ++r) {
        // Both sides on the same basis: full wall-clock around the call
        // (thread spawn/join and validation included).
        Stopwatch single_wall;
        single = mapper.map(b.dfg, arch);
        single_s.push_back(single_wall.elapsed_s());
        Stopwatch speculative_wall;
        speculative = mapper.map(b.dfg, arch, /*lookahead=*/2);
        speculative_s.push_back(speculative_wall.elapsed_s());
      }
      // The race commits the single walk's II, so only its wall clock
      // rides along.
      json.begin_object();
      json.field("suite", b.name);
      json.field("grid", grid);
      json.field("single_success", single.success);
      json.field("single_s", median(single_s));
      json.field("speculative_success", speculative.success);
      json.field("speculative_s", median(speculative_s));
      json.field("ii", single.success ? single.ii : -1);
      json.end_object();
    }
  }
  json.end_array();

  json.key("summary");
  json.begin_object();
  json.field("median_speedup_reference_over_bitset", median(ref_ratios));
  json.key("median_speedup_scalar_over_simd");
  json.begin_object();
  for (const auto& [grid, ratios] : scalar_ratios) {
    json.field(std::to_string(grid), median(ratios));
  }
  json.end_object();
  json.key("median_speedup_untiled_over_tiled");
  json.begin_object();
  for (const auto& [grid, ratios] : untiled_ratios) {
    if (ratios.empty()) continue;  // grid ran no placement rows
    json.field(std::to_string(grid), median(ratios));
  }
  json.end_object();
  json.key("median_bytes_touched");
  json.begin_object();
  for (const auto& [grid, bytes] : bytes_touched) {
    json.field(std::to_string(grid), median(bytes));
  }
  json.end_object();
  json.end_object();
  json.end_object();
  std::cout << json.str() << '\n';
}

std::vector<std::string> split_csv(const char* arg) {
  std::vector<std::string> out;
  std::string cur;
  for (const char* c = arg; *c != '\0'; ++c) {
    if (*c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(*c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> grids;
  std::vector<std::string> suites;
  int repeats = 5;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    // --grid N (single, legacy) or --grids 8,16,32 (sections in order).
    if ((std::strcmp(argv[i], "--grid") == 0 ||
         std::strcmp(argv[i], "--grids") == 0) &&
        i + 1 < argc) {
      for (const std::string& g : split_csv(argv[i + 1])) {
        const int side = std::atoi(g.c_str());
        if (side >= 1) grids.push_back(side);
      }
    }
    if (std::strcmp(argv[i], "--suites") == 0 && i + 1 < argc) {
      suites = split_csv(argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--repeats") == 0 && i + 1 < argc) {
      repeats = std::atoi(argv[i + 1]);
    }
  }
  if (json) {
    if (grids.empty()) grids.push_back(8);
    run_json_mode(grids, std::max(repeats, 1), suites);
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
