// Regenerates the paper's Table III: for each CGRA size (2x2, 5x5, 10x10,
// 20x20) and each of the 17 benchmarks, compile with the decoupled
// monomorphism mapper (time + space phases reported separately) and with the
// coupled SAT-MapIt-style baseline; report ΔT, the compilation-time ratio
// (CTR) and the achieved II against the paper's values.
//
// Usage: bench_table3 [--grids 2,5,10,20] [--timeout S] [--json]
// Env:   MONOMAP_TIMEOUT_S overrides the per-solve timeout (paper: 4000 s).
//
// Averages follow the paper's convention: rows where either tool timed out
// are excluded from the ΔT / CTR averages. --json swaps the ASCII tables
// for machine-readable records: one object per (grid, benchmark) row, the
// decoupled result as write_json writes it plus the baseline's verdict and
// the paper's values.
#include <algorithm>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "mapper/coupled_mapper.hpp"
#include "mapper/decoupled_mapper.hpp"
#include "support/json.hpp"
#include "support/table.hpp"
#include "workloads/suite.hpp"

int main(int argc, char** argv) {
  using namespace monomap;
  using namespace monomap::bench;

  std::vector<int> grids(kPaperGridSizes.begin(), kPaperGridSizes.end());
  double timeout = timeout_s();
  bool json_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--grids" && i + 1 < argc) grids = parse_grids(argv[i + 1]);
    if (arg == "--timeout" && i + 1 < argc) timeout = std::atof(argv[i + 1]);
    if (arg == "--json") json_mode = true;
  }

  json::Writer json;
  if (json_mode) {
    json.begin_object();
    json.field("bench", "bench_table3");
    json.field("timeout_s", timeout);
    json.key("rows");
    json.begin_array();
  } else {
    std::cout << "Table III reproduction — per-solve timeout " << timeout
              << " s (paper: 4000 s; set MONOMAP_TIMEOUT_S to raise)\n";
  }

  for (const int side : grids) {
    const CgraArch arch = CgraArch::square(side);
    if (!json_mode) {
      std::cout << "\n=== " << side << "x" << side << " CGRA ("
                << arch.num_pes() << " PEs) ===\n";
    }
    AsciiTable table({"Benchmark", "Nodes", "Time", "Space", "Baseline",
                      "dT", "CTR", "II", "II(paper)", "mII", "mII(paper)"});
    double sum_mono = 0.0;
    double sum_base = 0.0;
    double sum_ctr = 0.0;
    double sum_ctr_censored = 0.0;  // baseline TO counted at the timeout
    int censored_rows = 0;
    int complete_rows = 0;
    int mono_solved = 0;
    int base_solved = 0;

    std::size_t grid_index = 0;
    for (std::size_t g = 0; g < kPaperGridSizes.size(); ++g) {
      if (kPaperGridSizes[g] == side) grid_index = g;
    }
    const bool paper_grid =
        std::find(kPaperGridSizes.begin(), kPaperGridSizes.end(), side) !=
        kPaperGridSizes.end();

    for (const Benchmark& b : benchmark_suite()) {
      DecoupledMapperOptions mono_opt;
      mono_opt.timeout_s = timeout;
      const MapResult mono = DecoupledMapper(mono_opt).map(b.dfg, arch);

      CoupledMapperOptions base_opt;
      base_opt.timeout_s = timeout;
      const CoupledMapResult base = CoupledSatMapper(base_opt).map(b.dfg, arch);

      const bool mono_to = !mono.success;
      const bool base_to = !base.success;
      if (!mono_to) ++mono_solved;
      if (!base_to) ++base_solved;

      std::string dt = "-";
      std::string ctr = "-";
      if (!mono_to && !base_to) {
        dt = format_fixed(mono.total_s - base.total_s, 2);
        const double ratio = base.total_s / std::max(mono.total_s, 1e-4);
        ctr = format_fixed(ratio, 2);
        sum_mono += mono.total_s;
        sum_base += base.total_s;
        sum_ctr += ratio;
        ++complete_rows;
      }
      if (!mono_to) {
        // Censored view: a baseline timeout contributes at least `timeout`
        // seconds — a lower bound on the true ratio.
        sum_ctr_censored += (base_to ? timeout : base.total_s) /
                            std::max(mono.total_s, 1e-4);
        ++censored_rows;
      }
      if (json_mode) {
        json.begin_object();
        json.field("grid", side);
        json.field("suite", b.name);
        json.field("nodes", b.dfg.num_nodes());
        write_json(json, mono);
        json.field("baseline_success", !base_to);
        json.field("baseline_s", base.total_s);
        if (paper_grid) {
          json.field("paper_ii", b.paper_ii[grid_index]);
          json.field("paper_mii", b.paper_mii[grid_index]);
        }
        json.end_object();
        continue;  // the ASCII table is never printed in --json mode
      }
      table.add_row(
          {b.name, std::to_string(b.dfg.num_nodes()),
           mono_to ? "TO" : format_time_s(mono.time_phase_s),
           mono_to ? "TO" : format_time_s(mono.space_phase_s),
           base_to ? "TO" : format_time_s(base.total_s), dt, ctr,
           mono_to ? "-" : std::to_string(mono.ii),
           paper_grid ? (b.paper_ii[grid_index] < 0
                             ? std::string("TO")
                             : std::to_string(b.paper_ii[grid_index]))
                      : "-",
           std::to_string(mono.mii.mii()),
           paper_grid ? std::to_string(b.paper_mii[grid_index]) : "-"});
    }
    if (json_mode) continue;
    table.add_separator();
    table.add_row({"Average (no-TO rows)", "-",
                   complete_rows ? format_fixed(sum_mono / complete_rows, 3)
                                 : "-",
                   "", complete_rows
                           ? format_fixed(sum_base / complete_rows, 3)
                           : "-",
                   complete_rows
                       ? format_fixed((sum_mono - sum_base) / complete_rows, 2)
                       : "-",
                   complete_rows ? format_fixed(sum_ctr / complete_rows, 2)
                                 : "-",
                   "", "", "", ""});
    table.print(std::cout);
    std::cout << "decoupled solved " << mono_solved << "/17, baseline solved "
              << base_solved << "/17";
    if (complete_rows > 0) {
      std::cout << "; average CTR (speedup) over " << complete_rows
                << " comparable rows: " << format_fixed(sum_ctr / complete_rows, 2)
                << "x";
    }
    if (censored_rows > 0) {
      std::cout << "\nlower-bound CTR counting baseline timeouts at "
                << timeout << " s: >= "
                << format_fixed(sum_ctr_censored / censored_rows, 2) << "x";
    }
    std::cout << "\npaper averages: 2x2: 30.85x, 5x5: 103.76x, 10x10: 887.84x,"
                 " 20x20: 10288.89x (4000 s timeout)\n";
  }
  if (json_mode) {
    json.end_array();
    json.end_object();
    std::cout << json.str() << '\n';
  }
  return 0;
}
