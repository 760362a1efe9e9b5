// monomap — command-line driver for the mapping toolchain.
//
//   monomap list
//       List the built-in benchmark suite with structural stats.
//   monomap show <bench|file.dfg>
//       Print DFG stats, ASAP/ALAP/MobS table and DOT.
//   monomap map <bench|file.dfg> [--grid N] [--topology mesh|torus|diagonal]
//               [--timeout S] [--mapper decoupled|speculative|coupled|anneal]
//               [--restricted] [--out mapping.txt]
//       Compile a DFG and print (or save) the mapping.
//   monomap check <bench|file.dfg> <mapping.txt> [--grid N] [...]
//       Validate a saved mapping against a DFG and architecture.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "graph/dot.hpp"
#include "io/dfg_io.hpp"
#include "mapper/annealing_mapper.hpp"
#include "mapper/coupled_mapper.hpp"
#include "mapper/decoupled_mapper.hpp"
#include "mapper/reg_pressure.hpp"
#include "sched/mobility.hpp"
#include "support/argparse.hpp"
#include "support/fault.hpp"
#include "support/json.hpp"
#include "support/outcome.hpp"
#include "support/table.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace monomap;

struct CliOptions {
  int grid = 4;
  Topology topology = Topology::kMesh;
  double timeout_s = 30.0;
  std::string mapper = "decoupled";
  TimeEngine time_engine = TimeEngine::kIncremental;
  bool restricted = false;
  int threads = 0;   // batch pool workers: 0 = auto
  int lookahead = 2;  // speculative mapper: IIs raced beyond the frontier
  std::uint64_t space_budget = 0;    // valid only when space_budget_set
  bool space_budget_set = false;     // --space-budget given (0 = unlimited)
  bool distance2 = true;
  bool backjump = true;
  bool anytime = false;         // degrade to the best feasible mapping
  std::string space_order = "auto";  // auto|dynamic-mrv|sparse-mrv|static
  int max_schedules = 0;        // deterministic work budget (0 = off)
  std::uint64_t mem_budget_mb = 0;  // governor budget (0 = unlimited)
  std::string faults;           // fault-injection spec (empty = off)
  std::string out;
};

[[noreturn]] void usage() {
  std::cerr <<
      "usage: monomap <command> [args]\n"
      "  list\n"
      "  show <bench|file.dfg>\n"
      "  map <bench|file.dfg> [--grid N] [--topology mesh|torus|diagonal]\n"
      "      [--timeout S]\n"
      "      [--mapper decoupled|speculative|coupled|anneal]\n"
      "      [--time-engine incremental|reference]\n"
      "      [--lookahead N]   (speculative: IIs raced beyond the frontier)\n"
      "      [--space-budget N] [--no-distance2] [--no-backjump]\n"
      "      [--restricted] [--out FILE]\n"
      "      [--space-order dynamic-mrv|sparse-mrv|static]\n"
      "      [--anytime] [--max-schedules N] [--mem-budget-mb N]\n"
      "      [--faults SPEC]   (SPEC: site=kind@period[,...][:seed],\n"
      "                         see docs/robustness.md)\n"
      "  batch <bench|file.dfg>... [--grid N] [--topology T] [--timeout S]\n"
      "      [--threads N] [--max-schedules N] [--anytime] [--faults SPEC]\n"
      "      (shared deadline; --threads N pool workers, 1 = one case at a\n"
      "       time; prints per-case results and the batch outcome_counts\n"
      "       histogram)\n"
      "  check <bench|file.dfg> <mapping.txt> [--grid N] [--topology T]\n"
      "exit codes (map): 0 feasible, 3 degraded, 4 refuted, 5 deadline,\n"
      "                  6 memory, 7 fault, 8 cancelled\n";
  std::exit(2);
}

Dfg load_dfg(const std::string& spec) {
  if (spec.size() > 4 && spec.substr(spec.size() - 4) == ".dfg") {
    std::ifstream in(spec);
    if (!in) {
      std::cerr << "cannot open " << spec << '\n';
      std::exit(1);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return dfg_from_text(buffer.str());
  }
  return benchmark_by_name(spec).dfg;
}

// Strict flag-value parsers: trailing junk, empty strings and overflow are
// usage errors (exit 2 with a message naming the flag), never a silent
// atoi-zero that maps the wrong problem.
std::uint64_t parse_u64(const std::string& s, const char* flag) {
  std::uint64_t v = 0;
  if (!argparse::parse_u64(s, &v)) {
    std::cerr << flag << ": expected a non-negative integer, got '" << s
              << "'\n";
    usage();
  }
  return v;
}

int parse_pos_int(const std::string& s, const char* flag, int min_value) {
  int v = 0;
  if (!argparse::parse_int(s, &v) || v < min_value) {
    std::cerr << flag << ": expected an integer >= " << min_value
              << ", got '" << s << "'\n";
    usage();
  }
  return v;
}

double parse_pos_double(const std::string& s, const char* flag) {
  double v = 0.0;
  if (!argparse::parse_double(s, &v) || v <= 0.0) {
    std::cerr << flag << ": expected a positive number, got '" << s << "'\n";
    usage();
  }
  return v;
}

CliOptions parse_flags(int argc, char** argv, int first) {
  CliOptions opt;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--grid") {
      opt.grid = parse_pos_int(value(), "--grid", 1);
    } else if (arg == "--topology") {
      const std::string t = value();
      if (t == "mesh") opt.topology = Topology::kMesh;
      else if (t == "torus") opt.topology = Topology::kTorus;
      else if (t == "diagonal") opt.topology = Topology::kDiagonal;
      else usage();
    } else if (arg == "--timeout") {
      opt.timeout_s = parse_pos_double(value(), "--timeout");
    } else if (arg == "--mapper") {
      opt.mapper = value();
    } else if (arg == "--time-engine") {
      const std::string e = value();
      if (e == "incremental") opt.time_engine = TimeEngine::kIncremental;
      else if (e == "reference") opt.time_engine = TimeEngine::kReference;
      else usage();
    } else if (arg == "--threads") {
      opt.threads = parse_pos_int(value(), "--threads", 0);
    } else if (arg == "--lookahead") {
      opt.lookahead = parse_pos_int(value(), "--lookahead", 1);
    } else if (arg == "--space-budget") {
      opt.space_budget = parse_u64(value(), "--space-budget");
      opt.space_budget_set = true;
    } else if (arg == "--no-distance2") {
      opt.distance2 = false;
    } else if (arg == "--no-backjump") {
      opt.backjump = false;
    } else if (arg == "--anytime") {
      opt.anytime = true;
    } else if (arg == "--space-order") {
      const std::string o = value();
      if (o == "dynamic-mrv" || o == "sparse-mrv" || o == "static") {
        opt.space_order = o;
      } else {
        std::cerr << "--space-order: expected dynamic-mrv, sparse-mrv or "
                     "static, got '" << o << "'\n";
        usage();
      }
    } else if (arg == "--max-schedules") {
      opt.max_schedules = parse_pos_int(value(), "--max-schedules", 0);
    } else if (arg == "--mem-budget-mb") {
      opt.mem_budget_mb = parse_u64(value(), "--mem-budget-mb");
    } else if (arg == "--faults") {
      opt.faults = value();
    } else if (arg == "--restricted") {
      opt.restricted = true;
    } else if (arg == "--out") {
      opt.out = value();
    } else {
      usage();
    }
  }
  if (opt.grid < 1) usage();
  return opt;
}

int cmd_list() {
  AsciiTable table({"Benchmark", "Nodes", "Edges", "RecII", "MaxDeg",
                    "Paper II (2/5/10/20)"});
  for (const Benchmark& b : benchmark_suite()) {
    std::ostringstream ii;
    for (std::size_t g = 0; g < b.paper_ii.size(); ++g) {
      if (g != 0) ii << '/';
      if (b.paper_ii[g] < 0) ii << "TO";
      else ii << b.paper_ii[g];
    }
    table.add_row({b.name, std::to_string(b.dfg.num_nodes()),
                   std::to_string(b.dfg.num_edges()),
                   std::to_string(b.paper_rec_ii),
                   std::to_string(b.dfg.max_undirected_degree()), ii.str()});
  }
  table.print(std::cout);
  return 0;
}

int cmd_show(const std::string& spec) {
  const Dfg dfg = load_dfg(spec);
  std::cout << "DFG '" << dfg.name() << "': " << dfg.num_nodes()
            << " nodes, " << dfg.num_edges() << " edges, max degree "
            << dfg.max_undirected_degree() << "\n\n";
  const MobilitySchedule mobs(dfg);
  std::cout << mobs.to_table() << '\n'
            << to_dot(dfg.graph(), dfg.name());
  return 0;
}

int cmd_map(const std::string& spec, const CliOptions& opt) {
  if (!opt.faults.empty()) {
    std::string error;
    const auto plan = fault::parse_fault_spec(opt.faults, &error);
    if (!plan.has_value()) {
      std::cerr << "--faults: " << error << '\n';
      return 2;
    }
    fault::install_faults(*plan);
  }
  const Dfg dfg = load_dfg(spec);
  const CgraArch arch(opt.grid, opt.grid, opt.topology);
  std::cout << "mapping '" << dfg.name() << "' onto " << arch.description()
            << " with " << opt.mapper << " mapper\n";

  std::optional<Mapping> mapping;
  int ii = 0;
  double seconds = 0.0;
  // Outcome-taxonomy exit code (decoupled-family mappers); the legacy
  // coupled/anneal paths keep the historical 0/1.
  std::optional<int> exit_override;
  if (opt.mapper == "decoupled" || opt.mapper == "speculative") {
    DecoupledMapperOptions mopt;
    mopt.timeout_s = opt.timeout_s;
    mopt.time.engine = opt.time_engine;
    mopt.space.distance2_filter = opt.distance2;
    mopt.space.backjumping = opt.backjump;
    // "auto" leaves the engine defaults (dynamic MRV with the size-based
    // sparse upgrade); an explicit dynamic-mrv pins the classic ordering by
    // clearing the auto-upgrade, so A/B runs compare exactly what they name.
    if (opt.space_order == "dynamic-mrv") {
      mopt.space.order = SpaceOrder::kDynamicMrv;
      mopt.space.sparse_order_auto = false;
    } else if (opt.space_order == "sparse-mrv") {
      mopt.space.order = SpaceOrder::kSparseMrv;
    } else if (opt.space_order == "static") {
      mopt.space.order = SpaceOrder::kConnectivity;
    }
    mopt.anytime = opt.anytime;
    mopt.max_schedules = opt.max_schedules;
    mopt.memory_budget_mb = opt.mem_budget_mb;
    if (opt.space_budget_set) {
      mopt.space.max_backtracks = opt.space_budget;  // 0 = unlimited
    }
    if (opt.restricted) {
      mopt.space.model = MrrgModel::kConsecutiveOnly;
    }
    const MapResult r = DecoupledMapper(mopt).map(
        dfg, arch, opt.mapper == "speculative" ? opt.lookahead : 0);
    if (r.success) {
      mapping = r.mapping;
      ii = r.ii;
    } else {
      std::cerr << "failed: " << r.failure_reason << '\n';
    }
    json::Writer result;
    result.begin_object();
    write_json(result, r);
    std::cout << "result: " << result.end_object().str() << '\n';
    if (!r.causes.empty()) {
      std::cout << "causes: " << format_causes(r.causes) << '\n';
    }
    exit_override = exit_code(r.outcome);
    seconds = r.total_s;
  } else if (opt.mapper == "coupled") {
    CoupledMapperOptions mopt;
    mopt.timeout_s = opt.timeout_s;
    const CoupledMapResult r = CoupledSatMapper(mopt).map(dfg, arch);
    if (r.success) {
      mapping = r.mapping;
      ii = r.ii;
    } else {
      std::cerr << "failed: " << r.failure_reason << '\n';
    }
    seconds = r.total_s;
  } else if (opt.mapper == "anneal") {
    AnnealingOptions mopt;
    mopt.timeout_s = opt.timeout_s;
    const AnnealResult r = AnnealingMapper(mopt).map(dfg, arch);
    if (r.success) {
      mapping = r.mapping;
      ii = r.ii;
    } else {
      std::cerr << "failed: " << r.failure_reason << '\n';
    }
    seconds = r.total_s;
  } else {
    usage();
  }
  if (!mapping.has_value()) return exit_override.value_or(1);

  std::cout << "II=" << ii << " in " << format_time_s(seconds) << " s\n"
            << mapping_to_string(dfg, arch, *mapping)
            << analyze_register_pressure(dfg, arch, *mapping).to_string()
            << '\n';
  if (!opt.out.empty()) {
    std::ofstream out(opt.out);
    out << mapping_to_text(dfg, *mapping);
    std::cout << "mapping written to " << opt.out << '\n';
  }
  return exit_override.value_or(0);
}

int cmd_batch(const std::vector<std::string>& specs, const CliOptions& opt) {
  if (!opt.faults.empty()) {
    std::string error;
    const auto plan = fault::parse_fault_spec(opt.faults, &error);
    if (!plan.has_value()) {
      std::cerr << "--faults: " << error << '\n';
      return 2;
    }
    fault::install_faults(*plan);
  }
  std::vector<Dfg> dfgs;
  dfgs.reserve(specs.size());
  for (const std::string& spec : specs) {
    dfgs.push_back(load_dfg(spec));
  }
  std::vector<const Dfg*> ptrs;
  ptrs.reserve(dfgs.size());
  for (const Dfg& dfg : dfgs) ptrs.push_back(&dfg);
  const CgraArch arch(opt.grid, opt.grid, opt.topology);

  DecoupledMapperOptions mopt;
  mopt.time.engine = opt.time_engine;
  mopt.anytime = opt.anytime;
  mopt.max_schedules = opt.max_schedules;
  mopt.memory_budget_mb = opt.mem_budget_mb;
  if (opt.restricted) mopt.space.model = MrrgModel::kConsecutiveOnly;
  const DecoupledMapper mapper(mopt);

  BatchStats stats;
  const Deadline deadline(opt.timeout_s);
  const std::vector<MapResult> results =
      mapper.map_batch(ptrs, arch, deadline, opt.threads, &stats);

  AsciiTable table({"Case", "Outcome", "II", "Schedules", "Time (s)"});
  int worst = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const MapResult& r = results[i];
    table.add_row({specs[i], to_string(r.outcome),
                   r.success ? std::to_string(r.ii) : "-",
                   std::to_string(r.schedules_tried),
                   format_time_s(r.total_s)});
    worst = std::max(worst, exit_code(r.outcome));
  }
  table.print(std::cout);
  // The per-batch outcome histogram: every class printed (zeros included)
  // so scripted callers can grep a stable line.
  std::cout << "outcome_counts:";
  for (int o = 0; o < kMapOutcomeCount; ++o) {
    std::cout << ' ' << to_string(static_cast<MapOutcome>(o)) << '='
              << stats.outcome_counts[static_cast<std::size_t>(o)];
  }
  std::cout << "\npool: " << stats.steals << " steals, "
            << stats.fault_requeues << " fault requeues\n";
  return worst;
}

int cmd_check(const std::string& spec, const std::string& mapping_file,
              const CliOptions& opt) {
  const Dfg dfg = load_dfg(spec);
  const CgraArch arch(opt.grid, opt.grid, opt.topology);
  std::ifstream in(mapping_file);
  if (!in) {
    std::cerr << "cannot open " << mapping_file << '\n';
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const Mapping mapping =
      mapping_from_text(buffer.str(), dfg.num_nodes());
  const auto violations = validate_mapping(
      dfg, arch, mapping,
      opt.restricted ? MrrgModel::kConsecutiveOnly
                     : MrrgModel::kRegisterPersistence);
  if (violations.empty()) {
    std::cout << "mapping is valid (II=" << mapping.ii() << ")\n";
    return 0;
  }
  for (const auto& v : violations) {
    std::cerr << "violation: " << v.what << '\n';
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "list") return cmd_list();
    if (cmd == "show" && argc >= 3) return cmd_show(argv[2]);
    if (cmd == "map" && argc >= 3) {
      return cmd_map(argv[2], parse_flags(argc, argv, 3));
    }
    if (cmd == "batch" && argc >= 3) {
      std::vector<std::string> specs;
      int i = 2;
      while (i < argc && std::string(argv[i]).rfind("--", 0) != 0) {
        specs.emplace_back(argv[i]);
        ++i;
      }
      if (specs.empty()) usage();
      return cmd_batch(specs, parse_flags(argc, argv, i));
    }
    if (cmd == "check" && argc >= 4) {
      return cmd_check(argv[2], argv[3], parse_flags(argc, argv, 4));
    }
  } catch (const monomap::InputError& e) {
    // A refused DFG, mapping or benchmark name: the message alone.
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  } catch (const monomap::AssertionError& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  usage();
}
