// Ablation A3: monomorphism-search heuristics.
//
// Compares variable orderings (connectivity / degree / BFS), the forward
// check and symmetry breaking on schedules produced by the time solver for
// the full suite, reporting search effort (backtracks) and time.
//
// Usage: bench_ablation_space [grid_side] (default 5)
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "space/monomorphism.hpp"
#include "support/table.hpp"
#include "timing/time_solver.hpp"
#include "workloads/suite.hpp"

int main(int argc, char** argv) {
  using namespace monomap;
  using namespace monomap::bench;

  const int side = argc > 1 ? std::atoi(argv[1]) : 5;
  const CgraArch arch = CgraArch::square(side);
  std::cout << "Ablation A3 — space-search heuristics on "
            << arch.description() << "\n\n";

  struct Config {
    std::string name;
    SpaceOptions options;
  };
  std::vector<Config> configs;
  for (const SpaceOrder order :
       {SpaceOrder::kDynamicMrv, SpaceOrder::kConnectivity,
        SpaceOrder::kDegree, SpaceOrder::kBfs}) {
    Config c;
    c.name = to_string(order);
    c.options.order = order;
    configs.push_back(c);
  }
  {
    // The forward-check toggle only exists in the reference engine (the
    // bitset engine's propagation subsumes it), so both rows of that
    // comparison pin the engine.
    Config ref;
    ref.name = "connectivity/reference";
    ref.options.engine = SpaceEngine::kReference;
    ref.options.order = SpaceOrder::kConnectivity;
    configs.push_back(ref);
    Config c;
    c.name = "connectivity/ref-no-fwd";
    c.options.engine = SpaceEngine::kReference;
    c.options.order = SpaceOrder::kConnectivity;
    c.options.forward_check = false;
    configs.push_back(c);
    Config d;
    d.name = "mrv/no-sym";
    d.options.symmetry_breaking = false;
    configs.push_back(d);
    Config e;
    e.name = "mrv/reference";
    e.options.engine = SpaceEngine::kReference;
    configs.push_back(e);
  }

  // Collect one schedule per benchmark (shared across configs for fairness).
  struct Instance {
    const Benchmark* bench;
    std::vector<int> labels;
    int ii;
  };
  std::vector<Instance> instances;
  for (const Benchmark& b : benchmark_suite()) {
    const auto sol = first_schedule(b.dfg, arch, Deadline(timeout_s()));
    if (!sol.has_value()) continue;
    Instance inst;
    inst.bench = &b;
    inst.ii = sol->ii;
    for (NodeId v = 0; v < b.dfg.num_nodes(); ++v) {
      inst.labels.push_back(sol->label(v));
    }
    instances.push_back(std::move(inst));
  }
  std::cout << instances.size() << " schedules collected\n\n";

  AsciiTable table({"Config", "Found", "Total backtracks", "Total nodes",
                    "Total time[ms]"});
  for (const Config& cfg : configs) {
    int found = 0;
    std::uint64_t backtracks = 0;
    std::uint64_t nodes = 0;
    double ms = 0.0;
    for (const Instance& inst : instances) {
      const SpaceResult r = find_monomorphism(
          inst.bench->dfg, arch, inst.labels, inst.ii, cfg.options,
          Deadline(timeout_s()));
      if (r.found) ++found;
      backtracks += r.backtracks;
      nodes += r.nodes_expanded;
      ms += r.seconds * 1e3;
    }
    table.add_row({cfg.name,
                   std::to_string(found) + "/" +
                       std::to_string(instances.size()),
                   std::to_string(backtracks), std::to_string(nodes),
                   format_fixed(ms, 2)});
  }
  table.print(std::cout);
  return 0;
}
