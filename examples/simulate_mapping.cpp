// Map a kernel, execute it on the functional CGRA simulator and check the
// results against the sequential interpreter — the full compile-and-run
// flow a CGRA user cares about.
//
// Usage: simulate_mapping [benchmark] [grid_side] (default: gsm 4)
#include <iostream>

#include "mapper/decoupled_mapper.hpp"
#include "mapper/reg_pressure.hpp"
#include "sim/simulator.hpp"
#include "workloads/suite.hpp"

int main(int argc, char** argv) {
  using namespace monomap;

  const std::string name = argc > 1 ? argv[1] : "gsm";
  const int side = argc > 2 ? std::atoi(argv[2]) : 4;
  const Benchmark& b = benchmark_by_name(name);
  const CgraArch arch = CgraArch::square(side);

  std::cout << "Compiling '" << b.name << "' for " << arch.description()
            << "\n";
  DecoupledMapperOptions opt;
  opt.timeout_s = 60.0;
  const MapResult r = DecoupledMapper(opt).map(b.dfg, arch);
  if (!r.success) {
    std::cerr << "mapping failed: " << r.failure_reason << '\n';
    return 1;
  }
  std::cout << "II=" << r.ii << " (mII=" << r.mii.mii() << "), "
            << r.mapping.num_stages() << " pipeline stages\n\n";

  const RegPressureReport pressure =
      analyze_register_pressure(b.dfg, arch, r.mapping);
  std::cout << pressure.to_string() << "\n\n";

  SimOptions sopt;
  sopt.iterations = r.mapping.num_stages() + 6;
  const SimResult sim = simulate(b.kernel, b.dfg, arch, r.mapping, sopt);
  std::cout << "simulated " << sopt.iterations << " iterations in "
            << sim.cycles << " cycles ("
            << static_cast<double>(sopt.iterations) * b.dfg.num_nodes() /
                   sim.cycles
            << " ops/cycle)\n";

  const auto problems =
      verify_mapping_by_simulation(b.kernel, b.dfg, arch, r.mapping, sopt);
  if (problems.empty()) {
    std::cout << "verification: mapped execution matches the sequential "
                 "interpreter bit-for-bit\n";
    return 0;
  }
  std::cerr << "verification FAILED:\n";
  for (const auto& p : problems) {
    std::cerr << "  " << p << '\n';
  }
  return 1;
}
