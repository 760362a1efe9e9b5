// Architecture exploration beyond the paper: map one kernel onto mesh,
// torus and diagonal (king) interconnects of several sizes and compare the
// achieved II — the kind of study the library enables out of the box.
//
// Usage: custom_arch [benchmark] (default: crc32)
#include <iostream>

#include "mapper/decoupled_mapper.hpp"
#include "support/table.hpp"
#include "workloads/suite.hpp"

int main(int argc, char** argv) {
  using namespace monomap;

  const std::string name = argc > 1 ? argv[1] : "crc32";
  const Benchmark& b = benchmark_by_name(name);
  std::cout << "Exploring interconnects for '" << b.name << "' ("
            << b.dfg.num_nodes() << " nodes, RecII=" << b.paper_rec_ii
            << ")\n\n";

  AsciiTable table({"Topology", "Grid", "D_M", "mII", "II", "Total[s]"});
  for (const Topology topo :
       {Topology::kMesh, Topology::kTorus, Topology::kDiagonal}) {
    for (const int side : {3, 4, 6}) {
      const CgraArch arch(side, side, topo);
      DecoupledMapperOptions opt;
      opt.timeout_s = 30.0;
      const MapResult r = DecoupledMapper(opt).map(b.dfg, arch);
      table.add_row({topology_name(topo),
                     std::to_string(side) + "x" + std::to_string(side),
                     std::to_string(arch.connectivity_degree()),
                     std::to_string(r.mii.mii()),
                     r.success ? std::to_string(r.ii) : "-",
                     format_time_s(r.total_s)});
    }
  }
  table.print(std::cout);
  std::cout << "\nRicher interconnects raise D_M, which relaxes the\n"
               "connectivity constraints and can lower the achieved II\n"
               "when the mesh is the bottleneck.\n";
  return 0;
}
