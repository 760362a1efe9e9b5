// The 17-benchmark workload suite (paper Sec. V).
//
// The paper maps the innermost loops (no calls, no conditionals) of 17
// MiBench/Rodinia benchmarks. Those exact LLVM-extracted DFGs are not
// distributable, so each kernel is reimplemented in the mini loop IR as a
// faithful sketch of the original inner loop (same op mix, same memory
// access style, same recurrence structure). Node counts match Table III
// exactly, and the recurrence bounds are chosen so that
// mII = max(ResII, RecII) reproduces the paper's mII for all 68
// (benchmark, grid) pairs — pinned by tests/workloads_test.cpp.
//
// Memory discipline (needed for the mapped-vs-sequential simulation check):
// loads only touch pure-input spaces, stores only pure-output spaces at
// per-iteration-unique addresses, and every loop-carried value flows through
// registers (carried references), never through memory.
#ifndef MONOMAP_WORKLOADS_SUITE_HPP
#define MONOMAP_WORKLOADS_SUITE_HPP

#include <array>
#include <string>
#include <vector>

#include "ir/dfg.hpp"
#include "ir/kernel.hpp"

namespace monomap {

/// CGRA side lengths evaluated in the paper's Table III.
inline constexpr std::array<int, 4> kPaperGridSizes{2, 5, 10, 20};

struct Benchmark {
  std::string name;
  LoopKernel kernel;
  Dfg dfg;
  int paper_nodes;                 // Table III "DFG Nodes"
  int paper_rec_ii;                // recurrence bound implied by Table III
  std::array<int, 4> paper_ii;     // Table III II per grid (-1 = timeout)
  std::array<int, 4> paper_mii;    // Table III mII per grid (as printed)
};

/// All 17 benchmarks, in the paper's (alphabetical) order.
const std::vector<Benchmark>& benchmark_suite();

/// Lookup by name; throws InputError if unknown.
const Benchmark& benchmark_by_name(const std::string& name);

}  // namespace monomap

#endif  // MONOMAP_WORKLOADS_SUITE_HPP
