// Integration tests: mapped kernels must compute exactly what the
// sequential interpreter computes, for every benchmark in the suite.
// Also covers modulo expansion and register pressure, which the simulator
// builds upon.
#include <gtest/gtest.h>

#include "mapper/decoupled_mapper.hpp"
#include "mapper/modulo_expansion.hpp"
#include "mapper/reg_pressure.hpp"
#include "sim/simulator.hpp"
#include "workloads/suite.hpp"

namespace monomap {
namespace {

MapResult map_on(const Dfg& dfg, const CgraArch& arch) {
  DecoupledMapperOptions opt;
  opt.timeout_s = 60.0;
  return DecoupledMapper(opt).map(dfg, arch);
}

class EndToEnd : public ::testing::TestWithParam<int> {};

TEST_P(EndToEnd, MappedExecutionMatchesInterpreterOn4x4) {
  const Benchmark& b = benchmark_suite()[static_cast<std::size_t>(GetParam())];
  const CgraArch arch = CgraArch::square(4);
  const MapResult r = map_on(b.dfg, arch);
  ASSERT_TRUE(r.success) << b.name << ": " << r.failure_reason;
  SimOptions sopt;
  sopt.iterations = std::max(8, r.mapping.num_stages() + 2);
  const auto problems =
      verify_mapping_by_simulation(b.kernel, b.dfg, arch, r.mapping, sopt);
  EXPECT_TRUE(problems.empty())
      << b.name << ": " << (problems.empty() ? "" : problems.front());
}

TEST_P(EndToEnd, RegisterPressureIsModest) {
  const Benchmark& b = benchmark_suite()[static_cast<std::size_t>(GetParam())];
  const CgraArch arch = CgraArch::square(4);
  const MapResult r = map_on(b.dfg, arch);
  ASSERT_TRUE(r.success) << b.name;
  const RegPressureReport report =
      analyze_register_pressure(b.dfg, arch, r.mapping);
  EXPECT_GE(report.max_per_pe, 1) << b.name;
  // The paper assumes RFs hold all live values; our kernels stay well under
  // a 32-entry RF (Fig. 1 shows a multi-entry register file per PE).
  EXPECT_LE(report.max_per_pe, 32) << b.name << " " << report.to_string();
  EXPECT_GE(report.total, b.dfg.num_nodes());
}

TEST_P(EndToEnd, ModuloExpansionIsPeriodic) {
  const Benchmark& b = benchmark_suite()[static_cast<std::size_t>(GetParam())];
  const CgraArch arch = CgraArch::square(5);
  const MapResult r = map_on(b.dfg, arch);
  ASSERT_TRUE(r.success) << b.name;
  const int iters = r.mapping.num_stages() + 3;
  const ModuloExpansion exp(r.mapping, iters);
  EXPECT_TRUE(exp.steady_state_is_periodic()) << b.name;
  // Every node appears exactly `iters` times in the expanded schedule.
  std::vector<int> count(static_cast<std::size_t>(b.dfg.num_nodes()), 0);
  for (int t = 0; t < exp.total_cycles(); ++t) {
    for (const ScheduledOp& op : exp.row(t)) {
      ++count[static_cast<std::size_t>(op.node)];
    }
  }
  for (const int c : count) {
    EXPECT_EQ(c, iters);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, EndToEnd, ::testing::Range(0, 17),
    [](const ::testing::TestParamInfo<int>& info) {
      return benchmark_suite()[static_cast<std::size_t>(info.param)].name;
    });

TEST(Simulator, DetectsBadTimingDynamically) {
  // Hand-build an invalid mapping (dependency not satisfied) and check the
  // simulator flags it even without the static validator.
  const Benchmark& b = benchmark_by_name("bitcount");
  const CgraArch arch = CgraArch::square(2);
  const MapResult r = map_on(b.dfg, arch);
  ASSERT_TRUE(r.success);
  // Corrupt: move every node to time 0 (keeps labels = 0, breaks ordering).
  std::vector<int> times(static_cast<std::size_t>(b.dfg.num_nodes()), 0);
  std::vector<PeId> pes;
  for (NodeId v = 0; v < b.dfg.num_nodes(); ++v) {
    pes.push_back(r.mapping.pe(v));
  }
  const Mapping bad(r.ii, times, pes);
  SimOptions sopt;
  sopt.iterations = 6;
  const SimResult sim = simulate(b.kernel, b.dfg, arch, bad, sopt);
  EXPECT_FALSE(sim.ok);
  EXPECT_FALSE(sim.errors.empty());
}

TEST(Simulator, HazardFreeOnSuite) {
  const Benchmark& b = benchmark_by_name("cfd");
  const CgraArch arch = CgraArch::square(5);
  const MapResult r = map_on(b.dfg, arch);
  ASSERT_TRUE(r.success);
  SimOptions sopt;
  sopt.iterations = std::max(8, r.mapping.num_stages() + 2);
  const SimResult sim = simulate(b.kernel, b.dfg, arch, r.mapping, sopt);
  EXPECT_TRUE(sim.ok);
  EXPECT_TRUE(sim.hazards.empty());
}

TEST(Simulator, RfSizeCheckTriggersWhenTiny) {
  const Benchmark& b = benchmark_by_name("aes");
  const CgraArch arch = CgraArch::square(4);
  const MapResult r = map_on(b.dfg, arch);
  ASSERT_TRUE(r.success);
  SimOptions sopt;
  sopt.iterations = std::max(8, r.mapping.num_stages() + 2);
  sopt.rf_size = 1;  // unrealistically small: must be reported
  const RegPressureReport rep = analyze_register_pressure(b.dfg, arch, r.mapping);
  const SimResult sim = simulate(b.kernel, b.dfg, arch, r.mapping, sopt);
  if (rep.max_per_pe > 1) {
    EXPECT_FALSE(sim.errors.empty());
  }
}

TEST(ModuloExpansion, RunningBitcountStageStructure) {
  const Benchmark& b = benchmark_by_name("bitcount");
  const CgraArch arch = CgraArch::square(2);
  const MapResult r = map_on(b.dfg, arch);
  ASSERT_TRUE(r.success);
  const ModuloExpansion exp(r.mapping, 8);
  EXPECT_EQ(exp.prologue_cycles(), (exp.stages() - 1) * exp.ii());
  EXPECT_FALSE(exp.to_string(b.dfg).empty());
  EXPECT_THROW(ModuloExpansion(r.mapping, exp.stages() - 1), AssertionError);
}

}  // namespace
}  // namespace monomap
