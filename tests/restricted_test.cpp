// Tests for the restricted-interconnect extension (the paper's future-work
// architecture: no cross-slot register persistence; values must be consumed
// on equal or cyclically-consecutive kernel slots).
#include <string>

#include <gtest/gtest.h>

#include "mapper/decoupled_mapper.hpp"
#include "sim/simulator.hpp"
#include "timing/time_formulation.hpp"
#include "workloads/running_example.hpp"
#include "workloads/suite.hpp"

namespace monomap {
namespace {

DecoupledMapperOptions restricted_options() {
  DecoupledMapperOptions opt;
  opt.timeout_s = 60.0;
  opt.space.model = MrrgModel::kConsecutiveOnly;
  return opt;
}

TEST(Restricted, RunningExampleStillMaps) {
  const Dfg dfg = running_example_dfg();
  const CgraArch arch = CgraArch::square(2);
  const MapResult r = DecoupledMapper(restricted_options()).map(dfg, arch);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_TRUE(mapping_is_valid(dfg, arch, r.mapping,
                               MrrgModel::kConsecutiveOnly));
  // The restriction can only keep II equal or raise it.
  EXPECT_GE(r.ii, 4);
}

class RestrictedSuite : public ::testing::TestWithParam<const char*> {};

TEST_P(RestrictedSuite, MapsOn5x5) {
  const Benchmark& b = benchmark_by_name(GetParam());
  const CgraArch arch = CgraArch::square(5);
  const MapResult r = DecoupledMapper(restricted_options()).map(b.dfg, arch);
  ASSERT_TRUE(r.success) << b.name << ": " << r.failure_reason;
  EXPECT_TRUE(mapping_is_valid(b.dfg, arch, r.mapping,
                               MrrgModel::kConsecutiveOnly))
      << b.name;
  // Unrestricted mapping at the same budget: II can only be <= (the
  // persistence architecture strictly dominates — the paper's Sec. V
  // argument, and [24]'s observed II inflation).
  DecoupledMapperOptions free_opt;
  free_opt.timeout_s = 60.0;
  const MapResult free_run = DecoupledMapper(free_opt).map(b.dfg, arch);
  ASSERT_TRUE(free_run.success) << b.name;
  EXPECT_LE(free_run.ii, r.ii) << b.name;
}

// The suite DFGs the restricted model maps as they are on 5x5. The others
// need routing (pass-through) nodes on long dependences — aes and fft among
// them — or defeat the chain-embedding search outright (crc32, basicmath,
// sha2, lud, particlefilter: mid-length recurrences with hub nodes).
INSTANTIATE_TEST_SUITE_P(
    Subset, RestrictedSuite,
    ::testing::Values("backprop", "bitcount", "gsm", "heartwall", "nw",
                      "sha1", "stringsearch", "susan"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

TEST(Restricted, MappedExecutionStillMatchesInterpreter) {
  const Benchmark& b = benchmark_by_name("gsm");
  const CgraArch arch = CgraArch::square(4);
  const MapResult r = DecoupledMapper(restricted_options()).map(b.dfg, arch);
  ASSERT_TRUE(r.success) << r.failure_reason;
  SimOptions sopt;
  sopt.iterations = r.mapping.num_stages() + 4;
  const auto problems =
      verify_mapping_by_simulation(b.kernel, b.dfg, arch, r.mapping, sopt);
  EXPECT_TRUE(problems.empty())
      << (problems.empty() ? "" : problems.front());
}

TEST(Restricted, TimeFormulationForbidsLongSpans) {
  // Chain a->b with a's window at T=0 and b forced beyond T=1 by a second
  // path: with II=4 and consecutive_slots the slot-distance-2 assignment
  // must be excluded.
  const Dfg dfg = Dfg::from_edges(
      "span", 4, {{0, 1, 0}, {0, 2, 0}, {2, 3, 0}, {1, 3, 0}});
  const CgraArch arch = CgraArch::square(3);
  TimeConstraintOptions opt;
  opt.consecutive_slots = true;
  TimeFormulation f(dfg, arch, 4, 0, opt);
  ASSERT_TRUE(f.build());
  ASSERT_EQ(f.solve(Deadline::unlimited()), SatStatus::kSat);
  const TimeSolution sol = f.extract();
  const Graph& g = dfg.graph();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const int d =
        (sol.label(g.edge(e).dst) - sol.label(g.edge(e).src) + 4) % 4;
    EXPECT_TRUE(d == 0 || d == 1 || d == 3) << "edge " << e;
  }
}

TEST(Restricted, ValidatorFlagsNonConsecutiveSpan) {
  const Dfg dfg = Dfg::from_edges("pair", 2, {{0, 1, 0}});
  const CgraArch arch = CgraArch::square(2);
  // Slots 0 and 2 with II=4: fine under persistence, invalid restricted.
  const Mapping m(4, {0, 2}, {0, 1});
  EXPECT_TRUE(mapping_is_valid(dfg, arch, m));
  EXPECT_FALSE(
      mapping_is_valid(dfg, arch, m, MrrgModel::kConsecutiveOnly));
}

}  // namespace
}  // namespace monomap
