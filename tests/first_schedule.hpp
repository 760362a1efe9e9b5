// "The first schedule" for tests that need one: a TimeSolver searches a
// single II, so walk IIs from mII up to the automatic ceiling
// max(mII, #nodes) and stop at the first II whose time search yields.
#ifndef MONOMAP_TESTS_FIRST_SCHEDULE_HPP
#define MONOMAP_TESTS_FIRST_SCHEDULE_HPP

#include <algorithm>
#include <optional>

#include "sched/mii.hpp"
#include "timing/time_solver.hpp"

namespace monomap {

struct FirstSchedule {
  std::optional<TimeSolution> solution;
  int capacity_refuted_horizons = 0;  // summed over the IIs walked
};

inline FirstSchedule first_schedule(const Dfg& dfg, const CgraArch& arch,
                                    const Deadline& deadline,
                                    const TimeSolverOptions& options = {}) {
  const int mii = compute_mii(dfg, arch).mii();
  FirstSchedule first;
  for (int ii = mii; ii <= std::max(mii, dfg.num_nodes()); ++ii) {
    TimeSolver solver(dfg, arch, ii, options);
    first.solution = solver.next(deadline);
    first.capacity_refuted_horizons +=
        solver.stats().capacity_refuted_horizons;
    if (first.solution.has_value() || solver.timed_out()) break;
  }
  return first;
}

}  // namespace monomap

#endif  // MONOMAP_TESTS_FIRST_SCHEDULE_HPP
