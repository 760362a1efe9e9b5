// Shared helpers for the table/figure bench harnesses.
#ifndef MONOMAP_BENCH_BENCH_COMMON_HPP
#define MONOMAP_BENCH_BENCH_COMMON_HPP

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "sched/mii.hpp"
#include "timing/time_solver.hpp"

namespace monomap::bench {

/// Per-solve timeout in seconds. The paper used 4000 s on a 256 GB server;
/// the harness defaults to a laptop-friendly budget and honours
/// MONOMAP_TIMEOUT_S for full-fidelity reruns.
inline double timeout_s(double fallback = 6.0) {
  if (const char* env = std::getenv("MONOMAP_TIMEOUT_S")) {
    const double v = std::atof(env);
    if (v > 0) return v;
  }
  return fallback;
}

/// Parse "2,5,10" style grid lists.
inline std::vector<int> parse_grids(const std::string& arg) {
  std::vector<int> grids;
  std::size_t pos = 0;
  while (pos < arg.size()) {
    const std::size_t comma = arg.find(',', pos);
    const std::string tok = arg.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (!tok.empty()) grids.push_back(std::atoi(tok.c_str()));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return grids;
}

/// Median of a (copied) sample vector; 0 when empty.
inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

/// The first schedule at the lowest II whose time search yields one: one
/// TimeSolver per II from mII up to the automatic ceiling
/// max(mII, #nodes), all under `deadline`. std::nullopt when no II in that
/// range yields a schedule or the deadline expired first.
inline std::optional<TimeSolution> first_schedule(
    const Dfg& dfg, const CgraArch& arch, const Deadline& deadline,
    const TimeSolverOptions& options = {}) {
  const int mii = compute_mii(dfg, arch).mii();
  const int ceiling = std::max(mii, dfg.num_nodes());
  for (int ii = mii; ii <= ceiling; ++ii) {
    TimeSolver solver(dfg, arch, ii, options);
    if (std::optional<TimeSolution> sol = solver.next(deadline)) return sol;
    if (solver.timed_out()) break;
  }
  return std::nullopt;
}

}  // namespace monomap::bench

#endif  // MONOMAP_BENCH_BENCH_COMMON_HPP
