// Simulated-annealing heuristic mapper (DRESC-style baseline).
//
// The first generation of CGRA mappers (Mei et al., ADRES/DRESC [11])
// anneals scheduling, placement and routing together: start from a random
// space-time assignment and move single operations to random legal
// positions, accepting cost-increasing moves with Boltzmann probability.
// The paper's related-work section cites the known drawbacks — long run
// times, low-quality solutions, limited scalability — which this
// implementation lets the benches quantify against both exact mappers.
//
// Cost function: weighted sum of dependency-timing violations, spatial
// adjacency violations and (PE, slot) collisions; a zero-cost state is a
// valid mapping (it passes validate_mapping by construction).
#ifndef MONOMAP_MAPPER_ANNEALING_MAPPER_HPP
#define MONOMAP_MAPPER_ANNEALING_MAPPER_HPP

#include <cstdint>

#include "mapper/mapping.hpp"
#include "sched/mii.hpp"

namespace monomap {

struct AnnealingOptions {
  /// Overall wall-clock budget in seconds; <= 0 = unlimited.
  double timeout_s = 60.0;
};

struct AnnealResult {
  bool success = false;
  bool timed_out = false;
  Mapping mapping;
  int ii = 0;
  MiiBreakdown mii;
  double total_s = 0.0;
  std::uint64_t moves = 0;
  int restarts = 0;
  std::string failure_reason;
};

class AnnealingMapper {
 public:
  explicit AnnealingMapper(AnnealingOptions options = {})
      : options_(options) {}

  /// Map by simulated annealing over the joint space-time assignment.
  /// On success the mapping passes validate_mapping (asserted internally).
  AnnealResult map(const Dfg& dfg, const CgraArch& arch) const;

 private:
  AnnealingOptions options_;
};

}  // namespace monomap

#endif  // MONOMAP_MAPPER_ANNEALING_MAPPER_HPP
