// Coupled space-time exact mapper — the SAT-MapIt-style baseline [22].
//
// One SAT formulation decides schedule, placement and routing together:
// variables z[v][(T, pe)] range over the *joint* position space
// (KMS time x PE), so the formulation grows with |PEs| * II. This coupling
// is precisely what the paper identifies as the scalability bottleneck of
// prior exact mappers, and what Table III / Fig. 5 measure against.
#ifndef MONOMAP_MAPPER_COUPLED_MAPPER_HPP
#define MONOMAP_MAPPER_COUPLED_MAPPER_HPP

#include <string>

#include "mapper/mapping.hpp"
#include "sched/mii.hpp"

namespace monomap {

struct CoupledMapperOptions {
  /// Overall wall-clock budget in seconds (paper: 4000 s); <= 0 = unlimited.
  double timeout_s = 4000.0;
};

struct CoupledMapResult {
  bool success = false;
  bool timed_out = false;
  Mapping mapping;
  int ii = 0;
  MiiBreakdown mii;
  double total_s = 0.0;
  int num_vars = 0;     // of the final (or last attempted) formulation
  int num_clauses = 0;
  std::string failure_reason;
};

class CoupledSatMapper {
 public:
  explicit CoupledSatMapper(CoupledMapperOptions options = {})
      : options_(options) {}

  /// Map `dfg` onto `arch` by joint SAT search. On success the mapping
  /// passes validate_mapping (asserted internally).
  CoupledMapResult map(const Dfg& dfg, const CgraArch& arch) const;

 private:
  CoupledMapperOptions options_;
};

}  // namespace monomap

#endif  // MONOMAP_MAPPER_COUPLED_MAPPER_HPP
