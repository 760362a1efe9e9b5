// Isomorphism-robust DFG fingerprints for the cross-request knowledge layer.
//
// The service memoises completed mappings across requests, which needs a key
// that identifies a DFG *up to node relabelling* — AutoSA-style flows emit
// many near-duplicate kernels whose node ids differ only by emission order.
// The fingerprint here is:
//
//   1. WL (Weisfeiler-Leman) colour refinement over (opcode, in/out edge
//      roles, loop-carried distances) to a fixpoint. The sorted colour
//      multiset is already an isomorphism invariant.
//   2. Canonical-form tie-break: individualisation-refinement search over
//      the non-singleton colour cells. Each leaf of the search is a
//      discrete colouring = a node ordering; the minimal signature over all
//      leaves is the canonical form, and `canon` maps node -> canonical
//      index. Two isomorphic DFGs get identical (iso_hi, iso_lo) AND their
//      canonical forms are the same labelled graph, so a mapping expressed
//      in canonical node space transfers between them by composing the two
//      permutations.
//
// The search is budget-bounded. The budget is counted in refinement steps,
// a quantity identical across isomorphic copies of a graph, so the
// abort decision itself is isomorphism-invariant: either every copy
// canonicalises or none does. On abort, `canonical` is false, `canon` is
// empty and (iso_hi, iso_lo) degrade to the WL-multiset hash — still a
// correct iso-invariant key, but without a transfer permutation, so the
// knowledge layer falls back to exact-identity matching (`exact`).
//
// 128 bits (two independently seeded hashes) make accidental collisions
// across a realistic cache population negligible; the consumers additionally
// validate anything reconstructed from a hit, so a collision costs a miss,
// never soundness.
#ifndef MONOMAP_MAPPER_FINGERPRINT_HPP
#define MONOMAP_MAPPER_FINGERPRINT_HPP

#include <cstdint>
#include <vector>

#include "arch/cgra.hpp"
#include "graph/graph.hpp"
#include "ir/dfg.hpp"

namespace monomap {

struct DfgFingerprint {
  /// Isomorphism-invariant 128-bit hash (canonical-form hash when
  /// `canonical`, WL colour-multiset hash otherwise).
  std::uint64_t iso_hi = 0;
  std::uint64_t iso_lo = 0;
  /// Node-id-sensitive hash of the graph exactly as given (opcodes + edge
  /// list in id order). Exact repeats match on this even when
  /// canonicalisation was aborted.
  std::uint64_t exact = 0;
  /// Canonicalisation ran to completion within budget.
  bool canonical = false;
  /// node id -> canonical index (empty unless `canonical`).
  std::vector<NodeId> canon;
};

/// Fingerprint `dfg`. `budget` bounds the individualisation-refinement
/// search in refinement steps (node-signature recomputations); 0 uses a
/// default generous enough for every suite case. The abort decision is
/// isomorphism-invariant (see file comment).
DfgFingerprint fingerprint_dfg(const Dfg& dfg, std::uint64_t budget = 0);

/// Hash of everything the mapping problem reads from the architecture:
/// rows, cols, topology.
std::uint64_t fingerprint_arch(const CgraArch& arch);

}  // namespace monomap

#endif  // MONOMAP_MAPPER_FINGERPRINT_HPP
