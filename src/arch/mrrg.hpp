// Modulo Routing Resource Graph (paper Sec. IV-A, Fig. 3).
//
// II stacked copies of the CGRA linked through time. Vertices are (PE, slot)
// pairs with label(v) = slot. Two edge models are provided:
//
// * kRegisterPersistence (default; the paper's target architecture): a value
//   written into a PE's register file stays readable by the PE and its mesh
//   neighbours across kernel slots, so (p,i) and (q,j) are adjacent iff
//   q ∈ N(p) ∪ {p} and (p,i) != (q,j). The kernel is cyclic in time.
// * kConsecutiveOnly: edges only between slots i and (i+1) mod II plus
//   intra-slot mesh edges — the literal reading of the paper's E_M formula.
//   Used by ablation A2/A3 to show why persistence is the coherent model.
//
// The graph is never materialised: a 20x20 CGRA at II=16 has 6400 vertices
// and ~120k edges, and the space search and validate_mapping answer
// adjacency from grid coordinates and slots directly.
#ifndef MONOMAP_ARCH_MRRG_HPP
#define MONOMAP_ARCH_MRRG_HPP

namespace monomap {

enum class MrrgModel {
  kRegisterPersistence,
  kConsecutiveOnly,
};

}  // namespace monomap

#endif  // MONOMAP_ARCH_MRRG_HPP
