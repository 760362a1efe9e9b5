// Plain-text serialisation of DFGs and mappings.
//
// Lets users bring their own kernels to the mapper (and archive results)
// without writing C++. Format, line-oriented, '#' comments:
//
//   dfg <name>
//   nodes <count>
//   edge <src> <dst> <distance>
//   ...
//   end
//
//   mapping <name>
//   ii <value>
//   place <node> <pe> <time>
//   ...
//   end
#ifndef MONOMAP_IO_DFG_IO_HPP
#define MONOMAP_IO_DFG_IO_HPP

#include <string>

#include "ir/dfg.hpp"
#include "mapper/mapping.hpp"

namespace monomap {

/// Serialise a DFG (structure only; opcodes are not part of the mapping
/// problem and default to `add` on load).
std::string dfg_to_text(const Dfg& dfg);

/// Largest `nodes` count dfg_from_text accepts, checked before anything is
/// allocated (the biggest DFG in the repo, placeable-38x38, has 1,444).
inline constexpr int kMaxDfgTextNodes = 4096;

/// Largest number of `edge` lines dfg_from_text accepts: four per node at
/// the node cap. The densest DFGs in the repo stay far below it (the
/// placeable grids about two per node, the suite under two).
inline constexpr int kMaxDfgTextEdges = 4 * kMaxDfgTextNodes;

/// Largest loop-carried distance dfg_from_text accepts. The mapper and
/// validate_mapping compute distance × II in an int; with both at most
/// kMaxDfgTextNodes (the walk's own II ceiling is max(mII, nodes)) the
/// product stays far inside one. The suite's largest distance is 14.
inline constexpr int kMaxDfgTextDistance = kMaxDfgTextNodes;

/// Parse the `dfg` format above. Throws InputError on malformed input,
/// including a token that is not an integer where one is expected, a
/// `nodes` count of 0 or above kMaxDfgTextNodes, a distance above
/// kMaxDfgTextDistance, more than kMaxDfgTextEdges edges (refused before
/// the excess is stored), and distance-0 edges that form a cycle (no II
/// can schedule such a DFG).
Dfg dfg_from_text(const std::string& text);

/// Serialise a mapping of `dfg`.
std::string mapping_to_text(const Dfg& dfg, const Mapping& mapping);

/// Parse a mapping for a DFG with `num_nodes` nodes. Throws InputError on
/// malformed input, an `ii` below 1 or above kMaxDfgTextNodes (the
/// protocol's max_ii cap), or a node left unplaced.
Mapping mapping_from_text(const std::string& text, int num_nodes);

}  // namespace monomap

#endif  // MONOMAP_IO_DFG_IO_HPP
