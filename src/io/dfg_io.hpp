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

/// Parse the `dfg` format above. Throws AssertionError on malformed input,
/// including a token that is not an integer where one is expected, a
/// `nodes` count of 0 or above kMaxDfgTextNodes, and distance-0 edges that
/// form a cycle (no II can schedule such a DFG).
Dfg dfg_from_text(const std::string& text);

/// Serialise a mapping of `dfg`.
std::string mapping_to_text(const Dfg& dfg, const Mapping& mapping);

/// Parse a mapping for a DFG with `num_nodes` nodes.
Mapping mapping_from_text(const std::string& text, int num_nodes);

}  // namespace monomap

#endif  // MONOMAP_IO_DFG_IO_HPP
