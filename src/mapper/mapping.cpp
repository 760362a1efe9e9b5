#include "mapper/mapping.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>

namespace monomap {

int Mapping::max_time() const {
  MONOMAP_ASSERT(!time_.empty());
  return *std::max_element(time_.begin(), time_.end());
}

int Mapping::num_stages() const { return max_time() / ii_ + 1; }

std::vector<MappingViolation> validate_mapping(const Dfg& dfg,
                                               const CgraArch& arch,
                                               const Mapping& mapping,
                                               MrrgModel model) {
  std::vector<MappingViolation> out;
  auto fail = [&out](const std::string& what) {
    out.push_back(MappingViolation{what});
  };

  if (mapping.num_nodes() != dfg.num_nodes()) {
    fail("mapping covers " + std::to_string(mapping.num_nodes()) +
         " nodes but DFG has " + std::to_string(dfg.num_nodes()));
    return out;
  }
  const int ii = mapping.ii();

  // mono2 well-formedness: PE ids and times in range.
  for (NodeId v = 0; v < dfg.num_nodes(); ++v) {
    if (!arch.has_pe(mapping.pe(v))) {
      fail("node " + std::to_string(v) + " placed on invalid PE " +
           std::to_string(mapping.pe(v)));
    }
    if (mapping.time(v) < 0) {
      fail("node " + std::to_string(v) + " has negative schedule time");
    }
  }
  if (!out.empty()) return out;

  // mono1: injectivity on (PE, slot).
  std::map<std::pair<PeId, int>, NodeId> occupied;
  for (NodeId v = 0; v < dfg.num_nodes(); ++v) {
    const auto key = std::make_pair(mapping.pe(v), mapping.slot(v));
    const auto [it, inserted] = occupied.emplace(key, v);
    if (!inserted) {
      fail("nodes " + std::to_string(it->second) + " and " +
           std::to_string(v) + " both occupy PE" +
           std::to_string(key.first) + " slot " + std::to_string(key.second));
    }
  }

  // Capacity per slot (redundant with mono1; kept for diagnostics).
  std::vector<int> per_slot(static_cast<std::size_t>(ii), 0);
  for (NodeId v = 0; v < dfg.num_nodes(); ++v) {
    ++per_slot[static_cast<std::size_t>(mapping.slot(v))];
  }
  for (int s = 0; s < ii; ++s) {
    if (per_slot[static_cast<std::size_t>(s)] > arch.num_pes()) {
      fail("slot " + std::to_string(s) + " holds " +
           std::to_string(per_slot[static_cast<std::size_t>(s)]) +
           " ops > " + std::to_string(arch.num_pes()) + " PEs");
    }
  }

  // Timing + mono3 spatial adjacency per edge.
  const Graph& g = dfg.graph();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    const int ts = mapping.time(edge.src);
    const int td = mapping.time(edge.dst);
    // In 64 bits: a loaded time may be as large as INT_MAX.
    if (std::int64_t{td} + std::int64_t{edge.attr} * ii <
        std::int64_t{ts} + 1) {
      fail("edge " + std::to_string(edge.src) + "->" +
           std::to_string(edge.dst) + " (dist " + std::to_string(edge.attr) +
           ") violates timing: T_s=" + std::to_string(ts) +
           " T_d=" + std::to_string(td) + " II=" + std::to_string(ii));
    }
    if (edge.src == edge.dst) continue;  // self-dependency: same PE, fine
    if (!arch.adjacent_or_same(mapping.pe(edge.src), mapping.pe(edge.dst))) {
      fail("edge " + std::to_string(edge.src) + "->" +
           std::to_string(edge.dst) + " maps to non-adjacent PEs " +
           std::to_string(mapping.pe(edge.src)) + " and " +
           std::to_string(mapping.pe(edge.dst)));
    }
    if (model == MrrgModel::kConsecutiveOnly) {
      const int d =
          (mapping.slot(edge.dst) - mapping.slot(edge.src) + ii) % ii;
      if (!(d == 0 || d == 1 || d == ii - 1)) {
        fail("edge " + std::to_string(edge.src) + "->" +
             std::to_string(edge.dst) +
             " spans non-consecutive slots under the restricted model");
      }
    }
  }
  return out;
}

bool mapping_is_valid(const Dfg& dfg, const CgraArch& arch,
                      const Mapping& mapping, MrrgModel model) {
  return validate_mapping(dfg, arch, mapping, model).empty();
}

std::string mapping_to_string(const Dfg& dfg, const CgraArch& arch,
                              const Mapping& mapping) {
  std::ostringstream os;
  os << "mapping of '" << dfg.name() << "' onto " << arch.description()
     << " @ II=" << mapping.ii() << " (" << mapping.num_stages()
     << " stages)\n";
  for (int slot = 0; slot < mapping.ii(); ++slot) {
    os << "  slot " << slot << ":";
    for (NodeId v = 0; v < dfg.num_nodes(); ++v) {
      if (mapping.slot(v) == slot) {
        os << ' ' << dfg.node_name(v) << "@PE" << mapping.pe(v) << "(T="
           << mapping.time(v) << ')';
      }
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace monomap
