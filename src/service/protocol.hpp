// Wire protocol of the mapping service: newline-delimited JSON.
//
// One request object per line; the service answers with exactly one JSON
// object per request, in order per connection. Verbs:
//
//   {"verb":"map", "id":..., "bench":"fft"|"dfg":"dfg ...\n...",
//    "grid":4|"rows":R,"cols":C, "topology":"mesh|torus|diagonal",
//    "deadline_s":S, "memo":bool, "anytime":bool,
//    "max_schedules":N, "max_ii":N, "mapping":bool}
//   {"verb":"stats", "id":...}
//   {"verb":"shutdown", "id":...}
//
// Defaults: memo follows the service configuration; the others are
// off/0. `mapping:true` asks for the placement text in the response.
// Grid sides are bounded by kMaxGridSide, and a line by kMaxRequestLineBytes.
// Unknown fields are ignored (forward compatibility); a missing or
// unknown verb, unparsable JSON, or an inconsistent body is a protocol
// error — answered with {"ok":false,"error":...}, never a dropped
// connection.
#ifndef MONOMAP_SERVICE_PROTOCOL_HPP
#define MONOMAP_SERVICE_PROTOCOL_HPP

#include <cstddef>
#include <string>

#include "arch/cgra.hpp"
#include "io/dfg_io.hpp"

namespace monomap {

/// Largest accepted `rows`/`cols`. CgraArch builds several per-PE tables of
/// num_pes-bit masks, so memory grows with the fourth power of the side:
/// 128x128 is ~100 MB of masks, 1024x1024 would be ~128 GB per table.
inline constexpr int kMaxGridSide = 128;

/// Longest request line monomap_serve buffers; past it the daemon answers
/// `bad request` and drops the connection. A DFG text at the caps of
/// io/dfg_io.hpp is kMaxDfgTextEdges edge lines whose endpoints are below
/// kMaxDfgTextNodes, so each takes under 32 bytes JSON-escaped
/// ("edge 4095 4095 2147483647\n" is 27). Twice that per edge line, plus
/// 64 KiB for the header, the name and the other fields, admits any such
/// request: about 1.1 MiB.
inline constexpr std::size_t kMaxRequestLineBytes =
    64 * static_cast<std::size_t>(kMaxDfgTextEdges) + (std::size_t{64} << 10);

struct ServeRequest {
  enum class Verb { kMap, kStats, kShutdown };
  Verb verb = Verb::kMap;
  std::string id;        // echoed verbatim in the response (as a string)
  std::string bench;     // workload-suite benchmark name, or empty
  std::string dfg_text;  // io/dfg_io format, or empty
  int rows = 4;
  int cols = 4;
  Topology topology = Topology::kMesh;
  double deadline_s = 0.0;  // <= 0: the service default
  /// Tri-state toggle: -1 = service default, 0 = off, 1 = on.
  int memo = -1;
  bool anytime = false;
  int max_schedules = 0;
  int max_ii = 0;
  bool want_mapping = false;
};

struct ParsedRequest {
  bool ok = false;
  std::string error;  // set when !ok
  ServeRequest request;
};

/// Parse one request line. Never throws; malformed input comes back as
/// ok = false with a one-line reason.
ParsedRequest parse_request(const std::string& line);

}  // namespace monomap

#endif  // MONOMAP_SERVICE_PROTOCOL_HPP
