#include "service/protocol.hpp"

#include <cmath>
#include <cstdio>

#include "support/json.hpp"

namespace monomap {
namespace {

/// Echo the request id as a string whatever JSON type it came in as.
std::string id_to_string(const json::Value& root) {
  const json::Value* id = root.find("id");
  if (id == nullptr) return "";
  if (id->is_string()) return id->as_string();
  if (id->is_number()) {
    char buf[32];
    const double d = id->as_number();
    if (d == std::floor(d) && std::fabs(d) < 1e15) {
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    } else {
      std::snprintf(buf, sizeof(buf), "%g", d);
    }
    return buf;
  }
  return "";
}

/// Positive integer field with a default; false (leaving *out alone) only
/// when the field is present but not a usable integer.
bool int_field(const json::Value& root, const std::string& key, int* out) {
  const json::Value* v = root.find(key);
  if (v == nullptr) return true;
  if (!v->is_number()) return false;
  const double d = v->as_number();
  if (d != std::floor(d) || d < -2e9 || d > 2e9) return false;
  *out = static_cast<int>(d);
  return true;
}

}  // namespace

ParsedRequest parse_request(const std::string& line) {
  ParsedRequest parsed;
  std::optional<json::Value> doc = json::parse(line);
  if (!doc.has_value() || !doc->is_object()) {
    parsed.error = "request is not a JSON object";
    return parsed;
  }
  ServeRequest& req = parsed.request;
  req.id = id_to_string(*doc);
  const std::string verb = doc->string_or("verb", "map");
  if (verb == "map") {
    req.verb = ServeRequest::Verb::kMap;
  } else if (verb == "stats") {
    req.verb = ServeRequest::Verb::kStats;
    parsed.ok = true;
    return parsed;
  } else if (verb == "shutdown") {
    req.verb = ServeRequest::Verb::kShutdown;
    parsed.ok = true;
    return parsed;
  } else {
    parsed.error = "unknown verb '" + verb + "'";
    return parsed;
  }

  req.bench = doc->string_or("bench", "");
  req.dfg_text = doc->string_or("dfg", "");
  if (req.bench.empty() == req.dfg_text.empty()) {
    parsed.error = "exactly one of 'bench' or 'dfg' is required";
    return parsed;
  }
  int grid = 0;
  if (!int_field(*doc, "grid", &grid) || !int_field(*doc, "rows", &req.rows) ||
      !int_field(*doc, "cols", &req.cols) ||
      !int_field(*doc, "max_schedules", &req.max_schedules) ||
      !int_field(*doc, "max_ii", &req.max_ii)) {
    parsed.error = "malformed integer field";
    return parsed;
  }
  if (doc->find("grid") != nullptr && grid < 1) {
    parsed.error = "grid dimensions out of range";
    return parsed;
  }
  if (grid > 0) {
    req.rows = grid;
    req.cols = grid;
  }
  if (req.rows < 1 || req.cols < 1 || req.rows > kMaxGridSide ||
      req.cols > kMaxGridSide) {
    parsed.error = "grid dimensions out of range";
    return parsed;
  }
  if (req.max_schedules < 0 || req.max_ii < 0) {
    parsed.error = "negative budget field";
    return parsed;
  }
  // No DFG the service takes needs an II ceiling above kMaxDfgTextNodes (at
  // II = #nodes a sequential schedule places), and the anytime probe, which
  // starts at the ceiling, allocates in proportion to it.
  if (req.max_ii > kMaxDfgTextNodes) {
    parsed.error = "max_ii above " + std::to_string(kMaxDfgTextNodes);
    return parsed;
  }
  const std::string topo = doc->string_or("topology", "mesh");
  if (topo == "mesh") {
    req.topology = Topology::kMesh;
  } else if (topo == "torus") {
    req.topology = Topology::kTorus;
  } else if (topo == "diagonal") {
    req.topology = Topology::kDiagonal;
  } else {
    parsed.error = "unknown topology '" + topo + "'";
    return parsed;
  }
  req.deadline_s = doc->number_or("deadline_s", 0.0);
  if (!(req.deadline_s >= 0.0) || req.deadline_s > 1e9) {
    parsed.error = "malformed deadline_s";
    return parsed;
  }
  const json::Value* memo = doc->find("memo");
  if (memo != nullptr) {
    if (!memo->is_bool()) {
      parsed.error = "'memo' must be a bool";
      return parsed;
    }
    req.memo = memo->as_bool() ? 1 : 0;
  }
  req.anytime = doc->bool_or("anytime", false);
  req.want_mapping = doc->bool_or("mapping", false);
  parsed.ok = true;
  return parsed;
}

}  // namespace monomap
