#include "io/dfg_io.hpp"

#include <charconv>
#include <sstream>
#include <vector>

namespace monomap {

namespace {

/// Strip comments and return significant lines as token vectors.
std::vector<std::vector<std::string>> tokenize(const std::string& text) {
  std::vector<std::vector<std::string>> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::vector<std::string> tokens;
    std::string tok;
    while (ls >> tok) tokens.push_back(tok);
    if (!tokens.empty()) lines.push_back(std::move(tokens));
  }
  return lines;
}

/// The whole token as an int; anything else (junk, trailing characters,
/// out of range) is a loader error, never a std::stoi exception.
int to_int(const std::string& s) {
  int v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  MONOMAP_ASSERT_MSG(ec == std::errc{} && ptr == end,
                     "bad integer '" << s << "'");
  return v;
}

}  // namespace

std::string dfg_to_text(const Dfg& dfg) {
  std::ostringstream os;
  os << "dfg " << dfg.name() << '\n';
  os << "nodes " << dfg.num_nodes() << '\n';
  const Graph& g = dfg.graph();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    os << "edge " << edge.src << ' ' << edge.dst << ' ' << edge.attr << '\n';
  }
  os << "end\n";
  return os.str();
}

Dfg dfg_from_text(const std::string& text) {
  const auto lines = tokenize(text);
  MONOMAP_ASSERT_MSG(!lines.empty() && lines[0][0] == "dfg",
                     "expected 'dfg <name>' header");
  MONOMAP_ASSERT_MSG(lines[0].size() == 2, "dfg header needs a name");
  const std::string name = lines[0][1];
  int num_nodes = -1;
  std::vector<Edge> edges;
  bool ended = false;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const auto& t = lines[i];
    MONOMAP_ASSERT_MSG(!ended, "content after 'end'");
    if (t[0] == "nodes") {
      MONOMAP_ASSERT_MSG(t.size() == 2, "nodes needs a count");
      num_nodes = to_int(t[1]);
      MONOMAP_ASSERT_MSG(num_nodes >= 0, "negative node count");
      MONOMAP_ASSERT_MSG(num_nodes <= kMaxDfgTextNodes,
                         "node count " << num_nodes << " exceeds "
                                       << kMaxDfgTextNodes);
    } else if (t[0] == "edge") {
      MONOMAP_ASSERT_MSG(t.size() == 4, "edge needs <src> <dst> <distance>");
      MONOMAP_ASSERT_MSG(num_nodes >= 0, "'nodes' must precede 'edge'");
      const int src = to_int(t[1]);
      const int dst = to_int(t[2]);
      const int dist = to_int(t[3]);
      MONOMAP_ASSERT_MSG(src >= 0 && src < num_nodes && dst >= 0 &&
                             dst < num_nodes,
                         "edge endpoint out of range");
      MONOMAP_ASSERT_MSG(dist >= 0, "negative loop-carried distance");
      edges.push_back(Edge{src, dst, dist});
    } else if (t[0] == "end") {
      ended = true;
    } else {
      MONOMAP_ASSERT_MSG(false, "unknown directive '" << t[0] << "'");
    }
  }
  MONOMAP_ASSERT_MSG(ended, "missing 'end'");
  MONOMAP_ASSERT_MSG(num_nodes >= 0, "missing 'nodes'");
  return Dfg::from_edges(name, num_nodes, edges);
}

std::string mapping_to_text(const Dfg& dfg, const Mapping& mapping) {
  std::ostringstream os;
  os << "mapping " << dfg.name() << '\n';
  os << "ii " << mapping.ii() << '\n';
  for (NodeId v = 0; v < mapping.num_nodes(); ++v) {
    os << "place " << v << ' ' << mapping.pe(v) << ' ' << mapping.time(v)
       << '\n';
  }
  os << "end\n";
  return os.str();
}

Mapping mapping_from_text(const std::string& text, int num_nodes) {
  const auto lines = tokenize(text);
  MONOMAP_ASSERT_MSG(!lines.empty() && lines[0][0] == "mapping",
                     "expected 'mapping <name>' header");
  int ii = -1;
  std::vector<int> time(static_cast<std::size_t>(num_nodes), -1);
  std::vector<PeId> pe(static_cast<std::size_t>(num_nodes), -1);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const auto& t = lines[i];
    if (t[0] == "ii") {
      MONOMAP_ASSERT_MSG(t.size() == 2, "ii needs a value");
      ii = to_int(t[1]);
    } else if (t[0] == "place") {
      MONOMAP_ASSERT_MSG(t.size() == 4, "place needs <node> <pe> <time>");
      const int v = to_int(t[1]);
      MONOMAP_ASSERT_MSG(v >= 0 && v < num_nodes, "node out of range");
      pe[static_cast<std::size_t>(v)] = to_int(t[2]);
      time[static_cast<std::size_t>(v)] = to_int(t[3]);
    } else if (t[0] == "end") {
      break;
    } else {
      MONOMAP_ASSERT_MSG(false, "unknown directive '" << t[0] << "'");
    }
  }
  MONOMAP_ASSERT_MSG(ii >= 1, "missing or invalid ii");
  for (int v = 0; v < num_nodes; ++v) {
    MONOMAP_ASSERT_MSG(time[static_cast<std::size_t>(v)] >= 0 &&
                           pe[static_cast<std::size_t>(v)] >= 0,
                       "node " << v << " not placed");
  }
  return Mapping(ii, std::move(time), std::move(pe));
}

}  // namespace monomap
