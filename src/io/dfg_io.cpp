#include "io/dfg_io.hpp"

#include <array>
#include <charconv>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/algorithms.hpp"
#include "support/assert.hpp"

namespace monomap {

namespace {

/// One significant line of the text format: its first tokens, viewing into
/// the text, and how many tokens it had in all.
struct Line {
  /// A directive and its three arguments; longer lines are errors whose
  /// messages only need the count.
  static constexpr std::size_t kKept = 4;
  std::array<std::string_view, kKept> tok;
  std::size_t size = 0;

  std::string_view operator[](std::size_t i) const { return tok[i]; }
};

/// Whitespace as `operator>>` splits it in the C locale.
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// Reads the significant lines of a text in one pass, without copying it:
/// '#' starts a comment that runs to the end of the line, and lines with no
/// tokens are skipped.
class LineScanner {
 public:
  explicit LineScanner(std::string_view text) : text_(text) {}

  /// The next significant line into *line; false at the end of the text.
  bool next(Line* line) {
    while (pos_ < text_.size()) {
      std::size_t end = text_.find('\n', pos_);
      if (end == std::string_view::npos) end = text_.size();
      std::string_view body = text_.substr(pos_, end - pos_);
      pos_ = end + 1;
      body = body.substr(0, body.find('#'));
      line->size = 0;
      for (std::size_t i = 0;;) {
        while (i < body.size() && is_space(body[i])) ++i;
        if (i == body.size()) break;
        std::size_t j = i;
        while (j < body.size() && !is_space(body[j])) ++j;
        if (line->size < Line::kKept) {
          line->tok[line->size] = body.substr(i, j - i);
        }
        ++line->size;
        i = j;
      }
      if (line->size > 0) return true;
    }
    return false;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

/// The whole token as an int; anything else (junk, trailing characters,
/// out of range) is an InputError, never a std::stoi exception.
int to_int(std::string_view s) {
  int v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  MONOMAP_CHECK_INPUT(ec == std::errc{} && ptr == end,
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
  LineScanner lines(text);
  Line t;
  MONOMAP_CHECK_INPUT(lines.next(&t) && t[0] == "dfg",
                      "expected 'dfg <name>' header");
  MONOMAP_CHECK_INPUT(t.size == 2, "dfg header needs a name");
  std::string name(t[1]);
  int num_nodes = -1;
  std::vector<Edge> edges;
  bool ended = false;
  while (lines.next(&t)) {
    MONOMAP_CHECK_INPUT(!ended, "content after 'end'");
    if (t[0] == "nodes") {
      MONOMAP_CHECK_INPUT(t.size == 2, "nodes needs a count");
      num_nodes = to_int(t[1]);
      MONOMAP_CHECK_INPUT(num_nodes >= 0, "negative node count");
      MONOMAP_CHECK_INPUT(num_nodes > 0, "a DFG needs at least one node");
      MONOMAP_CHECK_INPUT(num_nodes <= kMaxDfgTextNodes,
                          "node count " << num_nodes << " exceeds "
                                        << kMaxDfgTextNodes);
    } else if (t[0] == "edge") {
      MONOMAP_CHECK_INPUT(t.size == 4, "edge needs <src> <dst> <distance>");
      MONOMAP_CHECK_INPUT(num_nodes >= 0, "'nodes' must precede 'edge'");
      const int src = to_int(t[1]);
      const int dst = to_int(t[2]);
      const int dist = to_int(t[3]);
      MONOMAP_CHECK_INPUT(src >= 0 && src < num_nodes && dst >= 0 &&
                              dst < num_nodes,
                          "edge endpoint out of range");
      MONOMAP_CHECK_INPUT(dist >= 0, "negative loop-carried distance");
      MONOMAP_CHECK_INPUT(dist <= kMaxDfgTextDistance,
                          "loop-carried distance " << dist << " exceeds "
                                                   << kMaxDfgTextDistance);
      MONOMAP_CHECK_INPUT(static_cast<int>(edges.size()) < kMaxDfgTextEdges,
                          "more than " << kMaxDfgTextEdges << " edges");
      edges.push_back(Edge{src, dst, dist});
    } else if (t[0] == "end") {
      ended = true;
    } else {
      MONOMAP_CHECK_INPUT(false, "unknown directive '" << t[0] << "'");
    }
  }
  MONOMAP_CHECK_INPUT(ended, "missing 'end'");
  MONOMAP_CHECK_INPUT(num_nodes >= 0, "missing 'nodes'");
  Dfg dfg = Dfg::from_edges(std::move(name), num_nodes, edges);
  // A cycle of distance-0 edges asks a value to be ready before it is
  // computed: no II schedules it.
  MONOMAP_CHECK_INPUT(
      topological_sort(dfg.graph(), edges_with_attr(0)).has_value(),
      "the distance-0 edges form a cycle, which no II can schedule");
  return dfg;
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
  LineScanner lines(text);
  Line t;
  MONOMAP_CHECK_INPUT(lines.next(&t) && t[0] == "mapping",
                      "expected 'mapping <name>' header");
  int ii = -1;
  std::vector<int> time(static_cast<std::size_t>(num_nodes), -1);
  std::vector<PeId> pe(static_cast<std::size_t>(num_nodes), -1);
  while (lines.next(&t)) {
    if (t[0] == "ii") {
      MONOMAP_CHECK_INPUT(t.size == 2, "ii needs a value");
      ii = to_int(t[1]);
      // The validator sizes per-slot tables by II; no mapping the mapper
      // makes has an II above the protocol's max_ii cap.
      MONOMAP_CHECK_INPUT(ii <= kMaxDfgTextNodes,
                          "ii " << ii << " exceeds " << kMaxDfgTextNodes);
    } else if (t[0] == "place") {
      MONOMAP_CHECK_INPUT(t.size == 4, "place needs <node> <pe> <time>");
      const int v = to_int(t[1]);
      MONOMAP_CHECK_INPUT(v >= 0 && v < num_nodes, "node out of range");
      pe[static_cast<std::size_t>(v)] = to_int(t[2]);
      time[static_cast<std::size_t>(v)] = to_int(t[3]);
    } else if (t[0] == "end") {
      break;
    } else {
      MONOMAP_CHECK_INPUT(false, "unknown directive '" << t[0] << "'");
    }
  }
  MONOMAP_CHECK_INPUT(ii >= 1, "missing or invalid ii");
  for (int v = 0; v < num_nodes; ++v) {
    MONOMAP_CHECK_INPUT(time[static_cast<std::size_t>(v)] >= 0 &&
                            pe[static_cast<std::size_t>(v)] >= 0,
                        "node " << v << " not placed");
  }
  return Mapping(ii, std::move(time), std::move(pe));
}

}  // namespace monomap
