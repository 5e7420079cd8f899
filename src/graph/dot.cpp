#include "graph/dot.h"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace faircache::graph {

namespace {

constexpr const char* kGraphName = "faircache";
// Scale applied to positions (DOT units).
constexpr double kPositionScale = 10.0;

// `label` as the body of a DOT double-quoted string.
void write_escaped(std::ostream& os, const std::string& label) {
  for (const char c : label) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
}

}  // namespace

void write_dot(std::ostream& os, const Graph& g, const DotOptions& options) {
  const bool have_positions =
      options.x != nullptr && options.y != nullptr &&
      static_cast<int>(options.x->size()) == g.num_nodes() &&
      static_cast<int>(options.y->size()) == g.num_nodes();

  os << "graph " << kGraphName << " {\n";
  os << "  node [shape=circle fontsize=10];\n";
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    os << "  n" << v << " [";
    if (static_cast<std::size_t>(v) < options.labels.size() &&
        !options.labels[static_cast<std::size_t>(v)].empty()) {
      os << "label=\"";
      write_escaped(os, options.labels[static_cast<std::size_t>(v)]);
      os << "\" ";
    } else {
      os << "label=\"" << v << "\" ";
    }
    if (options.producer && *options.producer == v) {
      os << "shape=doublecircle ";
    }
    if (std::find(options.highlight.begin(), options.highlight.end(), v) !=
        options.highlight.end()) {
      os << "style=filled fillcolor=lightblue ";
    }
    if (have_positions) {
      os << "pos=\""
         << (*options.x)[static_cast<std::size_t>(v)] * kPositionScale
         << ','
         << (*options.y)[static_cast<std::size_t>(v)] * kPositionScale
         << "!\" ";
    }
    os << "];\n";
  }
  for (const Edge& e : g.edges()) {
    os << "  n" << e.u << " -- n" << e.v << ";\n";
  }
  os << "}\n";
}

std::string to_dot(const Graph& g, const DotOptions& options) {
  std::ostringstream os;
  write_dot(os, g, options);
  return os.str();
}

}  // namespace faircache::graph
