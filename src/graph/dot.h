#pragma once

// Graphviz DOT export for topologies and placements — handy for inspecting
// what a caching algorithm actually did (`dot -Tsvg out.dot`).

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace faircache::graph {

struct DotOptions {
  // Optional geometric positions (pinned with `pos` attributes).
  const std::vector<double>* x = nullptr;
  const std::vector<double>* y = nullptr;
  // Node labels; empty = node id. Quotes and backslashes are escaped.
  std::vector<std::string> labels;
  // Highlighted nodes (e.g. caching nodes) get a filled style.
  std::vector<NodeId> highlight;
  // One node drawn as the producer (double circle).
  std::optional<NodeId> producer;
};

// Writes `graph faircache { ... }`; positions are scaled by 10 DOT units.
void write_dot(std::ostream& os, const Graph& g, const DotOptions& options);

std::string to_dot(const Graph& g, const DotOptions& options = {});

}  // namespace faircache::graph
