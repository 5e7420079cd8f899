#include "graph/graph.h"

#include <algorithm>
#include <queue>

namespace faircache::graph {

Graph::Graph(int num_nodes) {
  FAIRCACHE_CHECK(num_nodes >= 0, "negative node count");
  adjacency_.resize(static_cast<std::size_t>(num_nodes));
  incident_.resize(static_cast<std::size_t>(num_nodes));
}

EdgeId Graph::add_edge(NodeId u, NodeId v) {
  return try_add_edge(u, v).value();
}

util::Result<EdgeId> Graph::try_add_edge(NodeId u, NodeId v) {
  if (!contains(u) || !contains(v)) {
    return util::Status::invalid_input("edge endpoint out of range");
  }
  if (u == v) {
    return util::Status::invalid_input("self loops are not allowed");
  }
  if (has_edge(u, v)) {
    return util::Status::invalid_input("duplicate edge");
  }

  const EdgeId id = num_edges();
  edges_.push_back(Edge{std::min(u, v), std::max(u, v)});

  auto insert_sorted = [&](NodeId at, NodeId neighbor) {
    auto& adj = adjacency_[static_cast<std::size_t>(at)];
    auto& inc = incident_[static_cast<std::size_t>(at)];
    const auto pos = std::lower_bound(adj.begin(), adj.end(), neighbor);
    const auto offset = pos - adj.begin();
    adj.insert(pos, neighbor);
    inc.insert(inc.begin() + offset, id);
  };
  insert_sorted(u, v);
  insert_sorted(v, u);
  return id;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  return find_edge(u, v).has_value();
}

std::optional<EdgeId> Graph::find_edge(NodeId u, NodeId v) const {
  if (!contains(u) || !contains(v) || u == v) return std::nullopt;
  const auto& adj = adjacency_[static_cast<std::size_t>(u)];
  const auto pos = std::lower_bound(adj.begin(), adj.end(), v);
  if (pos == adj.end() || *pos != v) return std::nullopt;
  const auto offset = pos - adj.begin();
  return incident_[static_cast<std::size_t>(u)][static_cast<std::size_t>(offset)];
}

bool Graph::is_connected() const {
  if (num_nodes() == 0) return true;
  const auto labels = component_labels();
  return std::all_of(labels.begin(), labels.end(),
                     [](int label) { return label == 0; });
}

std::vector<int> Graph::component_labels() const {
  std::vector<int> labels(static_cast<std::size_t>(num_nodes()), -1);
  int next_label = 0;
  for (NodeId start = 0; start < num_nodes(); ++start) {
    if (labels[static_cast<std::size_t>(start)] != -1) continue;
    const int label = next_label++;
    std::queue<NodeId> frontier;
    frontier.push(start);
    labels[static_cast<std::size_t>(start)] = label;
    while (!frontier.empty()) {
      const NodeId v = frontier.front();
      frontier.pop();
      for (NodeId w : neighbors(v)) {
        if (labels[static_cast<std::size_t>(w)] == -1) {
          labels[static_cast<std::size_t>(w)] = label;
          frontier.push(w);
        }
      }
    }
  }
  return labels;
}

std::vector<NodeId> Graph::largest_component() const {
  const auto labels = component_labels();
  const int num_labels =
      labels.empty() ? 0 : *std::max_element(labels.begin(), labels.end()) + 1;
  std::vector<int> sizes(static_cast<std::size_t>(num_labels), 0);
  for (int label : labels) ++sizes[static_cast<std::size_t>(label)];
  int best = 0;
  for (int label = 1; label < num_labels; ++label) {
    if (sizes[static_cast<std::size_t>(label)] >
        sizes[static_cast<std::size_t>(best)]) {
      best = label;
    }
  }
  std::vector<NodeId> result;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (labels[static_cast<std::size_t>(v)] == best) result.push_back(v);
  }
  return result;
}

CsrAdjacency build_csr(const Graph& g) {
  CsrAdjacency csr;
  const auto n = static_cast<std::size_t>(g.num_nodes());
  csr.offset.resize(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    csr.offset[v + 1] =
        csr.offset[v] + static_cast<int>(g.neighbors(static_cast<NodeId>(v)).size());
  }
  csr.neighbor.resize(static_cast<std::size_t>(csr.offset[n]));
  csr.incident.resize(static_cast<std::size_t>(csr.offset[n]));
  for (std::size_t v = 0; v < n; ++v) {
    const auto nbrs = g.neighbors(static_cast<NodeId>(v));
    const auto incs = g.incident_edges(static_cast<NodeId>(v));
    std::copy(nbrs.begin(), nbrs.end(),
              csr.neighbor.begin() + csr.offset[v]);
    std::copy(incs.begin(), incs.end(),
              csr.incident.begin() + csr.offset[v]);
  }
  return csr;
}

Subgraph induced_subgraph(const Graph& g, std::span<const NodeId> keep) {
  Subgraph sub;
  sub.to_new.assign(static_cast<std::size_t>(g.num_nodes()), kInvalidNode);
  sub.to_original.assign(keep.begin(), keep.end());
  std::sort(sub.to_original.begin(), sub.to_original.end());
  for (std::size_t i = 0; i < sub.to_original.size(); ++i) {
    const NodeId original = sub.to_original[i];
    FAIRCACHE_CHECK(g.contains(original), "subgraph node out of range");
    FAIRCACHE_CHECK(sub.to_new[static_cast<std::size_t>(original)] ==
                        kInvalidNode,
                    "duplicate node in subgraph selection");
    sub.to_new[static_cast<std::size_t>(original)] = static_cast<NodeId>(i);
  }

  sub.graph = Graph(static_cast<int>(sub.to_original.size()));
  for (const Edge& e : g.edges()) {
    const NodeId nu = sub.to_new[static_cast<std::size_t>(e.u)];
    const NodeId nv = sub.to_new[static_cast<std::size_t>(e.v)];
    if (nu != kInvalidNode && nv != kInvalidNode) {
      sub.graph.add_edge(nu, nv);
    }
  }
  return sub;
}

}  // namespace faircache::graph
