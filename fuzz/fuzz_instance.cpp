// Fuzz target: the instance-construction boundary and the growth engine.
// Arbitrary bytes decode to a problem; validation must classify it with a
// typed Status, and a validated problem must always yield a well-formed
// ConFL instance. Over two chunks (the second after placing the first, so
// the chunk engine takes its delta path) the engine's costs must equal the
// stateless builder's on hop-shortest paths bit for bit, and the stateless
// instance on the decoded path policy must solve under the decoded options
// to the dense reference engine's solution, bit for bit (n ≤ 32 keeps the
// reference cheap); that solution places the chunk, and the Steiner tree
// joining its facilities to the root must be a valid tree and come out
// bit-identical from the single-set and the batch entry. Min-contention rows
// with the kSparse layout must be rejected as kInvalidInput, and the
// hop-shortest instance stands in for them. When the decoded layout is
// kSparse, the CSR instance at the decoded radius must solve to the
// reference's solution on its dense twin (+inf outside the radius) too.
// Any uncaught exception or abort is a finding.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "confl/confl.h"
#include "core/instance_builder.h"
#include "core/validate.h"
#include "fuzz/decoder.h"
#include "fuzz/targets.h"
#include "graph/shortest_paths.h"
#include "metrics/sparse_contention.h"
#include "steiner/steiner.h"
#include "util/matrix.h"

namespace faircache::fuzz {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// Bitwise equality of two cost buffers (std::vector or util::Matrix).
template <typename Buffer>
bool same_bits(const Buffer& a, const Buffer& b) {
  return a.size() == b.size() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Aborts unless the chunk engine's instance carries the stateless
// builder's costs bit for bit: dense rows whole, CSR rows entry by entry.
void expect_same_costs(const confl::ConflInstance& engine,
                       const confl::ConflInstance& stateless) {
  if (!same_bits(engine.facility_cost, stateless.facility_cost) ||
      !same_bits(engine.edge_cost, stateless.edge_cost)) {
    std::abort();
  }
  if (!engine.sparse()) {
    if (!same_bits(engine.assign_cost, stateless.assign_cost)) std::abort();
    return;
  }
  const metrics::SparseContention& s = engine.sparse_cost;
  for (std::size_t i = 0; i < static_cast<std::size_t>(s.num_nodes); ++i) {
    for (std::int64_t t = s.row_offset[i]; t < s.row_offset[i + 1]; ++t) {
      const auto u = static_cast<std::size_t>(t);
      if (!same_bits(s.cost[u], stateless.assign_cost(
                                    i, static_cast<std::size_t>(s.col[u])))) {
        std::abort();
      }
    }
  }
}

// Solves `instance` with the growth engine and `reference` (its dense
// form) with the reference engine; aborts unless the two agree bit for
// bit. Returns the solution.
confl::ConflSolution expect_reference_solution(
    const confl::ConflInstance& instance,
    const confl::ConflInstance& reference,
    const confl::ConflOptions& options) {
  const util::Result<confl::ConflSolution> solved =
      confl::try_solve_confl(instance, options);
  if (!solved.ok()) std::abort();
  const confl::ConflSolution& got = solved.value();
  const confl::ConflSolution want =
      confl::solve_confl_reference(reference, options);
  if (got.open_facilities != want.open_facilities ||
      got.assignment != want.assignment || got.rounds != want.rounds ||
      !same_bits(got.facility_cost, want.facility_cost) ||
      !same_bits(got.assignment_cost, want.assignment_cost) ||
      !same_bits(got.tree_cost, want.tree_cost)) {
    std::abort();
  }
  return got;
}

// Aborts unless the Steiner tree connecting the solution's open
// facilities and the root over the instance's edge costs is the same, bit
// for bit and with the same status, from the single-set call and from the
// batch, and unless it is a tree: it spans the terminals, has no cycle,
// every leaf is a terminal, and its cost is the sum of its edges.
void expect_consistent_tree(const confl::ConflInstance& instance,
                            const confl::ConflSolution& solution) {
  const graph::Graph& g = *instance.network;
  std::vector<graph::NodeId> terminals = solution.open_facilities;
  terminals.push_back(instance.root);
  const util::Result<steiner::SteinerTree> got =
      steiner::try_steiner_mst_approx(g, instance.edge_cost, terminals);
  const util::Result<std::vector<steiner::SteinerTree>> batch =
      steiner::try_steiner_mst_approx_sets(g, instance.edge_cost,
                                           {terminals, {instance.root}});
  if (got.code() != batch.code()) std::abort();
  if (!got.ok()) return;
  const steiner::SteinerTree& tree = got.value();
  if (tree.edges != batch.value()[0].edges ||
      !same_bits(tree.cost, batch.value()[0].cost) ||
      !batch.value()[1].edges.empty()) {
    std::abort();
  }

  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<int> degree(n, 0);
  std::vector<graph::NodeId> root(n);
  for (std::size_t v = 0; v < n; ++v) root[v] = static_cast<graph::NodeId>(v);
  const auto find = [&](graph::NodeId v) {
    while (root[static_cast<std::size_t>(v)] != v) {
      v = root[static_cast<std::size_t>(v)];
    }
    return v;
  };
  double cost = 0.0;
  for (const graph::EdgeId e : tree.edges) {
    const graph::Edge& edge = g.edge(e);
    const graph::NodeId a = find(edge.u);
    const graph::NodeId b = find(edge.v);
    if (a == b) std::abort();  // a cycle
    root[static_cast<std::size_t>(a)] = b;
    ++degree[static_cast<std::size_t>(edge.u)];
    ++degree[static_cast<std::size_t>(edge.v)];
    cost += instance.edge_cost[static_cast<std::size_t>(e)];
  }
  if (!same_bits(cost, tree.cost)) std::abort();
  std::vector<char> is_terminal(n, 0);
  for (const graph::NodeId t : terminals) {
    is_terminal[static_cast<std::size_t>(t)] = 1;
  }
  const std::size_t distinct =
      static_cast<std::size_t>(std::count(is_terminal.begin(), is_terminal.end(), 1));
  for (std::size_t v = 0; v < n; ++v) {
    const auto node = static_cast<graph::NodeId>(v);
    if (degree[v] == 1 && !is_terminal[v]) std::abort();  // a Steiner leaf
    if (is_terminal[v] && distinct > 1 &&
        (degree[v] == 0 || find(node) != find(instance.root))) {
      std::abort();  // a terminal the tree does not reach
    }
  }
}

// The dense twin of a sparse instance: the stored pairs at their costs,
// every other pair +inf.
confl::ConflInstance dense_twin(const confl::ConflInstance& sparse) {
  confl::ConflInstance dense = sparse;
  const metrics::SparseContention& s = sparse.sparse_cost;
  const auto n = static_cast<std::size_t>(s.num_nodes);
  dense.sparse_cost = metrics::SparseContention();
  dense.assign_cost = util::Matrix<double>(n, n, graph::kInfCost);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::int64_t t = s.row_offset[i]; t < s.row_offset[i + 1]; ++t) {
      const auto u = static_cast<std::size_t>(t);
      dense.assign_cost(i, static_cast<std::size_t>(s.col[u])) = s.cost[u];
    }
  }
  return dense;
}

}  // namespace

int run_instance_target(const std::uint8_t* data, std::size_t size) {
  const SerialScope serial;
  DecodedProblem d;
  decode_problem(data, size, d);

  const util::Status status = core::validate_problem(d.problem);
  if (!status.ok()) {
    // Rejections must carry one of the two input-classification codes.
    if (status.code() != util::StatusCode::kInvalidInput &&
        status.code() != util::StatusCode::kInfeasible) {
      std::abort();
    }
    return 0;
  }

  metrics::CacheState state = d.problem.make_initial_state();
  core::ChunkInstanceEngine engine(d.problem, d.config.instance);
  const bool sparse =
      d.config.instance.contention_mode == core::ContentionMode::kSparse;
  const bool min_contention =
      d.stateless_policy == metrics::PathPolicy::kMinContention;

  for (metrics::ChunkId chunk = 0; chunk < 2; ++chunk) {
    const util::Result<confl::ConflInstance> stateless =
        core::try_build_chunk_instance(d.problem, state, d.config.instance,
                                       chunk);
    util::Result<confl::ConflInstance> built = engine.build(state, chunk);
    // A problem that passed validation must build, and the built instance
    // must itself pass the solver's instance validator.
    if (!stateless.ok() || !built.ok() || built.value().sparse() != sparse) {
      std::abort();
    }
    if (!confl::validate_confl_instance(stateless.value()).ok()) std::abort();
    expect_same_costs(built.value(), stateless.value());

    // The instance on the decoded path policy. Min-contention rows come
    // from the stateless builder only, and never with kSparse (CSR rows
    // pin hop-shortest trees); there the hop-shortest instance stands in.
    const util::Result<confl::ConflInstance> min_rows =
        core::try_build_chunk_instance(d.problem, state, d.config.instance,
                                       chunk,
                                       metrics::PathPolicy::kMinContention);
    if (sparse ? min_rows.code() != util::StatusCode::kInvalidInput
               : !min_rows.ok() ||
                     !confl::validate_confl_instance(min_rows.value()).ok()) {
      std::abort();
    }
    const confl::ConflInstance& decoded =
        min_contention && !sparse ? min_rows.value() : stateless.value();

    // Differential check of the growth engine against the reference (the
    // stateless builder always yields the dense matrix the reference
    // needs), and of the CSR rows against the reference on their dense
    // twin.
    const confl::ConflSolution solution =
        expect_reference_solution(decoded, decoded, d.config.confl);
    expect_consistent_tree(decoded, solution);
    if (sparse) {
      expect_reference_solution(built.value(), dense_twin(built.value()),
                                d.config.confl);
    }

    for (graph::NodeId v : solution.open_facilities) {
      if (state.can_cache(v, chunk)) state.add(v, chunk);
    }
    engine.reclaim(std::move(built).value());
  }
  return 0;
}

}  // namespace faircache::fuzz

#ifdef FAIRCACHE_FUZZ_STANDALONE
extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  return faircache::fuzz::run_instance_target(data, size);
}
#endif
