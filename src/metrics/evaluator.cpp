#include "metrics/evaluator.h"

#include "graph/shortest_paths.h"
#include "steiner/steiner.h"
#include "util/parallel.h"

namespace faircache::metrics {

namespace {

// Per-client cheapest copy of one chunk: the smallest (cost, source id)
// seen so far. (cost, id) is a strict total order over one chunk's
// sources, so folding rows in any order, or merging partial minima, gives
// the same winner.
struct BestSource {
  double cost = graph::kInfCost;
  graph::NodeId source = graph::kInvalidNode;
};

inline void fold(BestSource& best, double cost, graph::NodeId source) {
  if (cost < best.cost || (cost == best.cost && source < best.source)) {
    best = {cost, source};
  }
}

}  // namespace

PlacementEvaluation evaluate_placement(const graph::Graph& g,
                                       const CacheState& state,
                                       const EvaluatorOptions& options) {
  FAIRCACHE_CHECK(state.num_nodes() == g.num_nodes(),
                  "cache state / graph size mismatch");
  FAIRCACHE_CHECK(options.num_chunks >= 0, "negative chunk count");
  const auto n = static_cast<std::size_t>(g.num_nodes());
  const auto chunks = static_cast<std::size_t>(options.num_chunks);
  FAIRCACHE_CHECK(options.alive == nullptr || options.alive->size() == n,
                  "liveness mask size mismatch");
  if (options.access_demand != nullptr) {
    FAIRCACHE_CHECK(options.access_demand->size() >= chunks,
                    "demand matrix missing chunk row");
    for (std::size_t c = 0; c < chunks; ++c) {
      FAIRCACHE_CHECK((*options.access_demand)[c].size() == n,
                      "demand row size mismatch");
    }
  }
  const auto alive = [&options](std::size_t v) {
    return options.alive == nullptr || (*options.alive)[v] != 0;
  };
  const graph::NodeId producer = state.producer();

  // Each chunk's sources: its alive holders (dead ones cannot serve), then
  // the producer, which always has every chunk. They are also the chunk's
  // Steiner terminals.
  std::vector<std::vector<graph::NodeId>> sources(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    for (graph::NodeId i : state.holders(static_cast<ChunkId>(c))) {
      if (alive(static_cast<std::size_t>(i))) sources[c].push_back(i);
    }
    sources[c].push_back(producer);
  }

  // The distinct sources, and per source the chunks it serves: one
  // contention row per source, shared by all its chunks.
  std::vector<int> source_of(n, -1);
  std::vector<graph::NodeId> distinct;
  std::vector<std::vector<std::size_t>> served;
  for (std::size_t c = 0; c < chunks; ++c) {
    for (graph::NodeId i : sources[c]) {
      int& k = source_of[static_cast<std::size_t>(i)];
      if (k < 0) {
        k = static_cast<int>(distinct.size());
        distinct.push_back(i);
        served.emplace_back();
      }
      served[static_cast<std::size_t>(k)].push_back(c);
    }
  }

  // Access phase, one sweep over the sources: build the source's row c_i·
  // and fold it into every served chunk's per-client best. Each worker
  // folds into its own best table; the tables are merged afterwards.
  const std::vector<double> weight = contention_weights(g, state);
  const graph::CsrAdjacency adj = graph::build_csr(g);
  const int threads = util::resolve_parallel_threads(0, distinct.size());
  std::vector<ContentionRowBuilder> builders(
      static_cast<std::size_t>(threads),
      ContentionRowBuilder(g, adj, weight, options.path_policy));
  std::vector<std::vector<double>> rows(static_cast<std::size_t>(threads),
                                        std::vector<double>(n));
  std::vector<std::vector<BestSource>> best(
      static_cast<std::size_t>(threads), std::vector<BestSource>(chunks * n));
  util::parallel_for(
      distinct.size(),
      [&](std::size_t k, int worker) {
        const auto w = static_cast<std::size_t>(worker);
        double* row = rows[w].data();
        const graph::NodeId i = distinct[k];
        builders[w].build(i, row);
        for (const std::size_t c : served[k]) {
          BestSource* chunk_best = best[w].data() + c * n;
          for (std::size_t j = 0; j < n; ++j) fold(chunk_best[j], row[j], i);
        }
      },
      threads);
  std::vector<BestSource>& merged = best[0];
  for (std::size_t w = 1; w < best.size(); ++w) {
    for (std::size_t x = 0; x < merged.size(); ++x) {
      fold(merged[x], best[w][x].cost, best[w][x].source);
    }
  }

  // Dissemination phase: a Steiner tree from the producer to all holders,
  // every chunk's from one batch of short bounded shortest-path runs.
  const std::vector<steiner::SteinerTree> trees =
      steiner::try_steiner_mst_approx_sets(
          g, contention_edge_costs(g, weight), sources)
          .value();

  // Totals accumulate sequentially in client order so each sum keeps a
  // fixed floating-point order.
  PlacementEvaluation eval;
  eval.per_chunk.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    ChunkEvaluation ce;
    ce.chunk = static_cast<ChunkId>(c);
    ce.assignment.assign(n, graph::kInvalidNode);
    const BestSource* chunk_best = merged.data() + c * n;
    for (std::size_t j = 0; j < n; ++j) {
      if (!alive(j)) continue;  // casualties consume nothing
      if (static_cast<graph::NodeId>(j) == producer) {
        ce.assignment[j] = producer;  // holds everything locally
        continue;
      }
      FAIRCACHE_CHECK(chunk_best[j].source != graph::kInvalidNode,
                      "no reachable source for chunk");
      ce.assignment[j] = chunk_best[j].source;
      const double demand = options.access_demand != nullptr
                                ? (*options.access_demand)[c][j]
                                : 1.0;
      ce.access_cost += demand * chunk_best[j].cost;
    }
    ce.dissemination_cost = trees[c].cost;

    eval.access_cost += ce.access_cost;
    eval.dissemination_cost += ce.dissemination_cost;
    eval.per_chunk.push_back(std::move(ce));
  }
  return eval;
}

DegradationReport make_degradation_report(double coverage,
                                          const PlacementEvaluation& degraded,
                                          const PlacementEvaluation& baseline,
                                          util::Status protocol_outcome,
                                          long forced_freezes) {
  DegradationReport report;
  report.coverage = coverage;
  report.baseline_cost = baseline.total();
  report.degraded_cost = degraded.total();
  report.extra_cost = report.degraded_cost - report.baseline_cost;
  report.residual_cost_ratio =
      report.baseline_cost > 0.0
          ? report.degraded_cost / report.baseline_cost
          : 1.0;
  report.protocol_outcome = std::move(protocol_outcome);
  report.forced_freezes = forced_freezes;
  return report;
}

}  // namespace faircache::metrics
