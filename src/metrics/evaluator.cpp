#include "metrics/evaluator.h"

#include "graph/shortest_paths.h"
#include "steiner/steiner.h"
#include "util/parallel.h"

namespace faircache::metrics {

PlacementEvaluation evaluate_placement(const graph::Graph& g,
                                       const CacheState& state,
                                       const EvaluatorOptions& options) {
  FAIRCACHE_CHECK(state.num_nodes() == g.num_nodes(),
                  "cache state / graph size mismatch");
  FAIRCACHE_CHECK(options.num_chunks >= 0, "negative chunk count");

  const ContentionMatrix contention(g, state, options.path_policy);
  const graph::NodeId producer = state.producer();

  PlacementEvaluation eval;
  eval.per_chunk.reserve(static_cast<std::size_t>(options.num_chunks));

  // Per-client cheapest-source results, filled in parallel and then
  // accumulated sequentially in client order so the access-cost sum keeps
  // a fixed floating-point order.
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<double> best_cost(n);
  std::vector<graph::NodeId> best_source(n);

  for (ChunkId chunk = 0; chunk < options.num_chunks; ++chunk) {
    ChunkEvaluation ce;
    ce.chunk = chunk;
    ce.assignment.assign(static_cast<std::size_t>(g.num_nodes()),
                         graph::kInvalidNode);

    std::vector<graph::NodeId> sources;
    for (graph::NodeId i : state.holders(chunk)) {
      // Dead holders (fault-injection runs) cannot serve.
      if (options.alive != nullptr &&
          (*options.alive)[static_cast<std::size_t>(i)] == 0) {
        continue;
      }
      sources.push_back(i);
    }
    sources.push_back(producer);  // producer always has every chunk

    // Access phase: every node fetches the chunk from its cheapest source.
    // The per-client scans are independent; run them in parallel.
    util::parallel_for(
        n,
        [&](std::size_t ji) {
          const auto j = static_cast<graph::NodeId>(ji);
          best_source[ji] = graph::kInvalidNode;
          if (options.alive != nullptr && (*options.alive)[ji] == 0) {
            return;  // casualties consume nothing
          }
          if (j == producer) return;  // holds everything locally
          double best = graph::kInfCost;
          graph::NodeId best_i = graph::kInvalidNode;
          for (graph::NodeId i : sources) {
            const double c = contention.cost(i, j);
            if (c < best || (c == best && i < best_i)) {
              best = c;
              best_i = i;
            }
          }
          best_cost[ji] = best;
          best_source[ji] = best_i;
        });
    for (graph::NodeId j = 0; j < g.num_nodes(); ++j) {
      if (options.alive != nullptr &&
          (*options.alive)[static_cast<std::size_t>(j)] == 0) {
        continue;
      }
      if (j == producer) {
        ce.assignment[static_cast<std::size_t>(j)] = producer;
        continue;
      }
      FAIRCACHE_CHECK(best_source[static_cast<std::size_t>(j)] !=
                          graph::kInvalidNode,
                      "no reachable source for chunk");
      ce.assignment[static_cast<std::size_t>(j)] =
          best_source[static_cast<std::size_t>(j)];
      double demand = 1.0;
      if (options.access_demand != nullptr) {
        FAIRCACHE_CHECK(static_cast<std::size_t>(chunk) <
                            options.access_demand->size(),
                        "demand matrix missing chunk row");
        demand = (*options.access_demand)[static_cast<std::size_t>(chunk)]
                                         [static_cast<std::size_t>(j)];
      }
      ce.access_cost += demand * best_cost[static_cast<std::size_t>(j)];
    }

    // Dissemination phase: Steiner tree from the producer to all holders.
    const steiner::SteinerTree tree =
        steiner::try_steiner_mst_approx(g, contention.edge_costs(), sources)
            .value();
    ce.dissemination_cost = tree.cost;

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
