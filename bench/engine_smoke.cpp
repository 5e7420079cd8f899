// CI smoke harness for the solver engines (run by the Release bench-smoke
// job). Two layers of checks over a fixture set of grid and
// random-geometric instances:
//
// Steiner trees (Mehlhorn's Voronoi construction, kVoronoi):
//   1. deterministic across thread counts — the FNV-1a hash of the
//      (edges, cost-bits) stream must be identical at 1, 2 and 8 threads;
//   2. the batch agrees with the single-set call — at 1, 2 and 8 threads,
//      try_steiner_mst_approx_sets over the fixture's terminals and its
//      even- and odd-indexed halves must return each set's single-set
//      tree, edges and cost bits.
//
// End-to-end ApproxFairCaching runs over both contention row layouts:
//   3. each layout's placement/objective hash is identical at 1, 2 and 8
//      threads;
//   4. kSparse (unbounded radius) agrees with kIncremental — identical
//      placement hashes and per-chunk objectives within 1e-9 (they are in
//      fact bit-identical on these connected integer-weight instances).
//
// Plus one 100k-node kSparse smoke run asserting the sparse engine's
// memory budget: the run must finish without degrading to the greedy
// fallback and peak RSS must stay below 512 MB (it measures under 200 MB;
// the dense matrix alone would need ~80 GB, and any pairs-sized solver
// memory beside the cost store would breach the gate, so neither can land
// silently).
//
// Exits non-zero on any violation, printing the offending fixture.

#include <sys/resource.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/approx.h"
#include "graph/generators.h"
#include "steiner/steiner.h"
#include "util/hash.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace {

using namespace faircache;
using graph::NodeId;

std::uint64_t tree_hash(const steiner::SteinerTree& tree) {
  util::Fnv1a h(util::Fnv1a::kOffsetBasis);
  for (graph::EdgeId e : tree.edges) h.value(static_cast<std::uint64_t>(e));
  return h.value(tree.cost).digest();
}

struct Fixture {
  std::string name;
  graph::Graph graph;
  std::vector<double> weight;
  std::vector<NodeId> terminals;
};

std::vector<Fixture> make_fixtures() {
  std::vector<Fixture> fixtures;
  {
    Fixture f;
    f.name = "grid20_unit";
    f.graph = graph::make_grid(20, 20);
    f.weight.assign(static_cast<std::size_t>(f.graph.num_edges()), 1.0);
    for (NodeId v = 0; v < f.graph.num_nodes(); v += 37) {
      f.terminals.push_back(v);
    }
    fixtures.push_back(std::move(f));
  }
  {
    util::Rng rng(1701);
    Fixture f;
    f.name = "grid16_weighted";
    f.graph = graph::make_grid(16, 16);
    f.weight.resize(static_cast<std::size_t>(f.graph.num_edges()));
    for (auto& w : f.weight) w = rng.uniform(0.25, 5.0);
    for (NodeId v = 3; v < f.graph.num_nodes(); v += 23) {
      f.terminals.push_back(v);
    }
    fixtures.push_back(std::move(f));
  }
  for (const std::uint64_t seed : {11ULL, 29ULL, 83ULL}) {
    util::Rng rng(seed);
    graph::RandomGeometricConfig config;
    config.num_nodes = 150;
    config.radius = 0.18;
    Fixture f;
    f.name = "geo150_seed" + std::to_string(seed);
    auto net = graph::make_random_geometric(config, rng);
    f.graph = std::move(net.graph);
    f.weight.resize(static_cast<std::size_t>(f.graph.num_edges()));
    for (auto& w : f.weight) w = rng.uniform(0.5, 4.0);
    for (NodeId v = 0; v < f.graph.num_nodes(); v += 11) {
      f.terminals.push_back(v);
    }
    fixtures.push_back(std::move(f));
  }
  return fixtures;
}

// Placement + objective probe of one end-to-end run: hashes every chunk's
// cache-node ids and the bit pattern of its solver objective.
std::uint64_t run_hash(const core::FairCachingResult& result) {
  util::Fnv1a h(util::Fnv1a::kOffsetBasis);
  for (const core::ChunkPlacement& placement : result.placements) {
    for (NodeId v : placement.cache_nodes) {
      h.value(static_cast<std::uint64_t>(v));
    }
    h.value(placement.solver_objective);
  }
  return h.digest();
}

// End-to-end checks 3 and 4: thread-determinism of each row layout, and
// cross-layout agreement. Returns the number of failures.
int check_end_to_end(const Fixture& f) {
  int failures = 0;
  core::FairCachingProblem problem;
  problem.network = &f.graph;
  problem.producer = 0;
  problem.num_chunks = 3;
  problem.uniform_capacity = 5;

  const core::ContentionMode modes[2] = {core::ContentionMode::kIncremental,
                                         core::ContentionMode::kSparse};
  const char* mode_name[2] = {"kIncremental", "kSparse"};

  std::uint64_t mode_hash[2] = {0, 0};
  core::FairCachingResult mode_result[2];
  for (int m = 0; m < 2; ++m) {
    std::uint64_t hash1 = 0;
    for (const int threads : {1, 2, 8}) {
      util::set_parallel_threads(threads);
      core::ApproxConfig config;
      config.instance.contention_mode = modes[m];
      core::FairCachingResult result =
          core::ApproxFairCaching(config).run(problem);
      const std::uint64_t h = run_hash(result);
      if (threads == 1) {
        hash1 = h;
        mode_result[m] = std::move(result);
      } else if (h != hash1) {
        std::printf("FAIL %s appx %s: hash diverges at %d threads "
                    "(%016llx vs %016llx)\n",
                    f.name.c_str(), mode_name[m], threads,
                    static_cast<unsigned long long>(h),
                    static_cast<unsigned long long>(hash1));
        ++failures;
      }
    }
    util::set_parallel_threads(0);
    mode_hash[m] = hash1;
    std::printf("%-18s appx %-11s %-12s hash=%016llx\n", f.name.c_str(),
                "kVoronoi", mode_name[m],
                static_cast<unsigned long long>(hash1));
  }
  // Cross-layout agreement: same placements, per-chunk objectives within
  // 1e-9 (the layouts are bit-identical on integer weights and these
  // connected fixtures, so in practice the hashes — objective bits
  // included — match).
  if (mode_hash[0] != mode_hash[1]) {
    std::printf("FAIL %s appx: kSparse disagrees with kIncremental "
                "(%016llx vs %016llx)\n",
                f.name.c_str(),
                static_cast<unsigned long long>(mode_hash[1]),
                static_cast<unsigned long long>(mode_hash[0]));
    ++failures;
  }
  for (std::size_t c = 0; c < mode_result[0].placements.size() &&
                          c < mode_result[1].placements.size();
       ++c) {
    const double a = mode_result[0].placements[c].solver_objective;
    const double b = mode_result[1].placements[c].solver_objective;
    if (std::abs(a - b) > 1e-9) {
      std::printf("FAIL %s appx chunk %zu: objectives diverge "
                  "(%.12f vs %.12f)\n",
                  f.name.c_str(), c, a, b);
      ++failures;
    }
  }
  return failures;
}

// Integrity-guard smoke (docs/ROBUSTNESS.md, "Integrity guard"): on one
// grid fixture, the default-guarded run and an audit-every-build run must
// produce the exact placement hash of the unguarded pre-guard fast path,
// report zero corruption, and the audits must actually execute under the
// paranoid cadence. Prints the guard activity + overhead so the CI log
// doubles as a longitudinal overhead record. Returns failure count.
int check_guard_overhead() {
  int failures = 0;
  const graph::Graph g = graph::make_grid(20, 20);
  core::FairCachingProblem problem;
  problem.network = &g;
  problem.producer = 0;
  problem.num_chunks = 8;
  problem.uniform_capacity = 5;

  struct Variant {
    const char* name;
    core::GuardOptions guard;
  };
  Variant variants[3] = {{"unguarded", {}}, {"guard-default", {}},
                         {"guard-cadence1", {}}};
  variants[0].guard.enabled = false;
  variants[2].guard.cadence = 1;
  variants[2].guard.budget_share = 1.0;

  std::uint64_t reference = 0;
  for (int v = 0; v < 3; ++v) {
    core::ApproxConfig config;
    config.instance.guard = variants[v].guard;
    core::SolveReport report;
    auto result = core::ApproxFairCaching(config).solve(
        problem, util::RunBudget::unlimited(), &report);
    if (!result.ok()) {
      std::printf("FAIL guard %s: solve failed (%s)\n", variants[v].name,
                  result.status().message().c_str());
      ++failures;
      continue;
    }
    const std::uint64_t h = run_hash(result.value());
    const core::CorruptionReport& guard = report.guard;
    std::printf("%-18s appx %-14s hash=%016llx audits=%d rows=%ld "
                "audit=%.1fms solve=%.1fms\n",
                "grid20_guard", variants[v].name,
                static_cast<unsigned long long>(h), guard.audits,
                guard.rows_checked, guard.audit_seconds * 1e3,
                report.total_seconds * 1e3);
    if (v == 0) {
      reference = h;
    } else if (h != reference) {
      std::printf("FAIL guard %s: hash diverges from unguarded run "
                  "(%016llx vs %016llx)\n",
                  variants[v].name, static_cast<unsigned long long>(h),
                  static_cast<unsigned long long>(reference));
      ++failures;
    }
    if (!guard.clean()) {
      std::printf("FAIL guard %s: corruption reported on healthy state\n",
                  variants[v].name);
      ++failures;
    }
    if (v == 2 && guard.audits < problem.num_chunks - 1) {
      std::printf("FAIL guard %s: only %d audits ran under cadence 1\n",
                  variants[v].name, guard.audits);
      ++failures;
    }
  }
  return failures;
}

// Sparse-engine memory smoke: a 100k-node connected ER instance (mean
// degree ≈ 6) solved end to end under kSparse with a 2-hop radius. The
// dense n² matrix would need ~80 GB here; the check pins the sparse
// engine's budget at 512 MB peak RSS, a bit over twice what it measures,
// and requires every chunk to get a real ConFL solve (no silent greedy
// degradation). Returns failure count.
int check_sparse_scale() {
  int failures = 0;
  const int n = 100000;
  util::Rng rng(7001);
  graph::Graph g = graph::make_erdos_renyi(n, 6.0 / n, rng);
  // Stitch stray components onto component 0 so the problem validates.
  const std::vector<int> labels = g.component_labels();
  int components = 0;
  for (int label : labels) components = std::max(components, label + 1);
  std::vector<NodeId> rep(static_cast<std::size_t>(components),
                          graph::kInvalidNode);
  for (NodeId v = 0; v < n; ++v) {
    auto& r = rep[static_cast<std::size_t>(labels[v])];
    if (r == graph::kInvalidNode) r = v;
  }
  for (int c = 1; c < components; ++c) {
    g.add_edge(rep[0], rep[static_cast<std::size_t>(c)]);
  }

  core::FairCachingProblem problem;
  problem.network = &g;
  problem.producer = 0;
  problem.num_chunks = 2;
  problem.uniform_capacity = 5;

  core::ApproxConfig config;
  config.instance.contention_mode = core::ContentionMode::kSparse;
  config.instance.contention_radius = 2;
  core::SolveReport report;
  auto result = core::ApproxFairCaching(config).solve(
      problem, util::RunBudget::unlimited(), &report);
  if (!result.ok()) {
    std::printf("FAIL sparse100k: solve failed (%s)\n",
                result.status().message().c_str());
    return 1;
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const double rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  const std::uint64_t h = run_hash(result.value());
  std::printf("%-18s appx kSparse r=2   hash=%016llx rss=%.0fMB\n",
              "er100k_deg6", static_cast<unsigned long long>(h), rss_mb);
  if (report.chunks_solved() != report.chunks_total) {
    std::printf("FAIL sparse100k: %d of %d chunks degraded to the greedy "
                "fallback\n",
                static_cast<int>(report.degraded_chunks.size()),
                report.chunks_total);
    ++failures;
  }
  if (rss_mb >= 512.0) {
    std::printf("FAIL sparse100k: peak RSS %.0f MB breaches the 512 MB "
                "sparse-engine budget\n",
                rss_mb);
    ++failures;
  }
  return failures;
}

}  // namespace

int main() {
  int failures = 0;
  for (const Fixture& f : make_fixtures()) {
    // The batch's sets: every terminal, then the even- and odd-indexed.
    std::vector<std::vector<NodeId>> sets(3);
    for (std::size_t t = 0; t < f.terminals.size(); ++t) {
      sets[0].push_back(f.terminals[t]);
      sets[1 + t % 2].push_back(f.terminals[t]);
    }
    std::vector<std::uint64_t> set_hash;
    for (const std::vector<NodeId>& set : sets) {
      set_hash.push_back(tree_hash(
          steiner::try_steiner_mst_approx(f.graph, f.weight, set).value()));
    }
    steiner::SteinerTree tree;
    for (const int threads : {1, 2, 8}) {
      util::set_parallel_threads(threads);
      const steiner::SteinerTree single =
          steiner::try_steiner_mst_approx(f.graph, f.weight, f.terminals)
              .value();
      if (threads == 1) {
        tree = single;
      } else if (tree_hash(single) != tree_hash(tree)) {
        std::printf("FAIL %s kVoronoi: hash diverges at %d threads "
                    "(%016llx vs %016llx)\n",
                    f.name.c_str(), threads,
                    static_cast<unsigned long long>(tree_hash(single)),
                    static_cast<unsigned long long>(tree_hash(tree)));
        ++failures;
      }
      const std::vector<steiner::SteinerTree> batch =
          steiner::try_steiner_mst_approx_sets(f.graph, f.weight, sets)
              .value();
      for (std::size_t s = 0; s < sets.size(); ++s) {
        if (tree_hash(batch[s]) != set_hash[s]) {
          std::printf("FAIL %s: batch set %zu differs from the single-set "
                      "tree at %d threads (%016llx vs %016llx)\n",
                      f.name.c_str(), s, threads,
                      static_cast<unsigned long long>(tree_hash(batch[s])),
                      static_cast<unsigned long long>(set_hash[s]));
          ++failures;
        }
      }
    }
    util::set_parallel_threads(0);
    std::printf("%-18s %-11s cost=%.6f hash=%016llx edges=%zu\n",
                f.name.c_str(), "kVoronoi", tree.cost,
                static_cast<unsigned long long>(tree_hash(tree)),
                tree.edges.size());
    failures += check_end_to_end(f);
  }
  failures += check_guard_overhead();
  failures += check_sparse_scale();
  if (failures != 0) {
    std::printf("engine_smoke: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("engine_smoke: OK\n");
  return 0;
}
