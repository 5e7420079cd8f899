// Ablation / extension — online chunk stream with cache replacement
// (paper §VI future work). A stream of chunks arrives on a 6×6 grid with
// small caches; old chunks retire on a sliding window. Without replacement
// the caches clog and late chunks go unplaced; oldest-first eviction keeps
// serving fresh data at low access cost.

#include <iostream>

#include "bench_common.h"
#include "core/online.h"

using namespace faircache;

namespace {

void run(core::ReplacementPolicy policy, const char* label,
         util::Table& table) {
  const graph::Graph g = graph::make_grid(6, 6);
  core::FairCachingProblem problem =
      bench::grid_problem(g, /*producer=*/9, /*chunks=*/0, /*capacity=*/2);

  core::OnlineConfig config;
  config.replacement = policy;
  core::OnlineFairCaching online(problem, config);

  constexpr int kStream = 16;
  constexpr int kWindow = 4;  // chunks stay fresh for 4 arrivals
  double live_access = 0.0;
  int placed_copies = 0;
  int unplaced_chunks = 0;
  for (int t = 0; t < kStream; ++t) {
    if (t >= kWindow) online.retire_chunk(t - kWindow);
    const auto step = online.try_insert_chunk(t).value();
    placed_copies += static_cast<int>(step.cache_nodes.size());
    unplaced_chunks += step.cache_nodes.empty() ? 1 : 0;
    live_access += online.access_cost(t);
  }
  table.add_row() << label << placed_copies << unplaced_chunks
                  << online.total_evictions() << live_access / kStream;
}

}  // namespace

int main() {
  std::cout << "Ablation — online stream with replacement (6x6 grid, "
               "capacity = 2, 16-chunk stream, 4-chunk freshness "
               "window)\n\n";
  util::Table table({"policy", "placed_copies", "unplaced_chunks",
                     "evictions", "avg_access_cost_per_chunk"});
  table.set_precision(1);
  run(core::ReplacementPolicy::kNone, "no-replacement", table);
  run(core::ReplacementPolicy::kEvictOldest, "evict-oldest", table);
  table.print(std::cout);
  return 0;
}
