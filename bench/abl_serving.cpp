// Trace-driven serving ablation (ROADMAP open item 3): replays a
// multi-million-request Zipf stream with demand drift against three
// placement drivers — the online ConFL engine without and with
// replacement + periodic anytime re-optimization, and the Ioannidis–Yeh
// adaptive projected-gradient baseline — reporting requests/sec
// throughput, hit/relay/producer split, mean fetch contention cost, the
// fairness/cost time series under drift, and the fixed-seed
// serving_result_hash (thread-invariant; see docs/SERVING.md).
//
// `--smoke` runs a short trace on a small grid at two thread counts and
// exits non-zero when either policy's hash differs across thread counts —
// the Release-CI determinism gate.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include "baselines/adaptive_gradient.h"
#include "bench_common.h"
#include "graph/generators.h"
#include "sim/serving.h"
#include "util/parallel.h"

namespace {

using namespace faircache;

sim::ServingConfig base_config(long requests) {
  sim::ServingConfig config;
  config.requests = requests;
  config.seed = 0x5eed;
  config.zipf_exponent = 0.8;
  config.drift_every = requests / 8;
  config.samples = 32;
  return config;
}

struct PolicyRun {
  const char* label;
  sim::ServingResult result;
};

void print_run(const PolicyRun& run) {
  const sim::ServingTotals& t = run.result.totals;
  const double n = static_cast<double>(t.requests);
  std::printf(
      "%-22s %9.0f req/s  local %5.2f%%  relay %5.2f%%  producer %5.2f%%  "
      "mean-cost %7.3f  inserts %4ld  evictions %5ld  reopts %d  "
      "hash %016" PRIx64 "\n",
      run.label, run.result.requests_per_second,
      100.0 * static_cast<double>(t.hits_local) / n,
      100.0 * static_cast<double>(t.hits_relay) / n,
      100.0 * static_cast<double>(t.producer_fetches) / n,
      t.total_cost / n, t.inserts, t.evictions, t.reopt_ticks,
      sim::serving_result_hash(run.result));
}

void print_series(const PolicyRun& run) {
  std::printf("\ntime series (%s): window cost / fairness under drift\n",
              run.label);
  std::printf("%10s %10s %10s %10s %12s %8s %8s\n", "requests", "local",
              "relay", "producer", "mean-cost", "jain", "gini");
  for (const sim::ServingSample& s : run.result.series) {
    const double w = static_cast<double>(s.window_local + s.window_relay +
                                         s.window_producer);
    std::printf("%10ld %10ld %10ld %10ld %12.3f %8.4f %8.4f\n",
                s.request_end, s.window_local, s.window_relay,
                s.window_producer, w > 0 ? s.window_cost / w : 0.0, s.jain,
                s.gini);
  }
}

int run_smoke() {
  const graph::Graph g = graph::make_grid(6, 6);
  const core::FairCachingProblem problem =
      bench::grid_problem(g, 0, 12, 2);
  sim::ServingConfig config = base_config(20000);
  config.samples = 8;
  config.online.replacement = core::ReplacementPolicy::kEvictOldest;
  config.online.approx.confl.span_threshold = 2;
  config.reopt_every = 5000;

  int failures = 0;
  std::uint64_t online_hash[2] = {0, 0};
  std::uint64_t adaptive_hash[2] = {0, 0};
  const int thread_counts[2] = {1, 3};
  for (int i = 0; i < 2; ++i) {
    util::set_parallel_threads(thread_counts[i]);
    sim::ServingConfig threaded = config;
    sim::ServingEngine engine(problem, threaded);
    auto online = engine.run();
    if (!online.ok()) {
      std::printf("FAIL: online run error: %s\n",
                  online.status().message().c_str());
      return 1;
    }
    online_hash[i] = sim::serving_result_hash(online.value());

    threaded.adapt_every = 512;
    sim::ServingEngine adaptive_engine(problem, threaded);
    baselines::AdaptiveGradientCaching adaptive(problem);
    auto adaptive_run = adaptive_engine.run(&adaptive);
    if (!adaptive_run.ok()) {
      std::printf("FAIL: adaptive run error: %s\n",
                  adaptive_run.status().message().c_str());
      return 1;
    }
    adaptive_hash[i] = sim::serving_result_hash(adaptive_run.value());
  }
  util::set_parallel_threads(0);
  if (online_hash[0] != online_hash[1]) {
    std::printf("FAIL: online serving hash differs across thread counts\n");
    ++failures;
  }
  if (adaptive_hash[0] != adaptive_hash[1]) {
    std::printf("FAIL: adaptive serving hash differs across thread counts\n");
    ++failures;
  }

  if (failures == 0) {
    std::printf("serving smoke OK: online %016" PRIx64 " adaptive %016" PRIx64
                " (thread-invariant)\n",
                online_hash[0], adaptive_hash[0]);
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
    return run_smoke();
  }
  long requests = 1000000;
  if (argc > 2 && std::strcmp(argv[1], "--requests") == 0) {
    requests = std::atol(argv[2]);
  }

  const graph::Graph g = graph::make_grid(30, 30);
  const int num_chunks = 32;
  const int capacity = 4;
  const core::FairCachingProblem problem =
      bench::grid_problem(g, 0, num_chunks, capacity);

  std::printf(
      "abl_serving: %ld Zipf requests on a 30x30 grid, %d chunks, "
      "capacity %d, drift every %ld requests (seed 0x5eed)\n\n",
      requests, num_chunks, capacity, requests / 8);

  std::vector<PolicyRun> runs;

  {
    sim::ServingConfig config = base_config(requests);
    sim::ServingEngine engine(problem, config);
    auto result = engine.run();
    if (!result.ok()) return 1;
    runs.push_back({"online-confl", std::move(result).value()});
  }
  {
    sim::ServingConfig config = base_config(requests);
    config.online.replacement = core::ReplacementPolicy::kEvictOldest;
    config.reopt_every = requests / 4;
    config.reopt_work_cap = 2000000;
    sim::ServingEngine engine(problem, config);
    auto result = engine.run();
    if (!result.ok()) return 1;
    runs.push_back({"online-confl+evict", std::move(result).value()});
  }
  {
    sim::ServingConfig config = base_config(requests);
    config.adapt_every = 4096;
    sim::ServingEngine engine(problem, config);
    baselines::AdaptiveGradientCaching adaptive(problem);
    auto result = engine.run(&adaptive);
    if (!result.ok()) return 1;
    runs.push_back({"adaptive-gradient", std::move(result).value()});
  }

  for (const PolicyRun& run : runs) print_run(run);
  print_series(runs[1]);
  return 0;
}
