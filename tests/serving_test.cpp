// Tests for the trace-driven serving engine (sim/serving.h) and the
// adaptive projected-gradient baseline (baselines/adaptive_gradient.h):
// exact request accounting, drift/re-optimization ticks, fixed-seed
// determinism with thread-invariant result hashes, config validation, and
// the baseline's gradient/projection/rounding math.

#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/adaptive_gradient.h"
#include "graph/generators.h"
#include "sim/serving.h"
#include "testutil.h"

namespace faircache {
namespace {

using graph::Graph;
using graph::NodeId;

using testutil::make_problem;

sim::ServingConfig short_config(long requests) {
  sim::ServingConfig config;
  config.requests = requests;
  config.samples = 4;
  return config;
}

// ------------------------------------------------------------- Accounting

TEST(ServingTest, EveryRequestAccountedExactlyOnce) {
  const Graph g = graph::make_grid(4, 4);
  const auto problem = make_problem(g, 0, 6, 2);
  sim::ServingEngine engine(problem, short_config(5000));
  const auto result = engine.run();
  ASSERT_TRUE(result.ok());
  const sim::ServingTotals& t = result.value().totals;
  EXPECT_EQ(t.requests, 5000);
  EXPECT_EQ(t.hits_local + t.hits_relay + t.producer_fetches, t.requests);
  EXPECT_GT(t.inserts, 0);
  EXPECT_LE(t.inserts, 6);
  // The series windows partition the trace and roll up into the totals.
  long series_requests = 0;
  double series_cost = 0.0;
  ASSERT_EQ(result.value().series.size(), 4u);
  for (const sim::ServingSample& s : result.value().series) {
    series_requests += s.window_local + s.window_relay + s.window_producer;
    series_cost += s.window_cost;
  }
  EXPECT_EQ(series_requests, t.requests);
  EXPECT_DOUBLE_EQ(series_cost, t.total_cost);
  EXPECT_EQ(result.value().series.back().request_end, 5000);
}

TEST(ServingTest, FinalPlacementRespectsCapacities) {
  const Graph g = graph::make_grid(4, 4);
  const auto problem = make_problem(g, 3, 8, 1);
  sim::ServingConfig config = short_config(4000);
  config.online.replacement = core::ReplacementPolicy::kEvictOldest;
  config.online.approx.confl.span_threshold = 2;
  sim::ServingEngine engine(problem, config);
  const auto result = engine.run();
  ASSERT_TRUE(result.ok());
  for (NodeId v = 0; v < 16; ++v) {
    if (v == 3) continue;
    EXPECT_LE(result.value().state.used(v), 1);
  }
  EXPECT_GT(result.value().totals.evictions, 0);
}

TEST(ServingTest, SamplesClampToRequests) {
  const Graph g = graph::make_grid(3, 3);
  const auto problem = make_problem(g, 0, 2, 2);
  sim::ServingConfig config = short_config(3);
  config.samples = 32;  // more windows than requests
  sim::ServingEngine engine(problem, config);
  const auto result = engine.run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().series.size(), 3u);
  EXPECT_EQ(result.value().totals.hits_local +
                result.value().totals.hits_relay +
                result.value().totals.producer_fetches,
            3);
}

// ------------------------------------------------------- Drift and reopt

TEST(ServingTest, DriftAndReoptTicksCount) {
  const Graph g = graph::make_grid(4, 4);
  const auto problem = make_problem(g, 0, 6, 2);
  sim::ServingConfig config = short_config(8000);
  config.drift_every = 2000;   // ticks at 2000/4000/6000
  config.reopt_every = 3000;   // ticks at 3000/6000
  sim::ServingEngine engine(problem, config);
  const auto result = engine.run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().totals.drift_events, 3);
  EXPECT_EQ(result.value().totals.reopt_ticks, 2);
  // A reopt adoption publishes the whole catalog, so at most the first
  // reopt boundary can still see first-request inserts.
  EXPECT_LE(result.value().totals.inserts, 6);
}

TEST(ServingTest, DriftChangesTheRequestStream) {
  const Graph g = graph::make_grid(4, 4);
  const auto problem = make_problem(g, 0, 6, 2);
  sim::ServingConfig still = short_config(6000);
  sim::ServingConfig drifting = still;
  drifting.drift_every = 1500;
  sim::ServingEngine a(problem, still);
  sim::ServingEngine b(problem, drifting);
  const auto ra = a.run();
  const auto rb = b.run();
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_NE(sim::serving_result_hash(ra.value()),
            sim::serving_result_hash(rb.value()));
}

// ----------------------------------------------------------- Determinism

TEST(ServingTest, FixedSeedReproducesHash) {
  const Graph g = graph::make_grid(4, 4);
  const auto problem = make_problem(g, 0, 5, 2);
  sim::ServingConfig config = short_config(4000);
  config.drift_every = 1000;
  config.reopt_every = 1500;
  sim::ServingEngine a(problem, config);
  sim::ServingEngine b(problem, config);
  const auto ra = a.run();
  const auto rb = b.run();
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(sim::serving_result_hash(ra.value()),
            sim::serving_result_hash(rb.value()));
  // A different seed must not collide on this small instance.
  sim::ServingConfig reseeded = config;
  reseeded.seed = config.seed + 1;
  sim::ServingEngine c(problem, reseeded);
  const auto rc = c.run();
  ASSERT_TRUE(rc.ok());
  EXPECT_NE(sim::serving_result_hash(ra.value()),
            sim::serving_result_hash(rc.value()));
}

TEST(ServingTest, HashIsThreadInvariant) {
  const Graph g = graph::make_grid(5, 5);
  const auto problem = make_problem(g, 0, 6, 2);
  sim::ServingConfig config = short_config(3000);
  config.drift_every = 1000;
  config.online.replacement = core::ReplacementPolicy::kEvictOldest;
  config.online.approx.confl.span_threshold = 2;
  testutil::expect_thread_invariant(
      [&] { return sim::ServingEngine(problem, config).run().value(); },
      sim::serving_result_hash);
}

// ------------------------------------------------------------ Validation

TEST(ServingTest, RejectsMalformedConfigs) {
  const Graph g = graph::make_grid(3, 3);
  const auto problem = make_problem(g, 0, 2, 2);

  sim::ServingConfig no_requests = short_config(0);
  EXPECT_EQ(sim::ServingEngine(problem, no_requests).run().code(),
            util::StatusCode::kInvalidInput);

  sim::ServingConfig bad_zipf = short_config(10);
  bad_zipf.zipf_exponent = -1.0;
  EXPECT_EQ(sim::ServingEngine(problem, bad_zipf).run().code(),
            util::StatusCode::kInvalidInput);

  sim::ServingConfig bad_activity = short_config(10);
  bad_activity.min_activity = 2.0;
  bad_activity.max_activity = 1.0;
  EXPECT_EQ(sim::ServingEngine(problem, bad_activity).run().code(),
            util::StatusCode::kInvalidInput);

  sim::ServingConfig bad_cadence = short_config(10);
  bad_cadence.drift_every = -1;
  EXPECT_EQ(sim::ServingEngine(problem, bad_cadence).run().code(),
            util::StatusCode::kInvalidInput);

  const auto no_chunks = make_problem(g, 0, 0, 2);
  EXPECT_EQ(sim::ServingEngine(no_chunks, short_config(10)).run().code(),
            util::StatusCode::kInvalidInput);

  const auto bad_producer = make_problem(g, 99, 2, 2);
  EXPECT_EQ(sim::ServingEngine(bad_producer, short_config(10)).run().code(),
            util::StatusCode::kInvalidInput);
}

TEST(ServingTest, InsertSolverFailureIsTypedStatusNotAThrow) {
  // The first insert cannot converge in one round of dual growth: run()
  // returns the solver's typed status.
  const Graph g = graph::make_grid(6, 6);
  const auto problem = make_problem(g, 0, 3, 2);
  sim::ServingConfig config = short_config(100);
  config.online.approx.confl.max_rounds = 1;
  sim::ServingEngine engine(problem, config);
  util::StatusCode code = util::StatusCode::kOk;
  EXPECT_NO_THROW(code = engine.run().code());
  EXPECT_EQ(code, util::StatusCode::kResourceExhausted);
}

// ------------------------------------------------- Adaptive baseline math

TEST(AdaptiveGradientTest, GradientPullsPopularChunkToRequester) {
  // All demand at the far end of a path: after one period the requester
  // end must carry the largest fractional mass for the requested chunk.
  const Graph g = graph::make_path(6);
  const auto problem = make_problem(g, 0, 3, 1);
  baselines::AdaptiveGradientCaching policy(problem);
  sim::Request request;
  request.node = 5;
  request.chunk = 1;
  for (int i = 0; i < 50; ++i) policy.observe(request);
  EXPECT_TRUE(policy.end_period());  // placement appears → changed
  const auto& y = policy.fractional();
  // Chunk 1 outweighs the never-requested chunks everywhere off-producer.
  for (NodeId v = 1; v < 6; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    EXPECT_GT(y[vi][1], y[vi][0]);
    EXPECT_GT(y[vi][1], y[vi][2]);
  }
  // The requester saves the whole path, deeper relays save less, so the
  // gradient — and the post-step mass — decays toward the producer.
  for (NodeId v = 2; v < 6; ++v) {
    EXPECT_GE(y[static_cast<std::size_t>(v)][1],
              y[static_cast<std::size_t>(v - 1)][1]);
  }
  // The rounded placement caches chunk 1 at the requester.
  EXPECT_TRUE(policy.state().holds(5, 1));
}

TEST(AdaptiveGradientTest, ProjectionKeepsRowsFeasible) {
  const Graph g = graph::make_grid(3, 3);
  const auto problem = make_problem(g, 4, 6, 2);
  baselines::AdaptiveGradientConfig config;
  config.step_size = 50.0;  // huge steps force the projection to bind
  baselines::AdaptiveGradientCaching policy(problem, config);
  util::Rng rng(3);
  for (int period = 0; period < 5; ++period) {
    for (int i = 0; i < 40; ++i) {
      sim::Request request;
      request.node = static_cast<NodeId>(rng.uniform_int(0, 8));
      request.chunk = static_cast<metrics::ChunkId>(rng.uniform_int(0, 5));
      policy.observe(request);
    }
    policy.end_period();
    const auto& y = policy.fractional();
    for (NodeId v = 0; v < 9; ++v) {
      if (v == 4) continue;
      const auto vi = static_cast<std::size_t>(v);
      double sum = 0.0;
      for (std::size_t c = 0; c < y.cols(); ++c) {
        EXPECT_GE(y[vi][c], 0.0);
        EXPECT_LE(y[vi][c], 1.0);
        sum += y[vi][c];
      }
      EXPECT_LE(sum, 2.0 + 1e-9);
      // The rounded integral state obeys the same budget.
      EXPECT_LE(policy.state().used(v), 2);
    }
  }
}

TEST(AdaptiveGradientTest, IgnoresOutOfRangeAndEmptyPeriods) {
  const Graph g = graph::make_path(4);
  const auto problem = make_problem(g, 0, 2, 1);
  baselines::AdaptiveGradientCaching policy(problem);
  sim::Request bad;
  bad.node = 99;
  bad.chunk = 0;
  EXPECT_FALSE(policy.observe(bad));
  bad.node = 1;
  bad.chunk = 99;
  EXPECT_FALSE(policy.observe(bad));
  // A period of only invalid requests (and an entirely empty one) leaves
  // the fractional state untouched and the placement empty.
  EXPECT_FALSE(policy.end_period());
  EXPECT_FALSE(policy.end_period());
  EXPECT_EQ(policy.state().total_stored(), 0);
  EXPECT_EQ(policy.periods(), 2);
}

TEST(AdaptiveGradientTest, ServesThroughEngineDeterministically) {
  const Graph g = graph::make_grid(4, 4);
  const auto problem = make_problem(g, 0, 6, 2);
  sim::ServingConfig config = short_config(6000);
  config.adapt_every = 500;
  config.drift_every = 2000;

  std::uint64_t hashes[2];
  for (int i = 0; i < 2; ++i) {
    sim::ServingEngine engine(problem, config);
    baselines::AdaptiveGradientCaching policy(problem);
    const auto result = engine.run(&policy);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().policy, "adaptive-gradient");
    const sim::ServingTotals& t = result.value().totals;
    EXPECT_EQ(t.hits_local + t.hits_relay + t.producer_fetches, t.requests);
    EXPECT_EQ(t.inserts, 0);  // the external policy owns placement
    // Adaptation must beat never-caching: some requests served locally.
    EXPECT_GT(t.hits_local, 0);
    hashes[i] = sim::serving_result_hash(result.value());
    for (NodeId v = 0; v < 16; ++v) {
      if (v == 0) continue;
      EXPECT_LE(result.value().state.used(v), 2);
    }
  }
  EXPECT_EQ(hashes[0], hashes[1]);
}

}  // namespace
}  // namespace faircache
