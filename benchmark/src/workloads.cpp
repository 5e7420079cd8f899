#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "core/approx.h"
#include "core/online.h"
#include "core/repair.h"
#include "core/validate.h"
#include "graph/generators.h"
#include "metrics/evaluator.h"
#include "metrics/fairness_stats.h"
#include "sim/churn.h"
#include "sim/serving.h"
#include "sim/workload.h"
#include "solve_trace.h"

namespace fcbench {

namespace {

using namespace faircache;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// The measuring window: another operation starts only while it can still
// finish inside the window, judged by the previous one's duration, and
// at least `min_ops` operations always run.
class Window {
 public:
  Window(double seconds, int min_ops)
      : start_(Clock::now()), limit_ms_(seconds * 1e3), min_ops_(min_ops) {}

  bool more(int done, double last_op_ms) const {
    return done < min_ops_ || ms_since(start_) + last_op_ms <= limit_ms_;
  }

 private:
  Clock::time_point start_;
  double limit_ms_;
  int min_ops_;
};

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

// Fixed arrival rates of the open-loop replay, in operations per second.
// The solver and churn rates keep one thread about half busy at the
// parent commit; serving replays 40,000 requests per second, where the
// tail is the backlog behind inserts and re-opt solves.
constexpr double kGridRate = 3.0;
constexpr double kSparseRate = 0.125;
constexpr double kServeRate = 40000.0;
constexpr double kChurnRate = 0.2;

// Closed-loop measurements of one run. The operation latencies come in
// sequences — every timed solve or plan replay of the run, or one serving
// loop — and each statistic is the median of its per-sequence values.
struct Measured {
  std::vector<double> setup_s;
  std::vector<double> throughput;  // operations per second, per batch
  std::vector<double> p50_ms, p90_ms, openloop_p99_ms;
  long ops = 0;

  // `rate` is the workload's open-loop arrival rate, per second.
  void add_sequence(const std::vector<double>& service_ms, double rate) {
    p50_ms.push_back(percentile(service_ms, 500));
    p90_ms.push_back(percentile(service_ms, 900));
    openloop_p99_ms.push_back(
        percentile(open_loop_latencies(service_ms, rate / 1e3), 990));
    ops += static_cast<long>(service_ms.size());
  }
};

// The end-to-end result metrics, plus the tail figures. Under the cache
// contention of a shared host the tails drift from run to run by more
// than a usable regression bound, so they are recorded for compare.py but
// are not result metrics.
void add_end_to_end(RunOutput& out, const Measured& m) {
  const auto n = [](const std::vector<double>& v) {
    return static_cast<long>(v.size());
  };
  out.end_to_end = {
      {"setup_s", median(m.setup_s), "s", n(m.setup_s)},
      {"op_p50_ms", median(m.p50_ms), "ms", m.ops},
      {"ops_per_s", median(m.throughput), "1/s", n(m.throughput)},
      {"peak_rss_mb", peak_rss_mb(), "MB", 1},
  };
  out.detail.push_back({"op_p90_ms", median(m.p90_ms), "ms", m.ops});
  out.detail.push_back({"openloop_p99_ms", median(m.openloop_p99_ms), "ms",
                        n(m.openloop_p99_ms)});
}

// Per-layer result metrics. A workload fills the entries its layers
// produce; every other entry reads 0 (the layer does not run there).
class LayerMetrics {
 public:
  void set(const std::string& name, double value, long samples = 1) {
    values_[name] = {value, samples};
  }
  std::vector<Metric> finish() const {
    std::vector<Metric> out;
    for (const auto& [name, unit] : per_layer_names()) {
      const auto it = values_.find(name);
      out.push_back({name, it == values_.end() ? 0.0 : it->second.first, unit,
                     it == values_.end() ? 0 : it->second.second});
    }
    return out;
  }

 private:
  std::map<std::string, std::pair<double, long>> values_;
};

// Self time per layer over the traced phase, for the share metrics.
struct LayerShares {
  double instance = 0, guard = 0, confl = 0, steiner = 0, approx = 0,
         online = 0, repair = 0, evaluate = 0, churn = 0;
  double wall = 0;  // traced operations' wall time

  void add_solve(const SolveLayers& s) {
    instance += s.build_ms - s.audit_ms;
    guard += s.audit_ms;
    confl += s.confl_ms - s.steiner_ms;
    steiner += s.steiner_ms;
    approx += s.loop_ms();
  }

  void fill(LayerMetrics& lm, double overhead_pct) const {
    const std::pair<const char*, double> parts[] = {
        {"core.instance", instance}, {"core.guard", guard},
        {"confl", confl},           {"steiner", steiner},
        {"core.approx", approx},    {"core.online", online},
        {"core.repair", repair},    {"metrics.evaluate", evaluate},
        {"sim.churn", churn}};
    double covered = 0;
    for (const auto& [layer, ms] : parts) {
      lm.set(std::string(layer) + ".share_pct", 100.0 * ms / wall);
      covered += ms;
    }
    lm.set("trace.coverage_pct", 100.0 * covered / wall);
    lm.set("trace.overhead_pct", overhead_pct);
  }
};

// Per-solve medians of the traced solver layers.
void set_solver_layers(LayerMetrics& lm, const std::vector<SolveLayers>& s) {
  auto med = [&](auto field) {
    std::vector<double> v;
    for (const SolveLayers& x : s) v.push_back(field(x));
    return median(v);
  };
  const long n = static_cast<long>(s.size());
  lm.set("core.instance.build_ms",
         med([](const SolveLayers& x) { return x.build_ms; }), n);
  lm.set("core.instance.tree_ms",
         med([](const SolveLayers& x) { return x.tree_ms; }), n);
  lm.set("core.instance.delta_ms",
         med([](const SolveLayers& x) { return x.delta_ms; }), n);
  lm.set("confl.solve_ms",
         med([](const SolveLayers& x) { return x.confl_ms; }), n);
  lm.set("confl.growth_finish_ms",
         med([](const SolveLayers& x) { return x.confl_ms - x.steiner_ms; }),
         n);
  lm.set("steiner.replay_ms",
         med([](const SolveLayers& x) { return x.steiner_ms; }), n);
  lm.set("core.approx.loop_ms",
         med([](const SolveLayers& x) { return x.loop_ms(); }), n);
  // Counts are fixed by the inputs; every traced solve of one instance
  // gives the same ones.
  const SolveLayers& first = s.front();
  lm.set("confl.rounds", static_cast<double>(first.rounds), n);
  lm.set("confl.open_facilities", static_cast<double>(first.open_facilities),
         n);
  lm.set("steiner.tree_edges", static_cast<double>(first.tree_edges), n);
  lm.set("core.guard.audits", static_cast<double>(first.audits), n);
}

double overhead_pct(const std::vector<double>& traced_ms,
                    const std::vector<double>& untraced_ms) {
  return 100.0 * (median(traced_ms) / median(untraced_ms) - 1.0);
}

// Stored counts of the alive nodes other than the producer (the
// population sim::run_churn's fairness figures are taken over).
std::vector<int> alive_counts(const metrics::CacheState& state,
                              const std::vector<char>& alive) {
  std::vector<int> counts;
  for (graph::NodeId v = 0; v < state.num_nodes(); ++v) {
    if (v != state.producer() && alive[static_cast<std::size_t>(v)]) {
      counts.push_back(state.used(v));
    }
  }
  return counts;
}

double objective_of(const core::FairCachingResult& result) {
  double total = 0.0;
  for (const core::ChunkPlacement& p : result.placements) {
    total += p.solver_objective;
  }
  return total;
}

// Connected ER G(n, 6/n): stray components are stitched to component 0
// (the generator of bench/abl_sparse).
graph::Graph make_connected_er(int n, util::Rng& rng) {
  graph::Graph g = graph::make_erdos_renyi(n, 6.0 / n, rng);
  const std::vector<int> labels = g.component_labels();
  const int components = *std::max_element(labels.begin(), labels.end()) + 1;
  std::vector<graph::NodeId> rep(static_cast<std::size_t>(components),
                                 graph::kInvalidNode);
  for (graph::NodeId v = 0; v < n; ++v) {
    graph::NodeId& r = rep[static_cast<std::size_t>(labels[v])];
    if (r == graph::kInvalidNode) r = v;
  }
  for (int c = 1; c < components; ++c) {
    g.add_edge(rep[0], rep[static_cast<std::size_t>(c)]);
  }
  return g;
}

core::FairCachingProblem make_problem(const graph::Graph& g,
                                      graph::NodeId producer, int chunks,
                                      int capacity) {
  core::FairCachingProblem problem;
  problem.network = &g;
  problem.producer = producer;
  problem.num_chunks = chunks;
  problem.uniform_capacity = capacity;
  return problem;
}

// ---------------------------------------------------------------------
// grid-solve and sparse-100k: one ApproxFairCaching::solve per operation.

struct SolveInstance {
  graph::Graph graph;
  core::FairCachingProblem problem;
};

// Builds the network; the problem is then set up over it and validated.
using GraphFactory = std::function<graph::Graph()>;

RunOutput run_solver(const RunOptions& opt, const GraphFactory& make_graph,
                     graph::NodeId producer, const core::ApproxConfig& config,
                     bool warm_up, bool evaluate, double rate) {
  RunOutput out;
  Measured m;
  std::unique_ptr<SolveInstance> input;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point t = Clock::now();
    input.reset();
    input = std::make_unique<SolveInstance>();
    input->graph = make_graph();
    input->problem = make_problem(input->graph, producer, /*chunks=*/5,
                                  /*capacity=*/5);
    if (util::Status s = core::validate_problem(input->problem); !s.ok()) {
      out.errors.push_back("invalid problem: " + s.to_string());
      return out;
    }
    m.setup_s.push_back(ms_since(t) / 1e3);
  }
  const core::FairCachingProblem& problem = input->problem;
  core::ApproxFairCaching algorithm(config);

  std::optional<core::FairCachingResult> reference;
  // One timed solve. A failed or degraded solve counts as failed; a
  // placement that differs from the first solve's fails the run's checks.
  auto solve_once = [&](double& ms) {
    core::SolveReport report;
    const Clock::time_point t = Clock::now();
    util::Result<core::FairCachingResult> r =
        algorithm.solve(problem, util::RunBudget::unlimited(), &report);
    ms = ms_since(t);
    ++out.attempted;
    if (!r.ok() || report.degraded()) {
      ++out.failed;
      return;
    }
    if (!reference) {
      reference = std::move(r).value();
    } else if (!same_result(*reference, r.value())) {
      out.errors.push_back("repeated solve gave a different placement");
    }
  };

  double last = 0.0;
  if (warm_up) solve_once(last);
  Window window(opt.seconds, opt.trace ? 2 : 1);
  std::vector<double> traced_ms;
  std::vector<SolveLayers> traced;
  std::vector<double> untraced_ms;
  for (int done = 0; window.more(done, last); ++done) {
    if (opt.trace && done % 2 == 1) {
      SolveLayers layers;
      util::Result<core::FairCachingResult> r = traced_solve(
          problem, config, util::RunBudget::unlimited(), layers);
      ++out.attempted;
      if (!r.ok()) {
        out.errors.push_back("traced solve failed: " + r.status().to_string());
        return out;
      }
      if (reference && !same_result(*reference, r.value())) {
        out.errors.push_back("traced chunk loop differs from solve()");
      }
      last = layers.wall_ms + layers.steiner_ms;
      traced_ms.push_back(last);
      traced.push_back(layers);
    } else {
      solve_once(last);
      untraced_ms.push_back(last);
    }
  }
  if (!reference) {
    out.errors.push_back("no solve succeeded");
    return out;
  }

  m.add_sequence(untraced_ms, rate);
  double total_ms = 0.0;
  for (double ms : untraced_ms) total_ms += ms;
  m.throughput.push_back(1e3 * static_cast<double>(untraced_ms.size()) /
                         total_ms);
  add_end_to_end(out, m);

  out.exact.push_back({"objective", objective_of(*reference), "cost", 1});
  out.exact.push_back({"gini",
                       metrics::gini_coefficient(reference->state.stored_counts()),
                       "1", 1});
  if (evaluate) {
    const Clock::time_point t = Clock::now();
    const double cost = reference->evaluate(problem).total();
    out.detail.push_back({"metrics.evaluate_ms", ms_since(t), "ms", 1});
    out.exact.push_back({"contention_cost", cost, "cost", 1});
  }
  out.fingerprint = state_hash(reference->state);

  if (opt.trace) {
    LayerMetrics lm;
    set_solver_layers(lm, traced);
    LayerShares shares;
    for (const SolveLayers& s : traced) {
      shares.add_solve(s);
      shares.wall += s.wall_ms;
    }
    shares.fill(lm, overhead_pct(traced_ms, untraced_ms));
    out.per_layer = lm.finish();
  }
  return out;
}

RunOutput run_grid_solve(const RunOptions& opt) {
  const int side = opt.toy ? 10 : 40;
  const int n = side * side;
  return run_solver(
      opt, [&]() { return graph::make_grid(side, side); },
      static_cast<graph::NodeId>(opt.seed % n), core::ApproxConfig{},
      /*warm_up=*/true, /*evaluate=*/true, kGridRate);
}

RunOutput run_sparse_100k(const RunOptions& opt) {
  const int n = opt.toy ? 2000 : 100000;
  core::ApproxConfig config;
  config.instance.contention_mode = core::ContentionMode::kSparse;
  config.instance.contention_radius = 2;
  // No warm-up: a one-shot job of this size pays its first-touch faults.
  // The dense evaluator cannot hold a 100k-node instance.
  return run_solver(
      opt,
      [&]() {
        util::Rng rng(opt.seed);
        return make_connected_er(n, rng);
      },
      0, config, /*warm_up=*/false, /*evaluate=*/opt.toy, kSparseRate);
}

// ---------------------------------------------------------------------
// serve-drift: one request of the built-in online policy per operation.

struct ServeSetup {
  graph::Graph graph;
  core::FairCachingProblem problem;
  sim::ServingConfig config;
  std::vector<sim::Request> trace;
  std::vector<double> drift_ms;
  double draw_ns_mean = 0.0;
};

// The request stream of sim::ServingEngine::run, drawn ahead of time with
// the same public pieces in the same order (sim/serving.cpp's
// DriftingDemand): per-node activities, then one draw per request with a
// rank reshuffle at every drift point. Re-opt and inserts draw nothing,
// so the streams agree request for request.
void generate_trace(ServeSetup& s) {
  const sim::ServingConfig& c = s.config;
  util::Rng rng(c.seed);
  const int n = s.graph.num_nodes();
  const int chunks = s.problem.num_chunks;
  std::vector<double> activity(static_cast<std::size_t>(n));
  for (graph::NodeId v = 0; v < n; ++v) {
    const double a = rng.uniform(c.min_activity, c.max_activity);
    activity[static_cast<std::size_t>(v)] = v == s.problem.producer ? 0 : a;
  }
  const sim::ZipfDistribution zipf(chunks, c.zipf_exponent);
  std::vector<int> rank(static_cast<std::size_t>(chunks));
  for (int k = 0; k < chunks; ++k) rank[static_cast<std::size_t>(k)] = k;
  std::optional<sim::TraceSampler> sampler;
  auto rebuild = [&]() {
    sim::DemandMatrix demand(static_cast<std::size_t>(chunks),
                             std::vector<double>(activity.size(), 0.0));
    for (int k = 0; k < chunks; ++k) {
      const double pop = zipf.pmf(rank[static_cast<std::size_t>(k)]) *
                         static_cast<double>(chunks);
      for (std::size_t v = 0; v < activity.size(); ++v) {
        demand[static_cast<std::size_t>(k)][v] = activity[v] * pop;
      }
    }
    sampler.emplace(demand);
  };
  rebuild();
  s.trace.clear();
  s.trace.reserve(static_cast<std::size_t>(c.requests));
  s.drift_ms.clear();
  double draw_ms = 0.0;
  for (long r = 0; r < c.requests; ++r) {
    if (c.drift_every > 0 && r > 0 && r % c.drift_every == 0) {
      const Clock::time_point t = Clock::now();
      rng.shuffle(rank);
      rebuild();
      s.drift_ms.push_back(ms_since(t));
    }
    const Clock::time_point t = Clock::now();
    s.trace.push_back(sampler->draw(rng));
    draw_ms += ms_since(t);
  }
  s.draw_ns_mean = 1e6 * draw_ms / static_cast<double>(c.requests);
}

// Per-request layer timings of one traced client loop.
struct ServeLayers {
  std::vector<SolveLayers> reopt_solves;
  std::vector<double> reopt_ms, adopt_ms, insert_ms, fetch_us,
      first_fetch_us;
  double holders_scanned = 0.0;
  long fetches = 0;  // non-local fetches (the engine-backed path)
  long degraded = 0;
};

struct LoopRun {
  sim::ServingResult result;
  std::vector<double> service_ms;
  double wall_ms = 0.0;
  long failed = 0;
  long solves = 0;
  std::vector<std::string> errors;
};

// The client loop: sim::ServingEngine::run with its built-in online
// policy, rebuilt from public calls with one clock read per request. Per
// request, in order: the re-opt if due (solve + adopt_placement), the
// insert on the chunk's first request, and the fetch. Assembles the same
// ServingResult, so its serving_result_hash must equal the engine's. With
// `layers` set, each call is timed separately (the traced run).
LoopRun client_loop(const ServeSetup& s, ServeLayers* layers) {
  const core::FairCachingProblem& problem = s.problem;
  const sim::ServingConfig& config = s.config;
  LoopRun run;
  sim::ServingResult& result = run.result;
  result.policy = "online-confl";
  core::OnlineFairCaching online(problem, config.online);
  const auto chunks = static_cast<std::size_t>(problem.num_chunks);
  std::vector<char> published(chunks, 0);
  const int samples =
      static_cast<int>(std::min<long>(config.samples, config.requests));
  result.series.reserve(static_cast<std::size_t>(samples));
  sim::ServingSample window;
  int next_sample = 0;
  long next_boundary = config.requests * 1 / samples;

  // Traced only: per-chunk holder counts (refreshed after each write) and
  // whether the next engine-backed fetch pays the lazy resync.
  std::vector<int> holders(chunks, 0);
  bool synced = false;
  auto after_write = [&]() {
    for (std::size_t c = 0; c < chunks; ++c) {
      holders[c] = static_cast<int>(
          online.state().holders(static_cast<metrics::ChunkId>(c)).size());
    }
    synced = false;
  };

  run.service_ms.resize(static_cast<std::size_t>(config.requests));
  const Clock::time_point begin = Clock::now();
  Clock::time_point prev = begin;
  for (long r = 0; r < config.requests; ++r) {
    const sim::Request& request = s.trace[static_cast<std::size_t>(r)];
    if (config.drift_every > 0 && r > 0 && r % config.drift_every == 0) {
      ++result.totals.drift_events;
    }
    if (config.reopt_every > 0 && r > 0 && r % config.reopt_every == 0) {
      ++run.solves;
      const Clock::time_point t = Clock::now();
      core::SolveReport report;
      SolveLayers traced;
      const util::RunBudget budget =
          util::RunBudget::work_units(config.reopt_work_cap);
      // The traced loop has no greedy fallback, so a budget cut fails a
      // traced run; the re-opt problem never exhausts this budget.
      util::Result<core::FairCachingResult> solved =
          layers != nullptr
              ? traced_solve(problem, config.online.approx, budget, traced)
              : core::ApproxFairCaching(config.online.approx)
                    .solve(problem, budget, &report);
      if (!solved.ok()) {
        ++run.failed;
        run.errors.push_back("re-opt failed: " + solved.status().to_string());
        return run;
      }
      if (report.degraded()) ++run.failed;
      if (layers != nullptr) layers->reopt_solves.push_back(traced);
      const Clock::time_point adopt = Clock::now();
      if (util::Status st = online.adopt_placement(solved.value().state);
          !st.ok()) {
        run.errors.push_back("adopt_placement failed: " + st.to_string());
        return run;
      }
      std::fill(published.begin(), published.end(), 1);
      ++result.totals.reopt_ticks;
      result.totals.degraded_chunks +=
          static_cast<int>(report.degraded_chunks.size());
      if (layers != nullptr) {
        const Clock::time_point done = Clock::now();
        layers->adopt_ms.push_back(ms_between(adopt, done));
        layers->reopt_ms.push_back(ms_between(t, done));
        layers->degraded += static_cast<long>(report.degraded_chunks.size());
        after_write();
      }
    }
    if (published[static_cast<std::size_t>(request.chunk)] == 0) {
      const Clock::time_point t = Clock::now();
      util::Result<core::OnlineStepResult> step =
          online.try_insert_chunk(request.chunk);
      if (!step.ok()) {
        ++run.failed;
        run.errors.push_back("insert failed: " + step.status().to_string());
        return run;
      }
      published[static_cast<std::size_t>(request.chunk)] = 1;
      ++result.totals.inserts;
      if (layers != nullptr) {
        layers->insert_ms.push_back(ms_since(t));
        after_write();
      }
    }
    core::FetchDecision decision;
    if (layers != nullptr) {
      const Clock::time_point t = Clock::now();
      decision = online.fetch(request.node, request.chunk);
      const double us = ms_since(t) * 1e3;
      if (!decision.local) {
        ++layers->fetches;
        layers->holders_scanned +=
            holders[static_cast<std::size_t>(request.chunk)];
        (synced ? layers->fetch_us : layers->first_fetch_us).push_back(us);
        synced = true;
      } else {
        layers->fetch_us.push_back(us);
      }
    } else {
      decision = online.fetch(request.node, request.chunk);
    }
    if (!std::isfinite(decision.cost)) ++run.failed;

    if (decision.local) {
      ++window.window_local;
    } else if (!decision.from_producer) {
      ++window.window_relay;
    } else {
      ++window.window_producer;
    }
    window.window_cost += decision.cost;
    if (r + 1 == next_boundary) {
      window.request_end = r + 1;
      const std::vector<int> counts = online.state().stored_counts();
      window.jain = metrics::jains_index(counts);
      window.gini = metrics::gini_coefficient(counts);
      window.total_stored = online.state().total_stored();
      result.totals.hits_local += window.window_local;
      result.totals.hits_relay += window.window_relay;
      result.totals.producer_fetches += window.window_producer;
      result.totals.total_cost += window.window_cost;
      result.series.push_back(window);
      window = sim::ServingSample{};
      ++next_sample;
      next_boundary =
          config.requests * static_cast<long>(next_sample + 1) / samples;
    }
    const Clock::time_point now = Clock::now();
    run.service_ms[static_cast<std::size_t>(r)] = ms_between(prev, now);
    prev = now;
  }
  run.wall_ms = ms_between(begin, prev);
  result.totals.requests = config.requests;
  result.totals.evictions = online.total_evictions();
  result.state = online.state();
  result.contention_mode_used = online.contention_mode_used();
  if (util::Status st = online.verify_consistency(); !st.ok()) {
    run.errors.push_back("verify_consistency failed: " + st.to_string());
  }
  return run;
}

RunOutput run_serve_drift(const RunOptions& opt) {
  RunOutput out;
  Measured m;
  std::unique_ptr<ServeSetup> s;
  const int side = opt.toy ? 10 : 30;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point t = Clock::now();
    s.reset();
    s = std::make_unique<ServeSetup>();
    s->graph = graph::make_grid(side, side);
    s->problem = make_problem(s->graph, 0, opt.toy ? 12 : 32,
                              opt.toy ? 2 : 4);
    sim::ServingConfig& c = s->config;
    c.seed = opt.seed;
    c.requests = opt.toy ? 20000 : 250000;
    c.zipf_exponent = 0.8;
    c.drift_every = c.requests / 8;
    c.reopt_every = c.requests / 4;
    c.reopt_work_cap = 2000000;
    c.samples = 32;
    c.online.replacement = core::ReplacementPolicy::kEvictOldest;
    generate_trace(*s);
    m.setup_s.push_back(ms_since(t) / 1e3);
  }
  const ServeSetup& setup = *s;
  const long requests = setup.config.requests;

  std::optional<std::uint64_t> hash;
  auto check_hash = [&](const sim::ServingResult& r, const char* what) {
    const std::uint64_t h = sim::serving_result_hash(r);
    if (!hash) {
      hash = h;
    } else if (*hash != h) {
      out.errors.push_back(std::string(what) +
                           ": serving hash differs from the first run");
    }
  };

  std::vector<double> engine_ms, untraced_loop_ms, traced_loop_ms;
  std::vector<ServeLayers> traced;
  std::optional<sim::ServingResult> first;
  Window window(opt.seconds, opt.trace ? 3 : 2);
  double last = 0.0;
  for (int done = 0; window.more(done, last); ++done) {
    if (done % 2 == 1) {
      sim::ServingEngine engine(setup.problem, setup.config);
      const Clock::time_point t = Clock::now();
      util::Result<sim::ServingResult> r = engine.run();
      last = ms_since(t);
      ++out.attempted;
      if (!r.ok()) {
        out.errors.push_back("ServingEngine::run failed: " +
                             r.status().to_string());
        return out;
      }
      engine_ms.push_back(last);
      check_hash(r.value(), "ServingEngine::run");
      continue;
    }
    const bool traced_turn = opt.trace && done % 4 == 2;
    ServeLayers layers;
    LoopRun run = client_loop(setup, traced_turn ? &layers : nullptr);
    out.attempted += requests + run.solves;
    out.failed += run.failed;
    out.errors.insert(out.errors.end(), run.errors.begin(), run.errors.end());
    if (!run.errors.empty()) return out;
    last = run.wall_ms;
    check_hash(run.result, "client loop");
    if (traced_turn) {
      traced_loop_ms.push_back(run.wall_ms);
      traced.push_back(std::move(layers));
      continue;
    }
    untraced_loop_ms.push_back(run.wall_ms);
    m.add_sequence(run.service_ms, kServeRate);
    if (!first) first = std::move(run.result);
  }
  if (engine_ms.empty() || !first) {
    out.errors.push_back("window too short for a client loop and an engine run");
    return out;
  }
  for (double ms : engine_ms) {
    m.throughput.push_back(1e3 * static_cast<double>(requests) / ms);
  }
  add_end_to_end(out, m);

  const sim::ServingResult& r = *first;
  out.exact.push_back({"fetch_cost_mean",
                       r.totals.total_cost / static_cast<double>(requests),
                       "cost", requests});
  out.exact.push_back(
      {"gini", metrics::gini_coefficient(r.state.stored_counts()), "1", 1});
  {
    const Clock::time_point t = Clock::now();
    metrics::EvaluatorOptions eval;
    eval.num_chunks = setup.problem.num_chunks;
    const double cost =
        metrics::evaluate_placement(setup.graph, r.state, eval).total();
    out.detail.push_back({"metrics.evaluate_ms", ms_since(t), "ms", 1});
    out.exact.push_back({"contention_cost", cost, "cost", 1});
  }
  out.fingerprint = *hash;
  out.detail.push_back({"sim.workload.draw_ns_mean", setup.draw_ns_mean, "ns",
                        requests});
  out.detail.push_back({"sim.workload.drift_ms", median(setup.drift_ms), "ms",
                        static_cast<long>(setup.drift_ms.size())});

  if (opt.trace) {
    LayerMetrics lm;
    LayerShares shares;
    std::vector<SolveLayers> solves;
    ServeLayers all;
    for (const ServeLayers& l : traced) {
      for (const SolveLayers& sl : l.reopt_solves) {
        shares.add_solve(sl);
        solves.push_back(sl);
      }
      auto append = [](std::vector<double>& to, const std::vector<double>& v) {
        to.insert(to.end(), v.begin(), v.end());
      };
      append(all.reopt_ms, l.reopt_ms);
      append(all.adopt_ms, l.adopt_ms);
      append(all.insert_ms, l.insert_ms);
      append(all.fetch_us, l.fetch_us);
      append(all.first_fetch_us, l.first_fetch_us);
      all.fetches += l.fetches;
      all.holders_scanned += l.holders_scanned;
      all.degraded += l.degraded;
      double online_ms = 0.0;
      for (double x : l.adopt_ms) online_ms += x;
      for (double x : l.insert_ms) online_ms += x;
      for (double x : l.fetch_us) online_ms += x / 1e3;
      for (double x : l.first_fetch_us) online_ms += x / 1e3;
      shares.online += online_ms;
    }
    for (double ms : traced_loop_ms) shares.wall += ms;
    if (!solves.empty()) set_solver_layers(lm, solves);
    shares.fill(lm, overhead_pct(traced_loop_ms, untraced_loop_ms));
    const double loops = static_cast<double>(traced.size());
    lm.set("core.approx.degraded_chunks",
           static_cast<double>(all.degraded) / loops);
    lm.set("core.online.fetches", static_cast<double>(all.fetches) / loops);
    lm.set("core.online.holders_scanned_mean",
           all.holders_scanned / static_cast<double>(all.fetches));
    lm.set("core.online.inserts", static_cast<double>(r.totals.inserts));
    lm.set("core.online.evictions", static_cast<double>(r.totals.evictions));
    lm.set("sim.workload.drift_events",
           static_cast<double>(r.totals.drift_events));
    out.per_layer = lm.finish();

    auto detail = [&](const char* name, const std::vector<double>& v,
                      int per_mille, const char* unit) {
      if (!v.empty()) {
        out.detail.push_back({name, percentile(v, per_mille), unit,
                              static_cast<long>(v.size())});
      }
    };
    detail("core.online.fetch_us_p50", all.fetch_us, 500, "us");
    detail("core.online.fetch_us_p99", all.fetch_us, 990, "us");
    detail("core.online.first_fetch_after_write_us_p50", all.first_fetch_us,
           500, "us");
    detail("core.online.insert_ms_p50", all.insert_ms, 500, "ms");
    detail("core.online.insert_ms_max", all.insert_ms, 1000, "ms");
    detail("core.online.adopt_ms_p50", all.adopt_ms, 500, "ms");
    detail("core.approx.reopt_ms_p50", all.reopt_ms, 500, "ms");
  }
  return out;
}

// ---------------------------------------------------------------------
// churn-repair: one replay of the departure plan — every tick's repair
// pass and scoring — per operation.

struct ChurnSetup {
  graph::Graph graph;
  core::FairCachingProblem problem;
  metrics::CacheState initial;
  sim::ChurnPlan plan;
};

struct TickTimes {
  double advance_ms = 0, snapshot_ms = 0, repair_ms = 0, induce_ms = 0,
         evaluate_ms = 0;
  core::RepairReport report;
};

struct TimelineRun {
  std::vector<TickTimes> ticks;
  std::vector<double> costs;  // component cost after each repair
  metrics::CacheState state;
  std::vector<char> alive;    // liveness after the last tick
  double wall_ms = 0.0;  // advance through scoring, checks excluded
  long failed = 0;
};

// One replay of the plan from the initial placement: per tick, advance +
// snapshot (sim.churn), repair (core.repair), then induce the producer's
// alive component and score it (metrics.evaluate) — the post-repair
// component cost of sim::run_churn. validate_placement runs after every
// repair, outside the timed spans.
TimelineRun replay_timeline(const ChurnSetup& s,
                            std::vector<std::string>& errors) {
  TimelineRun run;
  run.state = s.initial;
  sim::ChurnSimulator sim(s.graph, s.plan);
  core::PlacementRepairEngine engine;
  const int chunks = s.problem.num_chunks;
  while (!sim.done()) {
    TickTimes tick;
    const Clock::time_point t0 = Clock::now();
    sim.advance();
    const Clock::time_point t1 = Clock::now();
    const graph::Graph snapshot = sim.snapshot();
    const Clock::time_point t2 = Clock::now();
    util::Result<core::RepairReport> repaired =
        engine.repair(snapshot, sim.alive(), chunks, run.state);
    const Clock::time_point t3 = Clock::now();
    const core::AliveComponent component =
        core::induce_alive_component(snapshot, sim.alive(), run.state);
    const Clock::time_point t4 = Clock::now();
    metrics::EvaluatorOptions eval;
    eval.num_chunks = chunks;
    const double cost = metrics::evaluate_placement(component.sub.graph,
                                                    component.state, eval)
                            .total();
    const Clock::time_point t5 = Clock::now();
    tick.advance_ms = ms_between(t0, t1);
    tick.snapshot_ms = ms_between(t1, t2);
    tick.repair_ms = ms_between(t2, t3);
    tick.induce_ms = ms_between(t3, t4);
    tick.evaluate_ms = ms_between(t4, t5);
    run.wall_ms += ms_between(t0, t5);
    if (!repaired.ok() || !repaired.value().stop_reason.ok() ||
        repaired.value().chunks_unrepaired > 0) {
      ++run.failed;
    }
    if (repaired.ok()) tick.report = repaired.value();
    if (util::Status st =
            core::validate_placement(run.state, chunks, &sim.alive());
        !st.ok()) {
      errors.push_back("invalid placement after repair: " + st.to_string());
    }
    run.costs.push_back(cost);
    run.ticks.push_back(std::move(tick));
  }
  run.alive = sim.alive();
  return run;
}

struct ChurnSizes {
  int nodes, chunks, capacity, waves, per_wave;
};

ChurnSizes churn_sizes(bool toy) {
  return toy ? ChurnSizes{300, 6, 2, 5, 15} : ChurnSizes{1000, 12, 2, 10, 50};
}

// Builds the churn inputs; the initial placement is an Algorithm 1 solve
// (traced when `layers` is set).
util::Status make_churn_setup(std::uint64_t seed, bool toy, ChurnSetup& s,
                              SolveLayers* layers) {
  const ChurnSizes z = churn_sizes(toy);
  util::Rng rng(seed);
  s.graph = make_connected_er(z.nodes, rng);
  // The best-connected node produces: half the network departs, and a
  // low-degree producer can end up alone, leaving nothing to repair.
  graph::NodeId producer = 0;
  for (graph::NodeId v = 1; v < z.nodes; ++v) {
    if (s.graph.degree(v) > s.graph.degree(producer)) producer = v;
  }
  s.problem = make_problem(s.graph, producer, z.chunks, z.capacity);
  util::Result<core::FairCachingResult> solved =
      layers != nullptr
          ? traced_solve(s.problem, {}, util::RunBudget::unlimited(), *layers)
          : core::ApproxFairCaching().solve(s.problem);
  if (!solved.ok()) return solved.status();
  s.initial = solved.value().state;
  s.plan = sim::make_departure_waves(z.nodes, producer, z.waves, z.per_wave,
                                     /*period=*/1, seed + 1);
  return util::Status();
}

RunOutput run_churn_repair(const RunOptions& opt) {
  RunOutput out;
  Measured m;
  std::unique_ptr<ChurnSetup> s;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point t = Clock::now();
    s.reset();
    s = std::make_unique<ChurnSetup>();
    if (util::Status st = make_churn_setup(opt.seed, opt.toy, *s, nullptr);
        !st.ok()) {
      out.errors.push_back("churn setup failed: " + st.to_string());
      return out;
    }
    m.setup_s.push_back(ms_since(t) / 1e3);
  }
  const ChurnSetup& setup = *s;
  const long ticks_per_timeline = churn_sizes(opt.toy).waves;

  // The operation is a whole plan replay: which ticks escalate to
  // re-solves changes from seed to seed, so single ticks are too uneven
  // to compare across seeds, while a plan's total is steady.
  std::vector<double> untraced_ms, traced_ms, service_ms;
  std::vector<TimelineRun> runs;
  std::vector<TimelineRun> traced;
  Window window(opt.seconds, opt.trace ? 2 : 1);
  double last = 0.0;
  for (int done = 0; window.more(done, last); ++done) {
    TimelineRun run = replay_timeline(setup, out.errors);
    out.attempted += ticks_per_timeline;
    out.failed += run.failed;
    last = run.wall_ms;
    if (!runs.empty() && (run.costs != runs.front().costs ||
                          state_hash(run.state) !=
                              state_hash(runs.front().state))) {
      out.errors.push_back("timeline replays disagree");
    }
    if (opt.trace && done % 2 == 1) {
      traced_ms.push_back(run.wall_ms);
      traced.push_back(std::move(run));
      continue;
    }
    untraced_ms.push_back(run.wall_ms);
    double service = 0.0;
    for (const TickTimes& t : run.ticks) {
      service += t.repair_ms + t.induce_ms + t.evaluate_ms;
    }
    service_ms.push_back(service);
    runs.push_back(std::move(run));
  }
  m.add_sequence(service_ms, kChurnRate);
  double op_total = 0.0;
  for (double ms : service_ms) op_total += ms;
  m.throughput.push_back(1e3 * static_cast<double>(service_ms.size()) /
                         op_total);
  add_end_to_end(out, m);

  const TimelineRun& r = runs.front();
  out.exact.push_back({"contention_cost", r.costs.back(), "cost", 1});
  out.exact.push_back(
      {"gini", metrics::gini_coefficient(alive_counts(r.state, r.alive)),
       "1", 1});
  Fnv1a fp;
  fp.value(state_hash(setup.initial));
  fp.value(state_hash(r.state));
  for (double c : r.costs) fp.value(c);
  out.fingerprint = fp.digest();

  // Pooled per-tick layer figures of the untraced replays.
  std::vector<double> repair, score;
  for (const TimelineRun& run : runs) {
    for (const TickTimes& t : run.ticks) {
      repair.push_back(t.repair_ms);
      score.push_back(t.induce_ms + t.evaluate_ms);
    }
  }
  out.detail.push_back({"repair_ms_p50", median(repair), "ms",
                        static_cast<long>(repair.size())});
  out.detail.push_back({"score_ms_p50", median(score), "ms",
                        static_cast<long>(score.size())});

  if (opt.trace) {
    LayerMetrics lm;
    LayerShares shares;
    // The initial placement, solved once more through the traced loop.
    ChurnSetup again;
    SolveLayers solve;
    if (util::Status st = make_churn_setup(opt.seed, opt.toy, again, &solve);
        !st.ok() || state_hash(again.initial) != state_hash(setup.initial)) {
      out.errors.push_back("traced initial solve differs from solve()");
    }
    set_solver_layers(lm, {solve});
    std::vector<double> advance, snapshot, repair_t, detect, local, resolve,
        induce, evaluate;
    double work = 0, lost = 0, resolved = 0, local_chunks = 0;
    for (const TimelineRun& run : traced) {
      shares.wall += run.wall_ms;
      for (const TickTimes& t : run.ticks) {
        shares.churn += t.advance_ms + t.snapshot_ms;
        shares.repair += t.repair_ms;
        shares.evaluate += t.induce_ms + t.evaluate_ms;
        advance.push_back(t.advance_ms);
        snapshot.push_back(t.snapshot_ms);
        repair_t.push_back(t.repair_ms);
        detect.push_back(t.report.detect_seconds * 1e3);
        local.push_back(t.report.local_seconds * 1e3);
        resolve.push_back(t.report.resolve_seconds * 1e3);
        induce.push_back(t.induce_ms);
        evaluate.push_back(t.evaluate_ms);
        work += static_cast<double>(t.report.work_units);
        lost += t.report.replicas_lost;
        resolved += t.report.chunks_resolved;
        local_chunks += t.report.chunks_local;
      }
    }
    shares.fill(lm, overhead_pct(traced_ms, untraced_ms));
    const double timelines = static_cast<double>(traced.size());
    lm.set("core.repair.work_units", work / timelines);
    lm.set("core.repair.replicas_lost", lost / timelines);
    lm.set("core.repair.chunks_local", local_chunks / timelines);
    lm.set("core.repair.chunks_resolved", resolved / timelines);
    lm.set("sim.churn.ticks", static_cast<double>(ticks_per_timeline));
    out.per_layer = lm.finish();
    const long n = static_cast<long>(advance.size());
    out.detail.push_back({"sim.churn.advance_ms", median(advance), "ms", n});
    out.detail.push_back({"sim.churn.snapshot_ms", median(snapshot), "ms", n});
    out.detail.push_back({"core.repair.repair_ms", median(repair_t), "ms", n});
    out.detail.push_back({"core.repair.detect_ms", median(detect), "ms", n});
    out.detail.push_back({"core.repair.local_ms", median(local), "ms", n});
    out.detail.push_back({"core.repair.resolve_ms", median(resolve), "ms", n});
    out.detail.push_back({"core.repair.induce_ms", median(induce), "ms", n});
    out.detail.push_back({"metrics.evaluate_ms", median(evaluate), "ms", n});
  }
  return out;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"grid-solve", 0, run_grid_solve},
      {"sparse-100k", 7001, run_sparse_100k},
      {"serve-drift", 0x5eed, run_serve_drift},
      {"churn-repair", 99, run_churn_repair},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

const std::vector<std::pair<const char*, const char*>>& end_to_end_names() {
  static const std::vector<std::pair<const char*, const char*>> names = {
      {"setup_s", "s"},
      {"op_p50_ms", "ms"},
      {"ops_per_s", "1/s"},
      {"peak_rss_mb", "MB"},
  };
  return names;
}

const std::vector<std::pair<const char*, const char*>>& per_layer_names() {
  static const std::vector<std::pair<const char*, const char*>> names = {
      {"core.instance.build_ms", "ms"},
      {"core.instance.tree_ms", "ms"},
      {"core.instance.delta_ms", "ms"},
      {"confl.solve_ms", "ms"},
      {"confl.growth_finish_ms", "ms"},
      {"steiner.replay_ms", "ms"},
      {"core.approx.loop_ms", "ms"},
      {"core.instance.share_pct", "%"},
      {"core.guard.share_pct", "%"},
      {"confl.share_pct", "%"},
      {"steiner.share_pct", "%"},
      {"core.approx.share_pct", "%"},
      {"core.online.share_pct", "%"},
      {"core.repair.share_pct", "%"},
      {"metrics.evaluate.share_pct", "%"},
      {"sim.churn.share_pct", "%"},
      {"trace.coverage_pct", "%"},
      {"trace.overhead_pct", "%"},
      {"confl.rounds", "count"},
      {"confl.open_facilities", "count"},
      {"steiner.tree_edges", "count"},
      {"core.guard.audits", "count"},
      {"core.approx.degraded_chunks", "count"},
      {"core.online.fetches", "count"},
      {"core.online.holders_scanned_mean", "count"},
      {"core.online.inserts", "count"},
      {"core.online.evictions", "count"},
      {"sim.workload.drift_events", "count"},
      {"core.repair.work_units", "count"},
      {"core.repair.replicas_lost", "count"},
      {"core.repair.chunks_local", "count"},
      {"core.repair.chunks_resolved", "count"},
      {"sim.churn.ticks", "count"},
  };
  return names;
}

void check_churn_against_runtime(std::uint64_t seed,
                                 std::vector<std::string>& errors) {
  ChurnSetup s;
  if (util::Status st = make_churn_setup(seed, /*toy=*/true, s, nullptr);
      !st.ok()) {
    errors.push_back("churn setup failed: " + st.to_string());
    return;
  }
  const TimelineRun run = replay_timeline(s, errors);
  util::Result<sim::ChurnRunResult> reference =
      sim::run_churn(s.problem, s.initial, s.plan);
  if (!reference.ok()) {
    errors.push_back("run_churn failed: " + reference.status().to_string());
    return;
  }
  std::vector<double> costs;
  for (const sim::ChurnSample& sample : reference.value().timeline.samples()) {
    if (sample.phase == sim::ChurnPhase::kPostRepair) {
      costs.push_back(sample.component_cost);
    }
  }
  if (state_hash(run.state) != state_hash(reference.value().state) ||
      costs != run.costs) {
    errors.push_back("churn replay differs from sim::run_churn");
  }
}

}  // namespace fcbench
