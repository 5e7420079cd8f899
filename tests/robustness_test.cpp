// Tests for the defensive runtime layer (docs/ROBUSTNESS.md): the typed
// Status / Result taxonomy, RunBudget / CancelToken semantics, cooperative
// cancellation in parallel_for and the solver stack, the hardened input
// boundary, and the anytime guarantees of core::ApproxFairCaching::solve.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "confl/confl.h"
#include "core/approx.h"
#include "core/validate.h"
#include "graph/generators.h"
#include "metrics/sparse_contention.h"
#include "sim/distributed.h"
#include "steiner/steiner.h"
#include "testutil.h"
#include "util/deadline.h"
#include "util/parallel.h"
#include "util/status.h"

namespace faircache {
namespace {

using graph::Graph;
using graph::NodeId;
using util::CancelToken;
using util::RunBudget;
using util::Status;
using util::StatusCode;

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  const Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.to_string(), "ok");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  const Status status = Status::deadline_exceeded("phase 1 ran out");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(status.message(), "phase 1 ran out");
  EXPECT_EQ(status.to_string(), "deadline-exceeded: phase 1 ran out");
}

TEST(StatusTest, EqualityComparesCodesOnly) {
  EXPECT_EQ(Status::cancelled("a"), Status::cancelled("b"));
  EXPECT_FALSE(Status::cancelled("a") == Status::infeasible("a"));
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_STREQ(util::status_code_name(StatusCode::kOk), "ok");
  EXPECT_STREQ(util::status_code_name(StatusCode::kInvalidInput),
               "invalid-input");
  EXPECT_STREQ(util::status_code_name(StatusCode::kInfeasible), "infeasible");
  EXPECT_STREQ(util::status_code_name(StatusCode::kDeadlineExceeded),
               "deadline-exceeded");
  EXPECT_STREQ(util::status_code_name(StatusCode::kCancelled), "cancelled");
  EXPECT_STREQ(util::status_code_name(StatusCode::kResourceExhausted),
               "resource-exhausted");
}

TEST(ResultTest, HoldsValueOrStatus) {
  util::Result<int> good(42);
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  EXPECT_EQ(good.status(), Status());
  EXPECT_EQ(good.value_or(-1), 42);

  util::Result<int> bad(Status::invalid_input("nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kInvalidInput);
  EXPECT_EQ(bad.value_or(-1), -1);
  EXPECT_THROW(bad.value(), util::CheckError);
  try {
    (void)bad.value();
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("invalid-input: nope"),
              std::string::npos)
        << e.what();
  }
}

TEST(ResultTest, OkStatusIsRejected) {
  EXPECT_THROW((util::Result<int>{Status()}), util::CheckError);
}

// -------------------------------------------------------------- RunBudget --

TEST(RunBudgetTest, DefaultIsUnlimited) {
  const RunBudget budget;
  EXPECT_TRUE(budget.is_unlimited());
  EXPECT_FALSE(budget.expired());
  budget.charge(1000);
  EXPECT_FALSE(budget.expired());
  EXPECT_EQ(budget.work_charged(), 0u);  // unlimited budgets track nothing
  EXPECT_TRUE(budget.status("anywhere").ok());
}

TEST(RunBudgetTest, WorkUnitsExpireAfterCapExceeded) {
  const RunBudget budget = RunBudget::work_units(2);
  EXPECT_FALSE(budget.expired());
  budget.charge();
  budget.charge();
  EXPECT_FALSE(budget.expired());  // at the cap, not past it
  budget.charge();
  EXPECT_TRUE(budget.expired());
  EXPECT_EQ(budget.check(), StatusCode::kResourceExhausted);
  const Status status = budget.status("dual growth");
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(status.message().find("dual growth"), std::string::npos);
}

TEST(RunBudgetTest, CopiesShareTheCounter) {
  const RunBudget budget = RunBudget::work_units(0);
  const RunBudget copy = budget;
  copy.charge();
  EXPECT_TRUE(budget.expired());
}

TEST(RunBudgetTest, ZeroWallClockIsAlreadyExpired) {
  const RunBudget budget = RunBudget::wall_clock(0.0);
  EXPECT_TRUE(budget.expired());
  EXPECT_EQ(budget.check(), StatusCode::kDeadlineExceeded);
}

TEST(RunBudgetTest, GenerousWallClockIsNotExpired) {
  EXPECT_FALSE(RunBudget::wall_clock(3600.0).expired());
  EXPECT_FALSE(RunBudget::wall_clock(1e18).expired());  // saturates, no UB
}

TEST(RunBudgetTest, CancelWinsOverOtherReasons) {
  CancelToken token = CancelToken::make();
  const RunBudget budget = RunBudget::limited(0.0, 0, token);
  budget.charge();
  token.request_cancel();
  // Deadline and work cap are both tripped; cancellation takes precedence.
  EXPECT_EQ(budget.check(), StatusCode::kCancelled);
}

TEST(CancelTokenTest, DefaultTokenIsInert) {
  const CancelToken token;
  EXPECT_FALSE(token.valid());
  token.request_cancel();
  EXPECT_FALSE(token.cancelled());
}

TEST(CancelTokenTest, SharedFlagAcrossCopies) {
  CancelToken token = CancelToken::make();
  const CancelToken copy = token;
  EXPECT_FALSE(copy.cancelled());
  token.request_cancel();
  EXPECT_TRUE(copy.cancelled());
}

// ------------------------------------------------------------ parallel_for --

TEST(ParallelForBudgetTest, PreExpiredBudgetRunsNothing) {
  for (int threads : {1, 4}) {
    const RunBudget budget = RunBudget::wall_clock(0.0);
    std::atomic<int> executed{0};
    util::parallel_for(
        1000, [&](std::size_t) { executed.fetch_add(1); }, threads, budget);
    EXPECT_EQ(executed.load(), 0) << "threads=" << threads;
  }
}

TEST(ParallelForBudgetTest, MidLoopExpiryDrainsEarly) {
  for (int threads : {1, 4}) {
    const RunBudget budget = RunBudget::work_units(5);
    std::atomic<int> executed{0};
    util::parallel_for(
        100000,
        [&](std::size_t) {
          budget.charge();
          executed.fetch_add(1);
        },
        threads, budget);
    EXPECT_TRUE(budget.expired());
    EXPECT_LT(executed.load(), 100000) << "threads=" << threads;
  }
}

TEST(ParallelForBudgetTest, CancellationFromInsideTheLoop) {
  CancelToken token = CancelToken::make();
  const RunBudget budget = RunBudget::cancellable(token);
  std::atomic<int> executed{0};
  util::parallel_for(
      100000,
      [&](std::size_t i) {
        if (i == 0) token.request_cancel();
        executed.fetch_add(1);
      },
      4, budget);
  EXPECT_TRUE(budget.expired());
  EXPECT_LT(executed.load(), 100000);
}

TEST(ParallelForBudgetTest, UnexpiredBudgetRunsEveryIndex) {
  for (int threads : {1, 4}) {
    const RunBudget budget = RunBudget::work_units(1u << 30);
    std::vector<char> ran(5000, 0);
    util::parallel_for(
        ran.size(),
        [&](std::size_t i) {
          budget.charge();
          ran[i] = 1;
        },
        threads, budget);
    EXPECT_FALSE(budget.expired());
    EXPECT_EQ(std::count(ran.begin(), ran.end(), 1),
              static_cast<long>(ran.size()))
        << "threads=" << threads;
  }
}

TEST(ParallelForExceptionTest, ConcurrentThrowersDoNotRace) {
  // Regression for the exception-capture race: every index throws, so with
  // several workers many throws happen back to back. Exactly one must
  // propagate, and the pool must stay usable afterwards. Repeat to give a
  // racy implementation many chances to fail (under TSan this is the
  // original reproducer).
  for (int round = 0; round < 20; ++round) {
    EXPECT_THROW(
        util::parallel_for(
            256, [&](std::size_t) { throw std::runtime_error("boom"); }, 4),
        std::runtime_error);
    std::atomic<int> executed{0};
    util::parallel_for(64, [&](std::size_t) { executed.fetch_add(1); }, 4);
    EXPECT_EQ(executed.load(), 64);
  }
}

// ----------------------------------------------------------- solver stack --

confl::ConflInstance tiny_instance(const Graph& g,
                                   std::vector<double>& edge_cost_storage,
                                   util::Matrix<double>& assign_storage) {
  // 4-ring, root 0, uniform costs: small but runs several growth rounds.
  const int n = g.num_nodes();
  confl::ConflInstance instance;
  instance.network = &g;
  instance.root = 0;
  instance.facility_cost.assign(static_cast<std::size_t>(n), 2.0);
  assign_storage = util::Matrix<double>(static_cast<std::size_t>(n),
                                        static_cast<std::size_t>(n), 1.0);
  for (int i = 0; i < n; ++i) {
    assign_storage(static_cast<std::size_t>(i), static_cast<std::size_t>(i)) =
        0.0;
  }
  instance.assign_cost = assign_storage;
  edge_cost_storage.assign(static_cast<std::size_t>(g.num_edges()), 1.0);
  instance.edge_cost = edge_cost_storage;
  return instance;
}

TEST(TrySolveConflTest, InvalidInputIsTyped) {
  confl::ConflInstance empty;
  const util::Result<confl::ConflSolution> result =
      confl::try_solve_confl(empty);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.code(), StatusCode::kInvalidInput);
}

TEST(TrySolveConflTest, BadOptionsAreTyped) {
  const Graph g = graph::make_ring(4);
  std::vector<double> edge_costs;
  util::Matrix<double> assign;
  const confl::ConflInstance instance = tiny_instance(g, edge_costs, assign);
  confl::ConflOptions options;
  options.alpha_step = -1.0;
  EXPECT_EQ(confl::try_solve_confl(instance, options).code(),
            StatusCode::kInvalidInput);
  options.alpha_step = 1.0;
  options.span_threshold = 0;
  EXPECT_EQ(confl::try_solve_confl(instance, options).code(),
            StatusCode::kInvalidInput);
  options.span_threshold = 3;
  options.max_rounds = -1;
  EXPECT_EQ(confl::try_solve_confl(instance, options).code(),
            StatusCode::kInvalidInput);
}

// tiny_instance's costs as a full-row sparse store, the form the sparse
// validator accepts; each defect case below breaks one of its rules.
confl::ConflInstance tiny_sparse_instance(
    const Graph& g, std::vector<double>& edge_cost_storage) {
  util::Matrix<double> assign;
  confl::ConflInstance instance = tiny_instance(g, edge_cost_storage, assign);
  instance.assign_cost = util::Matrix<double>();
  const int n = g.num_nodes();
  metrics::SparseContention& s = instance.sparse_cost;
  s.num_nodes = n;
  s.row_offset.push_back(0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      s.col.push_back(j);
      s.cost.push_back(
          assign(static_cast<std::size_t>(i), static_cast<std::size_t>(j)));
    }
    s.row_offset.push_back(static_cast<std::int64_t>(s.col.size()));
  }
  return instance;
}

TEST(TrySolveConflTest, WellFormedSparseStoreSolves) {
  const Graph g = graph::make_ring(4);
  std::vector<double> edge_costs;
  const confl::ConflInstance instance = tiny_sparse_instance(g, edge_costs);
  ASSERT_TRUE(instance.sparse());
  EXPECT_TRUE(confl::try_solve_confl(instance).ok());
}

TEST(TrySolveConflTest, SparseRowsNotStartingAtZeroAreTyped) {
  const Graph g = graph::make_ring(4);
  std::vector<double> edge_costs;
  confl::ConflInstance instance = tiny_sparse_instance(g, edge_costs);
  instance.sparse_cost.row_offset[0] = 1;
  EXPECT_EQ(confl::try_solve_confl(instance).code(),
            StatusCode::kInvalidInput);
}

TEST(TrySolveConflTest, FallingSparseRowOffsetIsTyped) {
  const Graph g = graph::make_ring(4);
  std::vector<double> edge_costs;
  confl::ConflInstance instance = tiny_sparse_instance(g, edge_costs);
  // Row 1 ends past the store; row 2 then starts there and falls back.
  instance.sparse_cost.row_offset[2] = 100;
  EXPECT_EQ(confl::try_solve_confl(instance).code(),
            StatusCode::kInvalidInput);
  instance.sparse_cost.row_offset[2] = 3;  // below row 1's start (4)
  EXPECT_EQ(confl::try_solve_confl(instance).code(),
            StatusCode::kInvalidInput);
}

TEST(TrySolveConflTest, SparseColumnOutOfRangeIsTyped) {
  const Graph g = graph::make_ring(4);
  std::vector<double> edge_costs;
  confl::ConflInstance instance = tiny_sparse_instance(g, edge_costs);
  // The last entry of the last row names client 4 of a 4-node network.
  instance.sparse_cost.col.back() = 4;
  util::Result<confl::ConflSolution> result = confl::try_solve_confl(instance);
  EXPECT_EQ(result.code(), StatusCode::kInvalidInput);
  EXPECT_NE(result.status().message().find("out of range"), std::string::npos);
  // A negative id leading a row is out of range too, not merely out of
  // order.
  instance = tiny_sparse_instance(g, edge_costs);
  instance.sparse_cost.col.front() = -1;
  result = confl::try_solve_confl(instance);
  EXPECT_EQ(result.code(), StatusCode::kInvalidInput);
  EXPECT_NE(result.status().message().find("out of range"), std::string::npos);
}

TEST(TrySolveConflTest, SparseColumnsNotAscendingAreTyped) {
  const Graph g = graph::make_ring(4);
  std::vector<double> edge_costs;
  confl::ConflInstance instance = tiny_sparse_instance(g, edge_costs);
  std::vector<NodeId>& col = instance.sparse_cost.col;
  std::swap(col[5], col[6]);  // row 1: clients 0, 2, 1, 3
  EXPECT_EQ(confl::try_solve_confl(instance).code(),
            StatusCode::kInvalidInput);
  std::swap(col[5], col[6]);
  col[6] = col[5];  // row 1: clients 0, 1, 1, 3 (a repeat)
  EXPECT_EQ(confl::try_solve_confl(instance).code(),
            StatusCode::kInvalidInput);
}

TEST(TrySolveConflTest, TinyFixedStepClampsTheDerivedRoundCap) {
  const Graph g = graph::make_ring(4);
  std::vector<double> edge_costs;
  util::Matrix<double> assign;
  const confl::ConflInstance instance = tiny_instance(g, edge_costs, assign);
  confl::ConflOptions options;
  // ceil(1.0 / alpha_step) + 2 exceeds INT_MAX: the derived cap must clamp
  // rather than wrap, so growth runs until the budget, not the cap, stops it.
  options.alpha_step = 1e-10;
  const RunBudget budget = RunBudget::work_units(64);
  const util::Result<confl::ConflSolution> result =
      confl::try_solve_confl(instance, options, budget);
  EXPECT_EQ(result.code(), budget.check());
  EXPECT_NE(result.status().message().find("confl dual growth"),
            std::string::npos)
      << result.status();
  EXPECT_GT(budget.work_charged(), 0u);
}

TEST(TrySolveConflTest, ExpiredBudgetIsTypedNotThrown) {
  const Graph g = graph::make_ring(4);
  std::vector<double> edge_costs;
  util::Matrix<double> assign;
  const confl::ConflInstance instance = tiny_instance(g, edge_costs, assign);

  const util::Result<confl::ConflSolution> result = confl::try_solve_confl(
      instance, {}, RunBudget::wall_clock(0.0));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.code(), StatusCode::kDeadlineExceeded);
}

TEST(TrySolveConflTest, CompletedBudgetedRunMatchesUnbudgeted) {
  const Graph g = graph::make_ring(6);
  std::vector<double> edge_costs;
  util::Matrix<double> assign;
  const confl::ConflInstance instance = tiny_instance(g, edge_costs, assign);

  const util::Result<confl::ConflSolution> unbudgeted =
      confl::try_solve_confl(instance);
  const util::Result<confl::ConflSolution> via_budget =
      confl::try_solve_confl(instance, {}, RunBudget::wall_clock(3600.0));
  ASSERT_TRUE(unbudgeted.ok());
  ASSERT_TRUE(via_budget.ok());
  EXPECT_EQ(via_budget.value().open_facilities,
            unbudgeted.value().open_facilities);
  EXPECT_EQ(via_budget.value().assignment, unbudgeted.value().assignment);
  EXPECT_EQ(via_budget.value().total(), unbudgeted.value().total());
  EXPECT_EQ(via_budget.value().rounds, unbudgeted.value().rounds);
}

TEST(TrySteinerTest, InvalidAndInfeasibleAreTyped) {
  const Graph g = graph::make_path(3);
  const std::vector<double> weights(static_cast<std::size_t>(g.num_edges()),
                                    1.0);
  EXPECT_EQ(steiner::try_steiner_mst_approx(g, {}, {0, 2}).code(),
            StatusCode::kInvalidInput);
  EXPECT_EQ(steiner::try_steiner_mst_approx(g, weights, {}).code(),
            StatusCode::kInvalidInput);
  EXPECT_EQ(steiner::try_steiner_mst_approx(g, weights, {0, 7}).code(),
            StatusCode::kInvalidInput);

  Graph split(4);
  split.add_edge(0, 1);
  split.add_edge(2, 3);
  const std::vector<double> split_weights(2, 1.0);
  EXPECT_EQ(steiner::try_steiner_mst_approx(split, split_weights, {0, 3})
                .code(),
            StatusCode::kInfeasible);
}

TEST(TryAddEdgeTest, RejectionsAreTypedAndNonMutating) {
  Graph g(3);
  ASSERT_TRUE(g.try_add_edge(0, 1).ok());
  EXPECT_EQ(g.try_add_edge(1, 1).code(), StatusCode::kInvalidInput);
  EXPECT_EQ(g.try_add_edge(0, 1).code(), StatusCode::kInvalidInput);
  EXPECT_EQ(g.try_add_edge(1, 0).code(), StatusCode::kInvalidInput);
  EXPECT_EQ(g.try_add_edge(0, 5).code(), StatusCode::kInvalidInput);
  EXPECT_EQ(g.try_add_edge(-1, 0).code(), StatusCode::kInvalidInput);
  EXPECT_EQ(g.num_edges(), 1);
}

// --------------------------------------------------------- validate_problem --

using testutil::make_problem;

TEST(ValidateProblemTest, AcceptsWellFormedProblem) {
  const Graph g = graph::make_grid(3, 3);
  EXPECT_TRUE(core::validate_problem(make_problem(g, 4, 3, 2)).ok());
}

TEST(ValidateProblemTest, RejectsMalformedProblems) {
  const Graph g = graph::make_grid(3, 3);
  core::FairCachingProblem problem;
  EXPECT_EQ(core::validate_problem(problem).code(),
            StatusCode::kInvalidInput);  // no network

  EXPECT_EQ(core::validate_problem(make_problem(g, 9, 3, 2)).code(),
            StatusCode::kInvalidInput);  // producer out of range
  EXPECT_EQ(core::validate_problem(make_problem(g, -1, 3, 2)).code(),
            StatusCode::kInvalidInput);
  EXPECT_EQ(core::validate_problem(make_problem(g, 4, -1, 2)).code(),
            StatusCode::kInvalidInput);  // negative chunk count
  EXPECT_EQ(core::validate_problem(make_problem(g, 4, 3, -2)).code(),
            StatusCode::kInvalidInput);  // negative capacity

  core::FairCachingProblem mis_sized = make_problem(g, 4, 3, 2);
  mis_sized.capacities = {1, 2};
  EXPECT_EQ(core::validate_problem(mis_sized).code(),
            StatusCode::kInvalidInput);

  core::FairCachingProblem negative_cap = make_problem(g, 4, 3, 2);
  negative_cap.capacities.assign(9, 1);
  negative_cap.capacities[3] = -1;
  EXPECT_EQ(core::validate_problem(negative_cap).code(),
            StatusCode::kInvalidInput);

  core::FairCachingProblem overflow = make_problem(g, 4, 3, 2);
  overflow.num_chunks = std::numeric_limits<int>::max() / 2;
  EXPECT_EQ(core::validate_problem(overflow).code(),
            StatusCode::kInvalidInput);
}

TEST(ValidateProblemTest, DisconnectedNetworkIsInfeasible) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_EQ(core::validate_problem(make_problem(g, 0, 2, 2)).code(),
            StatusCode::kInfeasible);
}

// ------------------------------------------------------- anytime semantics --

void expect_feasible(const core::FairCachingResult& result,
                     const core::FairCachingProblem& problem) {
  ASSERT_EQ(static_cast<int>(result.placements.size()), problem.num_chunks);
  for (NodeId v = 0; v < problem.network->num_nodes(); ++v) {
    if (v == problem.producer) {
      EXPECT_EQ(result.state.used(v), 0);
      continue;
    }
    EXPECT_LE(result.state.used(v), result.state.capacity(v));
  }
  for (const core::ChunkPlacement& placement : result.placements) {
    for (NodeId v : placement.cache_nodes) {
      EXPECT_NE(v, problem.producer);
      EXPECT_TRUE(result.state.holds(v, placement.chunk));
    }
  }
}

void expect_identical_results(const core::FairCachingResult& a,
                              const core::FairCachingResult& b) {
  ASSERT_EQ(a.placements.size(), b.placements.size());
  for (std::size_t k = 0; k < a.placements.size(); ++k) {
    EXPECT_EQ(a.placements[k].cache_nodes, b.placements[k].cache_nodes);
    EXPECT_EQ(a.placements[k].solver_objective,
              b.placements[k].solver_objective);
    EXPECT_EQ(a.placements[k].solver_rounds, b.placements[k].solver_rounds);
  }
  for (NodeId v = 0; v < a.state.num_nodes(); ++v) {
    EXPECT_EQ(a.state.chunks_on(v), b.state.chunks_on(v));
  }
}

TEST(AnytimeSolveTest, UnlimitedBudgetIsBitIdenticalToRun) {
  const Graph g = graph::make_grid(4, 4);
  const core::FairCachingProblem problem = make_problem(g, 5, 4, 2);
  core::ApproxFairCaching algorithm;

  const core::FairCachingResult via_run = algorithm.run(problem);
  core::SolveReport report;
  util::Result<core::FairCachingResult> via_solve =
      algorithm.solve(problem, RunBudget::unlimited(), &report);
  ASSERT_TRUE(via_solve.ok());
  expect_identical_results(via_solve.value(), via_run);
  EXPECT_TRUE(report.stop_reason.ok());
  EXPECT_FALSE(report.degraded());
  EXPECT_EQ(report.chunks_total, 4);
  EXPECT_EQ(report.chunks_solved(), 4);
}

TEST(AnytimeSolveTest, GenerousBudgetCompletesUnDegraded) {
  const Graph g = graph::make_grid(4, 4);
  const core::FairCachingProblem problem = make_problem(g, 5, 4, 2);
  core::ApproxFairCaching algorithm;

  core::SolveReport report;
  util::Result<core::FairCachingResult> generous = algorithm.solve(
      problem, RunBudget::work_units(1u << 20), &report);
  ASSERT_TRUE(generous.ok());
  EXPECT_TRUE(report.stop_reason.ok());
  EXPECT_FALSE(report.degraded());
  expect_identical_results(generous.value(), algorithm.run(problem));
}

TEST(AnytimeSolveTest, TinyBudgetDegradesButStaysFeasible) {
  const Graph g = graph::make_grid(4, 4);
  const core::FairCachingProblem problem = make_problem(g, 5, 4, 2);
  core::ApproxFairCaching algorithm;

  core::SolveReport report;
  util::Result<core::FairCachingResult> result =
      algorithm.solve(problem, RunBudget::work_units(3), &report);
  ASSERT_TRUE(result.ok()) << "budget expiry must not be an error";
  expect_feasible(result.value(), problem);
  EXPECT_TRUE(report.degraded());
  EXPECT_EQ(report.stop_reason.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(report.chunks_solved() +
                static_cast<int>(report.degraded_chunks.size()),
            report.chunks_total);
  // Degraded chunks still cache something useful (the greedy fallback only
  // returns an empty set on degenerate topologies).
  EXPECT_FALSE(result.value().placements.back().cache_nodes.empty());
}

TEST(AnytimeSolveTest, ZeroBudgetDegradesEveryChunk) {
  const Graph g = graph::make_grid(4, 4);
  const core::FairCachingProblem problem = make_problem(g, 5, 4, 2);
  core::ApproxFairCaching algorithm;

  core::SolveReport report;
  util::Result<core::FairCachingResult> result =
      algorithm.solve(problem, RunBudget::wall_clock(0.0), &report);
  ASSERT_TRUE(result.ok());
  expect_feasible(result.value(), problem);
  EXPECT_EQ(static_cast<int>(report.degraded_chunks.size()),
            problem.num_chunks);
  EXPECT_EQ(report.stop_reason.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(report.chunks_solved(), 0);
}

TEST(AnytimeSolveTest, PreCancelledTokenDegradesEverythingTyped) {
  const Graph g = graph::make_grid(4, 4);
  const core::FairCachingProblem problem = make_problem(g, 5, 4, 2);
  core::ApproxFairCaching algorithm;

  CancelToken token = CancelToken::make();
  token.request_cancel();
  core::SolveReport report;
  util::Result<core::FairCachingResult> result =
      algorithm.solve(problem, RunBudget::cancellable(token), &report);
  ASSERT_TRUE(result.ok());
  expect_feasible(result.value(), problem);
  EXPECT_EQ(report.stop_reason.code(), StatusCode::kCancelled);
  EXPECT_EQ(report.chunks_solved(), 0);
}

TEST(AnytimeSolveTest, InvalidProblemIsAnErrorNotAFallback) {
  core::ApproxFairCaching algorithm;
  core::FairCachingProblem empty;
  EXPECT_EQ(algorithm.solve(empty).code(), StatusCode::kInvalidInput);

  Graph split(4);
  split.add_edge(0, 1);
  split.add_edge(2, 3);
  EXPECT_EQ(algorithm.solve(make_problem(split, 0, 2, 2)).code(),
            StatusCode::kInfeasible);
}

TEST(AnytimeSolveTest, WorkUnitBudgetsDegradeMonotonically) {
  // Work units are charged at deterministic program points (one per dual
  // growth round, one per SSSP source), so for a fixed problem the number
  // of degraded chunks is a deterministic, non-increasing function of the
  // cap — the anytime monotonicity guarantee.
  const Graph g = graph::make_grid(4, 4);
  const core::FairCachingProblem problem = make_problem(g, 5, 5, 2);
  core::ApproxFairCaching algorithm;

  std::size_t previous_degraded = std::numeric_limits<std::size_t>::max();
  for (std::uint64_t cap : {std::uint64_t{0}, std::uint64_t{2},
                            std::uint64_t{8}, std::uint64_t{32},
                            std::uint64_t{128}, std::uint64_t{512},
                            std::uint64_t{1} << 20}) {
    core::SolveReport report;
    util::Result<core::FairCachingResult> result =
        algorithm.solve(problem, RunBudget::work_units(cap), &report);
    ASSERT_TRUE(result.ok()) << "cap=" << cap;
    expect_feasible(result.value(), problem);
    EXPECT_LE(report.degraded_chunks.size(), previous_degraded)
        << "cap=" << cap;
    previous_degraded = report.degraded_chunks.size();

    // Re-running with the same cap reproduces the same degradation set.
    core::SolveReport again;
    util::Result<core::FairCachingResult> rerun =
        algorithm.solve(problem, RunBudget::work_units(cap), &again);
    ASSERT_TRUE(rerun.ok());
    EXPECT_EQ(again.degraded_chunks, report.degraded_chunks)
        << "cap=" << cap;
    expect_identical_results(rerun.value(), result.value());
  }
  EXPECT_EQ(previous_degraded, 0u);  // the largest cap completes the run
}

// ------------------------------------------------- distributed watchdog --

TEST(DistWatchdogTest, ConvergedRunReportsOkOutcome) {
  const Graph g = graph::make_grid(4, 4);
  const core::FairCachingProblem problem = make_problem(g, 5, 2, 3);
  sim::DistributedFairCaching dist;
  dist.run(problem);
  EXPECT_TRUE(dist.protocol_outcome().ok());
  EXPECT_EQ(dist.message_stats().forced_freezes, 0);
}

TEST(DistWatchdogTest, RoundBoundSurfacesTypedOutcome) {
  const Graph g = graph::make_grid(4, 4);
  const core::FairCachingProblem problem = make_problem(g, 5, 2, 3);

  sim::DistributedConfig config;
  config.faults = sim::FaultPlan{};  // reliable channel, watchdog armed
  config.max_rounds = 1;             // far too few bidding rounds
  sim::DistributedFairCaching dist(config);
  const core::FairCachingResult result = dist.run(problem);

  EXPECT_EQ(dist.protocol_outcome().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(dist.message_stats().forced_freezes, 0);
  // Force-frozen stragglers are parked on the producer, so every node
  // still has a source — the protocol degrades, it does not fail.
  EXPECT_EQ(result.coverage(), 1.0);

  const auto eval = result.evaluate(problem);
  const metrics::DegradationReport report = metrics::make_degradation_report(
      result.coverage(), eval, eval, dist.protocol_outcome(),
      dist.message_stats().forced_freezes);
  EXPECT_EQ(report.protocol_outcome.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(report.forced_freezes, 0);
}

}  // namespace
}  // namespace faircache
