// Unit tests for the branch-and-bound MILP solver.

#include "mip/branch_and_bound.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"

namespace faircache::mip {
namespace {

using lp::LinearExpr;
using lp::LpProblem;
using lp::Relation;
using lp::Sense;
using lp::VarId;

constexpr double kTol = 1e-6;

TEST(BranchAndBoundTest, PureLpPassesThrough) {
  LpProblem p;
  const VarId x = p.add_variable();
  p.add_constraint(LinearExpr().add(x, 1.0), Relation::kLessEqual, 2.5);
  p.set_objective(Sense::kMaximize, LinearExpr().add(x, 1.0));

  const MipSolution s = BranchAndBoundSolver().solve(p);
  ASSERT_EQ(s.status, MipStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.5, kTol);
}

TEST(BranchAndBoundTest, SimpleIntegerRounding) {
  // max x, x integer, x ≤ 2.5 → 2.
  LpProblem p;
  const VarId x = p.add_integer_variable(0.0, 10.0);
  p.add_constraint(LinearExpr().add(x, 1.0), Relation::kLessEqual, 2.5);
  p.set_objective(Sense::kMaximize, LinearExpr().add(x, 1.0));

  const MipSolution s = BranchAndBoundSolver().solve(p);
  ASSERT_EQ(s.status, MipStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, kTol);
  EXPECT_NEAR(s.values[x], 2.0, kTol);
}

TEST(BranchAndBoundTest, ClassicKnapsack) {
  // max 60a + 100b + 120c s.t. 10a + 20b + 30c ≤ 50, binary → b + c = 220.
  LpProblem p;
  const VarId a = p.add_binary_variable();
  const VarId b = p.add_binary_variable();
  const VarId c = p.add_binary_variable();
  p.add_constraint(
      LinearExpr().add(a, 10.0).add(b, 20.0).add(c, 30.0),
      Relation::kLessEqual, 50.0);
  p.set_objective(Sense::kMaximize,
                  LinearExpr().add(a, 60.0).add(b, 100.0).add(c, 120.0));

  const MipSolution s = BranchAndBoundSolver().solve(p);
  ASSERT_EQ(s.status, MipStatus::kOptimal);
  EXPECT_NEAR(s.objective, 220.0, kTol);
  EXPECT_NEAR(s.values[a], 0.0, kTol);
  EXPECT_NEAR(s.values[b], 1.0, kTol);
  EXPECT_NEAR(s.values[c], 1.0, kTol);
}

TEST(BranchAndBoundTest, InfeasibleIntegerProblem) {
  // 0.4 ≤ x ≤ 0.6 with x integer: LP feasible, MIP infeasible.
  LpProblem p;
  const VarId x = p.add_integer_variable(0.0, 1.0);
  p.add_constraint(LinearExpr().add(x, 1.0), Relation::kGreaterEqual, 0.4);
  p.add_constraint(LinearExpr().add(x, 1.0), Relation::kLessEqual, 0.6);
  p.set_objective(Sense::kMinimize, LinearExpr().add(x, 1.0));

  EXPECT_EQ(BranchAndBoundSolver().solve(p).status, MipStatus::kInfeasible);
}

TEST(BranchAndBoundTest, MixedIntegerContinuous) {
  // min 2x + 3y, x integer, x + y ≥ 3.5, y ≤ 1.2 → x = 3 (y = 0.5 →
  // 2·3 + 3·0.5 = 7.5) vs x = 4 (8.0); but x=3,y=0.5 wins.
  LpProblem p;
  const VarId x = p.add_integer_variable(0.0, 10.0);
  const VarId y = p.add_variable(0.0, 1.2);
  p.add_constraint(LinearExpr().add(x, 1.0).add(y, 1.0),
                   Relation::kGreaterEqual, 3.5);
  p.set_objective(Sense::kMinimize, LinearExpr().add(x, 2.0).add(y, 3.0));

  const MipSolution s = BranchAndBoundSolver().solve(p);
  ASSERT_EQ(s.status, MipStatus::kOptimal);
  EXPECT_NEAR(s.objective, 7.5, kTol);
  EXPECT_NEAR(s.values[x], 3.0, kTol);
  EXPECT_NEAR(s.values[y], 0.5, kTol);
}

TEST(BranchAndBoundTest, WarmIncumbentPrunes) {
  // Same knapsack, seeded with the optimal value: should still report the
  // optimum (from the seed), exploring few nodes.
  LpProblem p;
  const VarId a = p.add_binary_variable();
  const VarId b = p.add_binary_variable();
  const VarId c = p.add_binary_variable();
  p.add_constraint(
      LinearExpr().add(a, 10.0).add(b, 20.0).add(c, 30.0),
      Relation::kLessEqual, 50.0);
  p.set_objective(Sense::kMaximize,
                  LinearExpr().add(a, 60.0).add(b, 100.0).add(c, 120.0));

  MipOptions options;
  options.initial_incumbent_objective = 220.0;
  options.initial_incumbent_values = {0.0, 1.0, 1.0};
  const MipSolution s = BranchAndBoundSolver(options).solve(p);
  ASSERT_EQ(s.status, MipStatus::kOptimal);
  EXPECT_NEAR(s.objective, 220.0, kTol);
}

TEST(BranchAndBoundTest, NodeLimitDegradesGracefully) {
  LpProblem p;
  std::vector<VarId> xs;
  util::Rng rng(99);
  LinearExpr weight;
  LinearExpr value;
  for (int i = 0; i < 20; ++i) {
    const VarId x = p.add_binary_variable();
    xs.push_back(x);
    weight.add(x, rng.uniform(1.0, 10.0));
    value.add(x, rng.uniform(1.0, 10.0));
  }
  p.add_constraint(std::move(weight), Relation::kLessEqual, 40.0);
  p.set_objective(Sense::kMaximize, std::move(value));

  MipOptions options;
  options.max_nodes = 3;
  const MipSolution s = BranchAndBoundSolver(options).solve(p);
  // With 3 nodes we may or may not find an incumbent, but we must not claim
  // optimality unless the gap is truly closed.
  if (s.status == MipStatus::kOptimal) {
    EXPECT_LE(s.objective, s.best_bound + 1e-6);
  } else {
    EXPECT_TRUE(s.status == MipStatus::kFeasible ||
                s.status == MipStatus::kNoSolution);
  }
}

// Property sweep: random small knapsacks, branch-and-bound vs exhaustive
// enumeration.
class MipKnapsackTest : public ::testing::TestWithParam<int> {};

TEST_P(MipKnapsackTest, MatchesExhaustiveEnumeration) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  const int n = static_cast<int>(rng.uniform_int(3, 10));
  std::vector<double> w(static_cast<std::size_t>(n));
  std::vector<double> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    w[static_cast<std::size_t>(i)] = rng.uniform(1.0, 9.0);
    v[static_cast<std::size_t>(i)] = rng.uniform(0.5, 9.5);
  }
  const double budget = rng.uniform(5.0, 4.0 * n);

  LpProblem p;
  LinearExpr weight;
  LinearExpr value;
  for (int i = 0; i < n; ++i) {
    p.add_binary_variable();
    weight.add(i, w[static_cast<std::size_t>(i)]);
    value.add(i, v[static_cast<std::size_t>(i)]);
  }
  p.add_constraint(std::move(weight), Relation::kLessEqual, budget);
  p.set_objective(Sense::kMaximize, std::move(value));

  double best = 0.0;
  for (int mask = 0; mask < (1 << n); ++mask) {
    double tw = 0.0;
    double tv = 0.0;
    for (int i = 0; i < n; ++i) {
      if ((mask >> i) & 1) {
        tw += w[static_cast<std::size_t>(i)];
        tv += v[static_cast<std::size_t>(i)];
      }
    }
    if (tw <= budget) best = std::max(best, tv);
  }

  const MipSolution s = BranchAndBoundSolver().solve(p);
  ASSERT_EQ(s.status, MipStatus::kOptimal);
  EXPECT_NEAR(s.objective, best, 1e-5);
  EXPECT_TRUE(p.is_feasible(s.values, 1e-6));
}

INSTANTIATE_TEST_SUITE_P(RandomKnapsacks, MipKnapsackTest,
                         ::testing::Range(0, 20));

// A node whose LP stops at the simplex iteration limit is dropped
// unsearched, so its bound must still cap best_bound. Klee–Minty rows make
// the z = 0 child's LP run past the limit; that subtree holds the point
// z = u = y = 0, x_16 = 5^16 (objective −5^16), while the z = 1 subtree's
// best is 0. Counting only the searched nodes, the solver would claim 0 is
// optimal.
TEST(BranchAndBoundTest, IterationLimitNodeKeepsItsBound) {
  constexpr int kDim = 16;
  constexpr double kBig = -1e16;
  LpProblem p;
  std::vector<VarId> x;
  for (int j = 0; j < kDim; ++j) x.push_back(p.add_variable());
  const VarId z = p.add_binary_variable();
  const VarId u = p.add_variable(0.0, 1.0);
  const VarId y = p.add_binary_variable();
  // Σ_{j<i} 2^{i−j+1} x_j + x_i ≤ 5^i for i = 1..16 (1-based).
  for (int i = 1; i <= kDim; ++i) {
    LinearExpr row;
    for (int j = 1; j < i; ++j) row.add(x[j - 1], std::ldexp(1.0, i - j + 1));
    row.add(x[i - 1], 1.0);
    p.add_constraint(std::move(row), Relation::kLessEqual, std::pow(5.0, i));
  }
  LinearExpr link = LinearExpr().add(z, 2.0).add(u, -1.0);
  const double eps = 4.0 / std::pow(5.0, kDim + 1);
  for (VarId xj : x) link.add(xj, eps);
  p.add_constraint(std::move(link), Relation::kLessEqual, 1.0);
  p.add_constraint(LinearExpr().add(y, 1.0).add(z, -0.5),
                   Relation::kGreaterEqual, 0.0);
  LinearExpr objective = LinearExpr().add(z, kBig).add(u, -kBig);
  for (int j = 1; j <= kDim; ++j) {
    objective.add(x[j - 1], -std::ldexp(1.0, kDim - j));
  }
  p.set_objective(Sense::kMinimize, std::move(objective));

  std::vector<double> witness(static_cast<std::size_t>(p.num_variables()),
                              0.0);
  witness[static_cast<std::size_t>(x[kDim - 1])] = std::pow(5.0, kDim);
  ASSERT_TRUE(p.is_feasible(witness));
  const double witness_value = p.objective_value(witness);

  const MipSolution s = BranchAndBoundSolver().solve(p);
  ASSERT_EQ(s.status, MipStatus::kFeasible);
  EXPECT_GT(s.objective, witness_value);  // the incumbent misses the witness
  EXPECT_LE(s.best_bound, witness_value);
}

// Random small set-cover style MILPs with equality couplings, vs
// enumeration — exercises ≥ and = rows through the MIP path.
class MipSetCoverTest : public ::testing::TestWithParam<int> {};

TEST_P(MipSetCoverTest, MatchesExhaustiveEnumeration) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 11);
  const int sets = static_cast<int>(rng.uniform_int(3, 8));
  const int elements = static_cast<int>(rng.uniform_int(2, 6));

  // Random coverage matrix; guarantee every element is coverable.
  std::vector<std::vector<int>> covers(
      static_cast<std::size_t>(elements));
  for (int e = 0; e < elements; ++e) {
    for (int s = 0; s < sets; ++s) {
      if (rng.bernoulli(0.4)) {
        covers[static_cast<std::size_t>(e)].push_back(s);
      }
    }
    if (covers[static_cast<std::size_t>(e)].empty()) {
      covers[static_cast<std::size_t>(e)].push_back(
          static_cast<int>(rng.bounded(static_cast<std::uint64_t>(sets))));
    }
  }
  std::vector<double> cost(static_cast<std::size_t>(sets));
  for (int s = 0; s < sets; ++s) {
    cost[static_cast<std::size_t>(s)] = rng.uniform(1.0, 5.0);
  }

  LpProblem p;
  for (int s = 0; s < sets; ++s) p.add_binary_variable();
  for (int e = 0; e < elements; ++e) {
    LinearExpr expr;
    for (int s : covers[static_cast<std::size_t>(e)]) expr.add(s, 1.0);
    p.add_constraint(std::move(expr), Relation::kGreaterEqual, 1.0);
  }
  LinearExpr obj;
  for (int s = 0; s < sets; ++s) obj.add(s, cost[static_cast<std::size_t>(s)]);
  p.set_objective(Sense::kMinimize, std::move(obj));

  double best = lp::kInfinity;
  for (int mask = 0; mask < (1 << sets); ++mask) {
    bool ok = true;
    for (int e = 0; e < elements && ok; ++e) {
      bool covered = false;
      for (int s : covers[static_cast<std::size_t>(e)]) {
        if ((mask >> s) & 1) covered = true;
      }
      ok = covered;
    }
    if (!ok) continue;
    double total = 0.0;
    for (int s = 0; s < sets; ++s) {
      if ((mask >> s) & 1) total += cost[static_cast<std::size_t>(s)];
    }
    best = std::min(best, total);
  }

  const MipSolution s = BranchAndBoundSolver().solve(p);
  ASSERT_EQ(s.status, MipStatus::kOptimal);
  EXPECT_NEAR(s.objective, best, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(RandomSetCovers, MipSetCoverTest,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace faircache::mip
