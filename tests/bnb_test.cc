#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/rng.h"
#include "lp/branch_and_bound.h"

namespace provview {
namespace {

TEST(BnbTest, PureLpWhenNoIntegerVars) {
  LinearProgram lp;
  int x = lp.AddVariable(0, LinearProgram::kInf, 1.0);
  lp.AddConstraint({{x, 2.0}}, ConstraintSense::kGe, 3.0);
  BnbResult r = SolveIlp(lp, {});
  ASSERT_TRUE(r.status.ok());
  EXPECT_NEAR(r.objective, 1.5, 1e-7);
}

TEST(BnbTest, RoundsUpWhenIntegral) {
  // min x s.t. 2x >= 3, x integer → x = 2.
  LinearProgram lp;
  int x = lp.AddVariable(0, LinearProgram::kInf, 1.0);
  lp.AddConstraint({{x, 2.0}}, ConstraintSense::kGe, 3.0);
  BnbResult r = SolveIlp(lp, {x});
  ASSERT_TRUE(r.status.ok());
  EXPECT_NEAR(r.objective, 2.0, 1e-7);
}

TEST(BnbTest, BinaryKnapsackCover) {
  // min Σ c_i x_i with x binary, coverage constraint: classic weighted
  // cover with known optimum. Items cover {0,1,2}; costs 3 (covers all),
  // 1 (covers 0,1), 1.5 (covers 2).
  LinearProgram lp;
  int a = lp.AddUnitVariable(3.0);
  int b = lp.AddUnitVariable(1.0);
  int c = lp.AddUnitVariable(1.5);
  lp.AddConstraint({{a, 1.0}, {b, 1.0}}, ConstraintSense::kGe, 1.0);  // elem 0
  lp.AddConstraint({{a, 1.0}, {b, 1.0}}, ConstraintSense::kGe, 1.0);  // elem 1
  lp.AddConstraint({{a, 1.0}, {c, 1.0}}, ConstraintSense::kGe, 1.0);  // elem 2
  BnbResult r = SolveIlp(lp, {a, b, c});
  ASSERT_TRUE(r.status.ok());
  EXPECT_NEAR(r.objective, 2.5, 1e-7);  // pick b and c
  EXPECT_NEAR(r.x[static_cast<size_t>(b)], 1.0, 1e-7);
  EXPECT_NEAR(r.x[static_cast<size_t>(c)], 1.0, 1e-7);
}

TEST(BnbTest, FractionalLpIntegralGapExample) {
  // Odd cycle vertex cover: LP relaxation gives 1.5, ILP gives 2.
  LinearProgram lp;
  std::vector<int> v;
  for (int i = 0; i < 3; ++i) v.push_back(lp.AddUnitVariable(1.0));
  lp.AddConstraint({{v[0], 1.0}, {v[1], 1.0}}, ConstraintSense::kGe, 1.0);
  lp.AddConstraint({{v[1], 1.0}, {v[2], 1.0}}, ConstraintSense::kGe, 1.0);
  lp.AddConstraint({{v[2], 1.0}, {v[0], 1.0}}, ConstraintSense::kGe, 1.0);
  LpSolution relax = SolveLp(lp);
  ASSERT_TRUE(relax.status.ok());
  EXPECT_NEAR(relax.objective, 1.5, 1e-7);
  BnbResult r = SolveIlp(lp, v);
  ASSERT_TRUE(r.status.ok());
  EXPECT_NEAR(r.objective, 2.0, 1e-7);
}

TEST(BnbTest, InfeasibleIlp) {
  LinearProgram lp;
  int x = lp.AddUnitVariable(1.0);
  lp.AddConstraint({{x, 1.0}}, ConstraintSense::kGe, 2.0);  // x <= 1 < 2
  BnbResult r = SolveIlp(lp, {x});
  EXPECT_EQ(r.status.code(), StatusCode::kInfeasible);
}

TEST(BnbTest, NodeBudgetReportsTimeout) {
  // A moderately hard parity-flavored instance with a 1-node budget.
  LinearProgram lp;
  std::vector<int> vars;
  for (int i = 0; i < 6; ++i) vars.push_back(lp.AddUnitVariable(1.0));
  for (int i = 0; i < 6; ++i) {
    lp.AddConstraint({{vars[static_cast<size_t>(i)], 1.0},
                      {vars[static_cast<size_t>((i + 1) % 6)], 1.0}},
                     ConstraintSense::kGe, 1.0);
  }
  BnbOptions opts;
  opts.max_nodes = 1;
  BnbResult r = SolveIlp(lp, vars, opts);
  EXPECT_TRUE(r.status.code() == StatusCode::kTimeout || r.status.ok());
}

// Property: on random binary covering ILPs, branch-and-bound matches
// exhaustive enumeration — sequentially, and with four workers re-solving
// the shared root tableau concurrently (four nodes per wave).
class BnbRandomTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BnbRandomTest, MatchesExhaustiveOptimum) {
  const auto [seed, threads] = GetParam();
  Rng rng(static_cast<uint64_t>(seed) * 5 + 1);
  const int n = 8;
  std::vector<double> cost(n);
  for (auto& c : cost) c = 1.0 + rng.NextDouble() * 9.0;
  const int m = 6;
  std::vector<std::vector<int>> rows(m);
  for (auto& row : rows) {
    int size = 2 + static_cast<int>(rng.NextBelow(3));
    row = rng.SampleWithoutReplacement(n, size);
  }
  LinearProgram lp;
  std::vector<int> vars;
  for (int i = 0; i < n; ++i) {
    vars.push_back(lp.AddUnitVariable(cost[static_cast<size_t>(i)]));
  }
  for (const auto& row : rows) {
    std::vector<std::pair<int, double>> terms;
    for (int i : row) terms.emplace_back(vars[static_cast<size_t>(i)], 1.0);
    lp.AddConstraint(terms, ConstraintSense::kGe, 1.0);
  }
  BnbOptions opts;
  if (threads > 1) {
    opts.num_threads = threads;
    opts.wave_width = 4;
  }
  BnbResult r = SolveIlp(lp, vars, opts);
  ASSERT_TRUE(r.status.ok());

  double best = 1e18;
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    bool ok = true;
    for (const auto& row : rows) {
      bool covered = false;
      for (int i : row) {
        if ((mask >> i) & 1u) {
          covered = true;
          break;
        }
      }
      if (!covered) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    double total = 0;
    for (int i = 0; i < n; ++i) {
      if ((mask >> i) & 1u) total += cost[static_cast<size_t>(i)];
    }
    best = std::min(best, total);
  }
  EXPECT_NEAR(r.objective, best, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BnbRandomTest,
                         ::testing::Combine(::testing::Range(0, 10),
                                            ::testing::Values(1, 4)));

}  // namespace
}  // namespace provview
