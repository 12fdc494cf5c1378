#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "common/exec_control.h"
#include "common/rng.h"
#include "lp/branch_and_bound.h"

namespace provview {
namespace {

TEST(BnbTest, PureLpWhenNoIntegerVars) {
  LinearProgram lp;
  int x = lp.AddVariable(0, 10.0, 1.0);
  lp.AddConstraint({{x, 2.0}}, ConstraintSense::kGe, 3.0);
  BnbResult r = SolveIlp(lp, {});
  ASSERT_TRUE(r.status.ok());
  EXPECT_NEAR(r.objective, 1.5, 1e-7);
}

TEST(BnbTest, RoundsUpWhenIntegral) {
  // min x s.t. 2x >= 3, x integer → x = 2.
  LinearProgram lp;
  int x = lp.AddVariable(0, 10.0, 1.0);
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

// A seeded random binary covering ILP: 8 variables costing 1–10, 6 rows
// each covering 2–4 of them.
struct RandomCover {
  LinearProgram lp;
  std::vector<int> vars;
  std::vector<double> cost;
  std::vector<std::vector<int>> rows;
};

RandomCover MakeRandomCover(int seed) {
  RandomCover c;
  Rng rng(static_cast<uint64_t>(seed) * 5 + 1);
  const int n = 8;
  c.cost.resize(n);
  for (auto& cost : c.cost) cost = 1.0 + rng.NextDouble() * 9.0;
  const int m = 6;
  c.rows.resize(m);
  for (auto& row : c.rows) {
    int size = 2 + static_cast<int>(rng.NextBelow(3));
    row = rng.SampleWithoutReplacement(n, size);
  }
  for (int i = 0; i < n; ++i) {
    c.vars.push_back(c.lp.AddUnitVariable(c.cost[static_cast<size_t>(i)]));
  }
  for (const auto& row : c.rows) {
    std::vector<std::pair<int, double>> terms;
    for (int i : row) terms.emplace_back(c.vars[static_cast<size_t>(i)], 1.0);
    c.lp.AddConstraint(terms, ConstraintSense::kGe, 1.0);
  }
  return c;
}

void ExpectSameResult(const BnbResult& a, const BnbResult& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.lower_bound, b.lower_bound);
  EXPECT_EQ(a.gap, b.gap);
  EXPECT_EQ(a.nodes_explored, b.nodes_explored);
  EXPECT_EQ(a.lp_solves, b.lp_solves);
  EXPECT_EQ(a.lp_iterations, b.lp_iterations);
  EXPECT_EQ(a.oracle_fathoms, b.oracle_fathoms);
}

// Property: on random binary covering ILPs, branch-and-bound matches
// exhaustive enumeration — sequentially, and with four workers re-solving
// the shared root tableau concurrently (four nodes per wave).
class BnbRandomTest : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  BnbOptions Options() const {
    BnbOptions opts;
    if (std::get<1>(GetParam()) > 1) {
      opts.num_threads = std::get<1>(GetParam());
      opts.wave_width = 4;
    }
    return opts;
  }
};

TEST_P(BnbRandomTest, MatchesExhaustiveOptimum) {
  const RandomCover c = MakeRandomCover(std::get<0>(GetParam()));
  const int n = static_cast<int>(c.vars.size());
  BnbResult r = SolveIlp(c.lp, c.vars, Options());
  ASSERT_TRUE(r.status.ok());

  double best = 1e18;
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    bool ok = true;
    for (const auto& row : c.rows) {
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
      if ((mask >> i) & 1u) total += c.cost[static_cast<size_t>(i)];
    }
    best = std::min(best, total);
  }
  EXPECT_NEAR(r.objective, best, 1e-6);
}

TEST_P(BnbRandomTest, GivenRootMatchesOwnRoot) {
  // Handing SolveIlp the root it would have solved itself changes no field
  // of the result, the root's share of the accounting included.
  const RandomCover c = MakeRandomCover(std::get<0>(GetParam()));
  const BnbOptions opts = Options();
  const BnbResult own = SolveIlp(c.lp, c.vars, opts);
  const SolvedLp root(c.lp);
  ExpectSameResult(SolveIlp(c.lp, c.vars, root, opts), own);
  // The root is only read: a second solve over it agrees as well.
  ExpectSameResult(SolveIlp(c.lp, c.vars, root, opts), own);

  // An oracle that settles the root box leaves the root's LP step unrun:
  // neither overload counts a solve or an iteration for it.
  BnbOptions settled = opts;
  settled.oracle = [&own](const std::vector<double>&,
                          const std::vector<double>&) {
    BnbNodeCut cut;
    cut.resolved = true;
    cut.x = own.x;
    cut.objective = own.objective;
    return cut;
  };
  const BnbResult by_oracle = SolveIlp(c.lp, c.vars, settled);
  EXPECT_EQ(by_oracle.lp_solves, 0);
  EXPECT_EQ(by_oracle.lp_iterations, 0);
  EXPECT_EQ(by_oracle.oracle_fathoms, 1);
  ExpectSameResult(SolveIlp(c.lp, c.vars, root, settled), by_oracle);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BnbRandomTest,
                         ::testing::Combine(::testing::Range(0, 10),
                                            ::testing::Values(1, 4)));

TEST(BnbTest, NonOkRootIsTypedErrorWithIncumbentAndGap) {
  // A root stopped short of optimality — by a tripped control, or by its
  // iteration budget — comes back as that typed status, carrying the
  // caller's incumbent and the gap, not as an abort.
  const RandomCover c = MakeRandomCover(3);
  double all_costs = 0.0;
  for (double cost : c.cost) all_costs += cost;  // hiding all is feasible
  ExecControl cancelled;
  cancelled.Cancel();
  SimplexOptions tripped;
  tripped.control = &cancelled;
  SimplexOptions starved;
  starved.max_iterations = 1;
  for (const SimplexOptions& simplex : {tripped, starved}) {
    const SolvedLp root(c.lp, simplex);
    ASSERT_FALSE(root.solution().status.ok());
    ASSERT_NE(root.solution().status.code(), StatusCode::kInfeasible);
    BnbOptions opts;
    opts.warm_objective = all_costs;
    const BnbResult r = SolveIlp(c.lp, c.vars, root, opts);
    EXPECT_EQ(r.status.code(), root.solution().status.code());
    EXPECT_TRUE(r.x.empty());
    EXPECT_EQ(r.objective, all_costs);
    EXPECT_EQ(r.nodes_explored, 1);
    EXPECT_EQ(r.lp_solves, 1);
    // Nothing below the root was explored, so no bound beats -inf.
    EXPECT_EQ(r.lower_bound, -std::numeric_limits<double>::infinity());
    EXPECT_EQ(r.gap, std::numeric_limits<double>::infinity());
  }
}

}  // namespace
}  // namespace provview
