#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "lp/simplex.h"

namespace provview {
namespace {

TEST(SimplexTest, TrivialTwoVariableLp) {
  // min x + y  s.t.  x + 2y >= 4, 3x + y >= 6, x,y in [0, 10].
  // Optimum at intersection: x = 8/5, y = 6/5, objective 14/5.
  LinearProgram lp;
  int x = lp.AddVariable(0, 10.0, 1.0);
  int y = lp.AddVariable(0, 10.0, 1.0);
  lp.AddConstraint({{x, 1.0}, {y, 2.0}}, ConstraintSense::kGe, 4.0);
  lp.AddConstraint({{x, 3.0}, {y, 1.0}}, ConstraintSense::kGe, 6.0);
  LpSolution s = SolveLp(lp);
  ASSERT_TRUE(s.status.ok()) << s.status;
  EXPECT_NEAR(s.objective, 14.0 / 5.0, 1e-7);
  EXPECT_NEAR(s.x[static_cast<size_t>(x)], 1.6, 1e-7);
  EXPECT_NEAR(s.x[static_cast<size_t>(y)], 1.2, 1e-7);
  EXPECT_LT(lp.MaxViolation(s.x), 1e-7);
}

TEST(SimplexTest, MaximizationViaNegatedCosts) {
  // max 3x + 2y s.t. x + y <= 4, x <= 2, x,y in [0, 10]  ⇔  min -3x - 2y.
  LinearProgram lp;
  int x = lp.AddVariable(0, 10.0, -3.0);
  int y = lp.AddVariable(0, 10.0, -2.0);
  lp.AddConstraint({{x, 1.0}, {y, 1.0}}, ConstraintSense::kLe, 4.0);
  lp.AddConstraint({{x, 1.0}}, ConstraintSense::kLe, 2.0);
  LpSolution s = SolveLp(lp);
  ASSERT_TRUE(s.status.ok());
  EXPECT_NEAR(s.objective, -10.0, 1e-7);  // x=2, y=2
}

TEST(SimplexTest, EqualityConstraints) {
  // min 2x + 3y s.t. x + y = 5, x - y = 1 → x=3, y=2, obj 12.
  LinearProgram lp;
  int x = lp.AddVariable(0, 10.0, 2.0);
  int y = lp.AddVariable(0, 10.0, 3.0);
  lp.AddConstraint({{x, 1.0}, {y, 1.0}}, ConstraintSense::kEq, 5.0);
  lp.AddConstraint({{x, 1.0}, {y, -1.0}}, ConstraintSense::kEq, 1.0);
  LpSolution s = SolveLp(lp);
  ASSERT_TRUE(s.status.ok());
  EXPECT_NEAR(s.objective, 12.0, 1e-7);
  EXPECT_NEAR(s.x[static_cast<size_t>(x)], 3.0, 1e-7);
}

TEST(SimplexTest, DetectsInfeasibility) {
  LinearProgram lp;
  int x = lp.AddVariable(0, 10.0, 1.0);
  lp.AddConstraint({{x, 1.0}}, ConstraintSense::kLe, 1.0);
  lp.AddConstraint({{x, 1.0}}, ConstraintSense::kGe, 2.0);
  EXPECT_EQ(SolveLp(lp).status.code(), StatusCode::kInfeasible);
}

TEST(SimplexTest, ColdStartSitsAtCostPreferredBounds) {
  // With no rows, the starting basis is optimal: every variable sits at
  // the bound its cost prefers, and the solve takes no pivot.
  LinearProgram lp;
  int x = lp.AddVariable(0, 3.0, -1.0);
  int y = lp.AddVariable(1.0, 4.0, 2.0);
  LpSolution s = SolveLp(lp);
  ASSERT_TRUE(s.status.ok()) << s.status;
  EXPECT_EQ(s.iterations, 0);
  EXPECT_EQ(s.x[static_cast<size_t>(x)], 3.0);
  EXPECT_EQ(s.x[static_cast<size_t>(y)], 1.0);
  EXPECT_EQ(s.objective, -1.0);
}

TEST(LinearProgramDeathTest, RejectsNonFiniteUpperBounds) {
  const double inf = std::numeric_limits<double>::infinity();
  LinearProgram lp;
  EXPECT_DEATH(lp.AddVariable(0.0, inf, 1.0), "upper bound must be finite");
  const int x = lp.AddVariable(0.0, 1.0, 1.0);
  EXPECT_DEATH(lp.SetVarBounds(x, 0.0, inf), "upper bound must be finite");
  EXPECT_DEATH(lp.SetVarBounds(x, 0.0, std::nan("")),
               "upper bound must be finite");
}

TEST(SimplexTest, RespectsUpperBounds) {
  // min -x with x in [0, 3].
  LinearProgram lp;
  int x = lp.AddVariable(0, 3.0, -1.0);
  LpSolution s = SolveLp(lp);
  ASSERT_TRUE(s.status.ok());
  EXPECT_NEAR(s.x[static_cast<size_t>(x)], 3.0, 1e-7);
}

TEST(SimplexTest, RespectsNonZeroLowerBounds) {
  // min x + y with x in [2, 10], y in [1, 10], x + y >= 5.
  LinearProgram lp;
  int x = lp.AddVariable(2.0, 10.0, 1.0);
  int y = lp.AddVariable(1.0, 10.0, 1.0);
  lp.AddConstraint({{x, 1.0}, {y, 1.0}}, ConstraintSense::kGe, 5.0);
  LpSolution s = SolveLp(lp);
  ASSERT_TRUE(s.status.ok());
  EXPECT_NEAR(s.objective, 5.0, 1e-7);
  EXPECT_GE(s.x[static_cast<size_t>(x)], 2.0 - 1e-9);
  EXPECT_GE(s.x[static_cast<size_t>(y)], 1.0 - 1e-9);
}

TEST(SimplexTest, NegativeRhsNormalization) {
  // x - y <= -1 with min x (x,y in [0,5]): x can be 0 with y >= 1.
  LinearProgram lp;
  int x = lp.AddVariable(0, 5.0, 1.0);
  int y = lp.AddVariable(0, 5.0, 0.0);
  lp.AddConstraint({{x, 1.0}, {y, -1.0}}, ConstraintSense::kLe, -1.0);
  LpSolution s = SolveLp(lp);
  ASSERT_TRUE(s.status.ok());
  EXPECT_NEAR(s.objective, 0.0, 1e-7);
  EXPECT_GE(s.x[static_cast<size_t>(y)], 1.0 - 1e-7);
}

TEST(SimplexTest, DegenerateLpTerminates) {
  // Multiple redundant constraints through the same vertex.
  LinearProgram lp;
  int x = lp.AddVariable(0, 10.0, 1.0);
  int y = lp.AddVariable(0, 10.0, 1.0);
  for (int i = 0; i < 6; ++i) {
    lp.AddConstraint({{x, 1.0 + i}, {y, 1.0}}, ConstraintSense::kGe, 1.0);
  }
  LpSolution s = SolveLp(lp);
  ASSERT_TRUE(s.status.ok());
  EXPECT_LT(lp.MaxViolation(s.x), 1e-7);
}

TEST(SimplexTest, DuplicateTermsAccumulate) {
  // x appearing twice in a constraint: 2x >= 4 effectively.
  LinearProgram lp;
  int x = lp.AddVariable(0, 10.0, 1.0);
  lp.AddConstraint({{x, 1.0}, {x, 1.0}}, ConstraintSense::kGe, 4.0);
  LpSolution s = SolveLp(lp);
  ASSERT_TRUE(s.status.ok());
  EXPECT_NEAR(s.x[static_cast<size_t>(x)], 2.0, 1e-7);
}

TEST(SimplexTest, ObjectiveAndViolationHelpers) {
  LinearProgram lp;
  int x = lp.AddVariable(0, 1.0, 2.0);
  lp.AddConstraint({{x, 1.0}}, ConstraintSense::kGe, 0.5);
  EXPECT_DOUBLE_EQ(lp.Objective({0.5}), 1.0);
  EXPECT_NEAR(lp.MaxViolation({0.25}), 0.25, 1e-12);
  EXPECT_NEAR(lp.MaxViolation({2.0}), 1.0, 1e-12);  // ub violated by 1
}

// Random LPs: simplex solutions must always be feasible, and adding a
// redundant constraint must not change the optimum.
class RandomLpTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomLpTest, FeasibleAndStableUnderRedundancy) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 997 + 3);
  LinearProgram lp;
  const int n = 4 + static_cast<int>(rng.NextBelow(5));
  for (int v = 0; v < n; ++v) {
    lp.AddVariable(0.0, 1.0, 0.5 + rng.NextDouble() * 4.0);
  }
  const int m = 3 + static_cast<int>(rng.NextBelow(6));
  for (int c = 0; c < m; ++c) {
    std::vector<std::pair<int, double>> terms;
    for (int v = 0; v < n; ++v) {
      if (rng.NextBernoulli(0.6)) {
        terms.emplace_back(v, 0.5 + rng.NextDouble());
      }
    }
    if (terms.empty()) terms.emplace_back(0, 1.0);
    // rhs small enough to keep the instance feasible under x <= 1.
    lp.AddConstraint(terms, ConstraintSense::kGe,
                     0.3 * static_cast<double>(terms.size()) * 0.5);
  }
  LpSolution s = SolveLp(lp);
  ASSERT_TRUE(s.status.ok()) << s.status;
  EXPECT_LT(lp.MaxViolation(s.x), 1e-6);
  // A dominated constraint must not move the optimum.
  lp.AddConstraint({{0, 1.0}}, ConstraintSense::kGe, -1.0);
  LpSolution s2 = SolveLp(lp);
  ASSERT_TRUE(s2.status.ok());
  EXPECT_NEAR(s.objective, s2.objective, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLpTest, ::testing::Range(0, 10));

// ---------------------------------------------------------------------
// An independent oracle: brute-force vertex enumeration on tiny boxed LPs.
// Every variable is boxed, so a feasible LP is a polytope and its minimum
// sits at a vertex: a point where n of the row and bound hyperplanes meet.
// ---------------------------------------------------------------------
struct OracleResult {
  bool feasible = false;
  double objective = std::numeric_limits<double>::infinity();
};

// Solves the n x n system a·x = b in place (partial pivoting); false when
// it is singular.
bool SolveSquare(std::vector<std::vector<double>> a, std::vector<double> b,
                 std::vector<double>* x) {
  const size_t n = b.size();
  for (size_t col = 0; col < n; ++col) {
    size_t piv = col;
    for (size_t r = col + 1; r < n; ++r) {
      if (std::abs(a[r][col]) > std::abs(a[piv][col])) piv = r;
    }
    if (std::abs(a[piv][col]) < 1e-9) return false;
    std::swap(a[piv], a[col]);
    std::swap(b[piv], b[col]);
    for (size_t r = 0; r < n; ++r) {
      if (r == col) continue;
      const double f = a[r][col] / a[col][col];
      for (size_t k = col; k < n; ++k) a[r][k] -= f * a[col][k];
      b[r] -= f * b[col];
    }
  }
  x->assign(n, 0.0);
  for (size_t i = 0; i < n; ++i) (*x)[i] = b[i] / a[i][i];
  return true;
}

OracleResult EnumerateVertices(const LinearProgram& lp) {
  const int n = lp.num_vars();
  // Hyperplanes: every row as an equality, then x_v = lb_v and x_v = ub_v.
  std::vector<std::vector<double>> planes;
  std::vector<double> rhs;
  for (const LpConstraint& c : lp.constraints()) {
    std::vector<double> coeffs(static_cast<size_t>(n), 0.0);
    for (const auto& [var, coeff] : c.terms) {
      coeffs[static_cast<size_t>(var)] += coeff;
    }
    planes.push_back(coeffs);
    rhs.push_back(c.rhs);
  }
  for (int v = 0; v < n; ++v) {
    std::vector<double> unit(static_cast<size_t>(n), 0.0);
    unit[static_cast<size_t>(v)] = 1.0;
    planes.push_back(unit);
    rhs.push_back(lp.lower_bound(v));
    planes.push_back(unit);
    rhs.push_back(lp.upper_bound(v));
  }
  OracleResult best;
  const int k = static_cast<int>(planes.size());
  std::vector<int> pick(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) pick[static_cast<size_t>(i)] = i;
  while (true) {
    std::vector<std::vector<double>> a;
    std::vector<double> b;
    for (int p : pick) {
      a.push_back(planes[static_cast<size_t>(p)]);
      b.push_back(rhs[static_cast<size_t>(p)]);
    }
    std::vector<double> x;
    if (SolveSquare(a, b, &x) && lp.MaxViolation(x) <= 1e-9) {
      best.feasible = true;
      best.objective = std::min(best.objective, lp.Objective(x));
    }
    // Next n-subset of [0, k) in lexicographic order.
    int i = n - 1;
    while (i >= 0 && pick[static_cast<size_t>(i)] == k - n + i) --i;
    if (i < 0) break;
    ++pick[static_cast<size_t>(i)];
    for (int j = i + 1; j < n; ++j) {
      pick[static_cast<size_t>(j)] = pick[static_cast<size_t>(j - 1)] + 1;
    }
  }
  return best;
}

// n <= 4 boxed variables (some with nonzero lower bounds, some fixed) and
// <= 5 rows of mixed sense with small integer data, so degenerate vertices
// and ties are common.
LinearProgram TinyBoxedLp(Rng* rng) {
  LinearProgram lp;
  const int n = 1 + static_cast<int>(rng->NextBelow(4));
  for (int v = 0; v < n; ++v) {
    const double lb = static_cast<double>(rng->NextInt(-2, 2));
    const double ub = rng->NextBernoulli(0.2)
                          ? lb
                          : lb + static_cast<double>(rng->NextInt(1, 3));
    lp.AddVariable(lb, ub, static_cast<double>(rng->NextInt(-3, 3)));
  }
  const int m = static_cast<int>(rng->NextBelow(6));
  for (int c = 0; c < m; ++c) {
    std::vector<std::pair<int, double>> terms;
    for (int v = 0; v < n; ++v) {
      const int64_t coeff = rng->NextInt(-3, 3);
      if (coeff != 0) terms.emplace_back(v, static_cast<double>(coeff));
    }
    const uint64_t sense = rng->NextBelow(5);
    lp.AddConstraint(terms,
                     sense < 2   ? ConstraintSense::kLe
                     : sense < 4 ? ConstraintSense::kGe
                                 : ConstraintSense::kEq,
                     static_cast<double>(rng->NextInt(-4, 4)));
  }
  return lp;
}

// Checks `s` against the oracle; returns whether the LP is feasible.
bool ExpectMatchesOracle(const LinearProgram& lp, const LpSolution& s,
                         const std::string& what) {
  const OracleResult oracle = EnumerateVertices(lp);
  if (!oracle.feasible) {
    EXPECT_EQ(s.status.code(), StatusCode::kInfeasible) << what << s.status;
    return false;
  }
  EXPECT_TRUE(s.status.ok()) << what << s.status;
  if (!s.status.ok()) return true;
  EXPECT_NEAR(s.objective, oracle.objective, 1e-7) << what;
  EXPECT_NEAR(lp.Objective(s.x), s.objective, 1e-9) << what;
  EXPECT_LE(lp.MaxViolation(s.x), 1e-7) << what;
  return true;
}

std::vector<double> LowerBounds(const LinearProgram& lp) {
  std::vector<double> lb;
  for (int v = 0; v < lp.num_vars(); ++v) lb.push_back(lp.lower_bound(v));
  return lb;
}

std::vector<double> UpperBounds(const LinearProgram& lp) {
  std::vector<double> ub;
  for (int v = 0; v < lp.num_vars(); ++v) ub.push_back(lp.upper_bound(v));
  return ub;
}

// A random sub-box of [lo, hi]: each variable keeps its range, raises its
// lower bound or lowers its upper bound (either may empty the box), or is
// fixed somewhere in the range.
void RandomSubBox(const std::vector<double>& lo, const std::vector<double>& hi,
                  Rng* rng, std::vector<double>* lb, std::vector<double>* ub) {
  *lb = lo;
  *ub = hi;
  for (size_t v = 0; v < lo.size(); ++v) {
    double& l = (*lb)[v];
    double& h = (*ub)[v];
    const uint64_t kind = rng->NextBelow(4);
    if (kind == 1) l += static_cast<double>(rng->NextInt(0, 3));
    if (kind == 2) h -= static_cast<double>(rng->NextInt(0, 3));
    if (kind == 3) {
      l = h = l + static_cast<double>(
                      rng->NextInt(0, static_cast<int64_t>(h - l)));
    }
  }
}

// `lp` with every variable v boxed to [lb[v], ub[v]] (lb > ub: empty).
LinearProgram Boxed(const LinearProgram& lp, const std::vector<double>& lb,
                    const std::vector<double>& ub) {
  LinearProgram tight = lp;
  for (int v = 0; v < lp.num_vars(); ++v) {
    tight.SetVarBounds(v, lb[static_cast<size_t>(v)],
                       ub[static_cast<size_t>(v)]);
  }
  return tight;
}

// Two solves agree exactly: status, pivots and point.
void ExpectSameSolution(const LpSolution& a, const LpSolution& b,
                        const std::string& what) {
  EXPECT_EQ(a.status.code(), b.status.code()) << what;
  EXPECT_EQ(a.iterations, b.iterations) << what;
  EXPECT_EQ(a.x, b.x) << what;
  EXPECT_EQ(a.objective, b.objective) << what;
}

// Parameters: a seed, and whether Bland's rule is on from the first pivot
// (bland_threshold 0), the only anti-cycling guarantee on degenerate LPs.
class VertexOracleTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {
 protected:
  int Seed() const { return std::get<0>(GetParam()); }
  SimplexOptions Options() const {
    SimplexOptions opt;
    if (std::get<1>(GetParam())) opt.bland_threshold = 0;
    return opt;
  }

  // Checks a re-solve under `tight`'s box against a cold solve of `tight`
  // and against the oracle; returns whether the box is feasible.
  bool ExpectMatchesColdSolve(const LinearProgram& tight, const LpSolution& re,
                              const std::string& what) const {
    const LpSolution cold = SolveLp(tight, Options());
    EXPECT_EQ(re.status.code(), cold.status.code()) << what;
    if (re.status.ok() && cold.status.ok()) {
      EXPECT_NEAR(re.objective, cold.objective, 1e-7) << what;
    }
    return ExpectMatchesOracle(tight, re, what);
  }
};

TEST_P(VertexOracleTest, ColdSolveMatchesVertexEnumeration) {
  Rng rng(static_cast<uint64_t>(Seed()) * 7919 + 11);
  int feasible = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const LinearProgram lp = TinyBoxedLp(&rng);
    feasible += ExpectMatchesOracle(lp, SolveLp(lp, Options()),
                                    "trial " + std::to_string(trial));
  }
  // The family exercises both outcomes.
  EXPECT_GT(feasible, 0);
  EXPECT_LT(feasible, 50);
}

// Dual re-solves of one solved state under random tightened boxes (empty
// and infeasible ones included) agree with a cold solve of the tightened
// LP and with the oracle, and never disturb the state they start from.
// Each re-solved state is re-solved in turn, into a second buffer, under a
// sub-box of its own: that one starts from the first one's eta file.
TEST_P(VertexOracleTest, ResolveMatchesColdSolveAndOracle) {
  Rng rng(static_cast<uint64_t>(Seed()) * 104729 + 5);
  Rng sub_rng(static_cast<uint64_t>(Seed()) * 15485863 + 7);
  int resolved = 0;
  int feasible = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const LinearProgram lp = TinyBoxedLp(&rng);
    const SolvedLp solved(lp, Options());
    if (!solved.solution().status.ok()) continue;
    SolvedLp work;
    SolvedLp work2;
    for (int box = 0; box < 6; ++box) {
      std::vector<double> lb, ub;
      RandomSubBox(LowerBounds(lp), UpperBounds(lp), &rng, &lb, &ub);
      const std::string what =
          "trial " + std::to_string(trial) + " box " + std::to_string(box);
      const LpSolution& re = ResolveLp(solved, lb, ub, Options(), &work);
      feasible += ExpectMatchesColdSolve(Boxed(lp, lb, ub), re, what);
      ++resolved;
      if (!re.status.ok()) continue;
      std::vector<double> lb2, ub2;
      RandomSubBox(lb, ub, &sub_rng, &lb2, &ub2);
      ExpectMatchesColdSolve(Boxed(lp, lb2, ub2),
                             ResolveLp(work, lb2, ub2, Options(), &work2),
                             what + " sub-box");
    }
    // The root state is read-only: it re-solves to its own optimum.
    const LpSolution& again = ResolveLp(solved, LowerBounds(lp),
                                        UpperBounds(lp), Options(), &work);
    ASSERT_TRUE(again.status.ok());
    EXPECT_EQ(again.iterations, 0);
    EXPECT_NEAR(again.objective, solved.solution().objective, 1e-9);
  }
  EXPECT_GT(feasible, 0);
  EXPECT_LT(feasible, resolved);
}

// Re-solving a state in place, ResolveLp(work, ..., &work), equals
// re-solving it into another buffer: the same solution, and a state that
// re-solves the same way again.
TEST_P(VertexOracleTest, AliasedResolveEqualsResolvingACopy) {
  Rng rng(static_cast<uint64_t>(Seed()) * 7727 + 2);
  int aliased = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const LinearProgram lp = TinyBoxedLp(&rng);
    const SolvedLp solved(lp, Options());
    if (!solved.solution().status.ok()) continue;
    std::vector<double> lb, ub, lb2, ub2, lb3, ub3;
    RandomSubBox(LowerBounds(lp), UpperBounds(lp), &rng, &lb, &ub);
    SolvedLp work;
    if (!ResolveLp(solved, lb, ub, Options(), &work).status.ok()) continue;
    RandomSubBox(lb, ub, &rng, &lb2, &ub2);
    const std::string what = "trial " + std::to_string(trial);
    SolvedLp copy;
    const LpSolution& expected = ResolveLp(work, lb2, ub2, Options(), &copy);
    const LpSolution& in_place = ResolveLp(work, lb2, ub2, Options(), &work);
    ExpectSameSolution(in_place, expected, what);
    ++aliased;
    if (!expected.status.ok()) continue;
    RandomSubBox(lb2, ub2, &rng, &lb3, &ub3);
    SolvedLp a, b;
    ExpectSameSolution(ResolveLp(work, lb3, ub3, Options(), &a),
                       ResolveLp(copy, lb3, ub3, Options(), &b),
                       what + " again");
  }
  EXPECT_GT(aliased, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VertexOracleTest,
                         ::testing::Combine(::testing::Range(0, 20),
                                            ::testing::Bool()));

TEST(ResolveLpTest, RejectsBoxesOutsideTheSolvedBounds) {
  LinearProgram lp;
  lp.AddVariable(0.0, 1.0, 1.0);
  const SolvedLp solved(lp);
  ASSERT_TRUE(solved.solution().status.ok());
  SolvedLp work;
  EXPECT_EQ(ResolveLp(solved, {-1.0}, {1.0}, {}, &work).status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ResolveLp(work, {0.0}, {1.0}, {}, &work).status.code(),
            StatusCode::kInvalidArgument);  // `work` holds no optimal state
}

TEST(ResolveLpTest, TrippedControlSurfacesItsStatus) {
  // min x + 2y, x + y >= 1: x is basic at 1, so capping it at 0.5 needs a
  // dual pivot (y enters at 0.5).
  LinearProgram lp;
  int x = lp.AddVariable(0.0, 2.0, 1.0);
  int y = lp.AddVariable(0.0, 1.0, 2.0);
  lp.AddConstraint({{x, 1.0}, {y, 1.0}}, ConstraintSense::kGe, 1.0);
  const SolvedLp solved(lp);
  ASSERT_TRUE(solved.solution().status.ok());
  ExecControl control;
  control.set_deadline_ms(0);
  SimplexOptions opt;
  opt.control = &control;
  SolvedLp work;
  EXPECT_EQ(ResolveLp(solved, {0.0, 0.0}, {0.5, 1.0}, opt, &work).status.code(),
            StatusCode::kDeadlineExceeded);
  SimplexOptions budget;
  budget.max_iterations = 0;
  EXPECT_EQ(
      ResolveLp(solved, {0.0, 0.0}, {0.5, 1.0}, budget, &work).status.code(),
      StatusCode::kTimeout);
  const LpSolution& ok = ResolveLp(solved, {0.0, 0.0}, {0.5, 1.0}, {}, &work);
  ASSERT_TRUE(ok.status.ok());
  EXPECT_NEAR(ok.objective, 1.5, 1e-9);
  EXPECT_GT(ok.iterations, 0);
}

// A re-solved state shares its root's tableau, so it stays valid and
// re-solvable after the SolvedLp it came from is destroyed.
TEST(ResolveLpTest, WorkOutlivesItsRoot) {
  // min x + 2y + 3z, x + y + z >= 2: x is basic at 2. Capping x at 0.5
  // takes one pivot (y enters at 1.5); capping y at 1 then takes another
  // (z enters at 0.5).
  LinearProgram lp;
  int x = lp.AddVariable(0.0, 2.0, 1.0);
  int y = lp.AddVariable(0.0, 2.0, 2.0);
  int z = lp.AddVariable(0.0, 2.0, 3.0);
  lp.AddConstraint({{x, 1.0}, {y, 1.0}, {z, 1.0}}, ConstraintSense::kGe, 2.0);
  SolvedLp work;
  {
    const SolvedLp root(lp);
    ASSERT_TRUE(root.solution().status.ok());
    const LpSolution& re = ResolveLp(root, {0.0, 0.0, 0.0}, {0.5, 2.0, 2.0},
                                     {}, &work);
    ASSERT_TRUE(re.status.ok());
    EXPECT_NEAR(re.objective, 3.5, 1e-9);
    EXPECT_EQ(re.iterations, 1);
  }
  const std::vector<double> lb = {0.0, 0.0, 0.0};
  const std::vector<double> ub = {0.5, 1.0, 2.0};
  SolvedLp child;
  const LpSolution& re = ResolveLp(work, lb, ub, {}, &child);
  ASSERT_TRUE(re.status.ok());
  EXPECT_EQ(re.iterations, 1);
  EXPECT_NEAR(re.objective, 4.0, 1e-9);
  EXPECT_NEAR(re.objective, SolveLp(Boxed(lp, lb, ub)).objective, 1e-9);
  ExpectSameSolution(ResolveLp(work, lb, ub, {}, &work), re, "in place");
}

// Several threads may re-solve one SolvedLp at once, each into its own
// buffer: every result equals the sequential run's.
TEST(ResolveLpTest, ConcurrentResolvesMatchSequential) {
  Rng rng(17);
  LinearProgram lp;
  const int n = 12;
  for (int v = 0; v < n; ++v) {
    lp.AddVariable(0.0, 1.0, 0.5 + rng.NextDouble() * 4.0);
  }
  for (int c = 0; c < 10; ++c) {
    std::vector<std::pair<int, double>> terms;
    for (int v = 0; v < n; ++v) {
      if (rng.NextBernoulli(0.4)) terms.emplace_back(v, 0.5 + rng.NextDouble());
    }
    if (terms.empty()) terms.emplace_back(c, 1.0);
    lp.AddConstraint(terms, ConstraintSense::kGe,
                     0.3 * static_cast<double>(terms.size()));
  }
  const SolvedLp solved(lp);
  ASSERT_TRUE(solved.solution().status.ok());
  // Boxes that fix one to three variables at 0 or 1.
  constexpr int kThreads = 4;
  constexpr int kBoxes = 40;
  std::vector<std::vector<double>> lbs, ubs;
  for (int b = 0; b < kBoxes; ++b) {
    std::vector<double> lb(n, 0.0), ub(n, 1.0);
    const int fixes = 1 + static_cast<int>(rng.NextBelow(3));
    for (int f = 0; f < fixes; ++f) {
      const size_t v = rng.NextBelow(n);
      lb[v] = ub[v] = rng.NextBernoulli(0.5) ? 1.0 : 0.0;
    }
    lbs.push_back(lb);
    ubs.push_back(ub);
  }
  std::vector<LpSolution> sequential(kBoxes);
  SolvedLp work;
  int pivots = 0;
  for (int b = 0; b < kBoxes; ++b) {
    sequential[static_cast<size_t>(b)] =
        ResolveLp(solved, lbs[static_cast<size_t>(b)],
                  ubs[static_cast<size_t>(b)], {}, &work);
    pivots += sequential[static_cast<size_t>(b)].iterations;
  }
  EXPECT_GT(pivots, 0);
  std::vector<LpSolution> concurrent(kBoxes);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SolvedLp own;
      for (int b = t; b < kBoxes; b += kThreads) {
        concurrent[static_cast<size_t>(b)] =
            ResolveLp(solved, lbs[static_cast<size_t>(b)],
                      ubs[static_cast<size_t>(b)], {}, &own);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int b = 0; b < kBoxes; ++b) {
    ExpectSameSolution(concurrent[static_cast<size_t>(b)],
                       sequential[static_cast<size_t>(b)],
                       "box " + std::to_string(b));
  }
}

}  // namespace
}  // namespace provview
