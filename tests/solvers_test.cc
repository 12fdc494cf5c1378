#include <gtest/gtest.h>

#include <cmath>

#include "common/exec_control.h"
#include "common/task_graph.h"
#include "generators/families.h"
#include "generators/requirement_gen.h"
#include "secureview/feasibility.h"
#include "secureview/ilp_encoding.h"
#include "secureview/solvers.h"

namespace provview {
namespace {

SecureViewInstance TinyCardInstance() {
  SecureViewInstance inst;
  inst.kind = ConstraintKind::kCardinality;
  inst.num_attrs = 4;
  inst.attr_cost = {3.0, 1.0, 2.0, 10.0};
  SvModule m0;
  m0.name = "m0";
  m0.inputs = {0, 1};
  m0.outputs = {2};
  m0.card_options = {CardOption{1, 0}, CardOption{0, 1}};
  SvModule m1;
  m1.name = "m1";
  m1.inputs = {2};
  m1.outputs = {3};
  m1.card_options = {CardOption{1, 0}};
  inst.modules = {m0, m1};
  return inst;
}

TEST(ExactSolverTest, FindsSharedAttributeOptimum) {
  // Hiding attr 2 (cost 2) satisfies both m0 (option (0,1)) and m1
  // (option (1,0)); the per-module cheapest would pick attr 1 (cost 1)
  // for m0 plus attr 2 for m1, total 3.
  SecureViewInstance inst = TinyCardInstance();
  SvResult exact = SolveExact(inst);
  ASSERT_TRUE(exact.status.ok());
  EXPECT_NEAR(exact.cost, 2.0, 1e-7);
  EXPECT_TRUE(exact.solution.hidden.Test(2));
  EXPECT_TRUE(IsFeasible(inst, exact.solution));
}

TEST(ExactSolverTest, AgreesWithBruteForceOnTinyInstance) {
  SecureViewInstance inst = TinyCardInstance();
  SvResult bf = SolveBruteForce(inst);
  ASSERT_TRUE(bf.status.ok());
  EXPECT_NEAR(bf.cost, SolveExact(inst).cost, 1e-7);
}

// One module, attributes costing {1, 5}, options {hide a0} and {hide a1}.
SecureViewInstance TwoOptionInstance() {
  SecureViewInstance inst;
  inst.kind = ConstraintKind::kSet;
  inst.num_attrs = 2;
  inst.attr_cost = {1.0, 5.0};
  SvModule m;
  m.name = "m";
  m.inputs = {0};
  m.outputs = {1};
  m.set_options = {SetOption{{0}, {}}, SetOption{{}, {1}}};
  inst.modules = {m};
  return inst;
}

TEST(ExactSolverTest, WarmStartHonorsFixVisible) {
  // Both warm legs pick the cheap option, which hides the pinned a0; it
  // must neither be returned nor bound the search.
  SecureViewInstance inst = TwoOptionInstance();
  for (bool warm : {true, false}) {
    ExactOptions opt;
    opt.warm_start = warm;
    opt.fix_visible = {0};
    SvResult r = SolveExact(inst, opt);
    ASSERT_TRUE(r.status.ok()) << "warm " << warm;
    EXPECT_NEAR(r.cost, 5.0, 1e-9) << "warm " << warm;
    EXPECT_EQ(r.gap, 0.0);
    EXPECT_FALSE(r.solution.hidden.Test(0));
    EXPECT_TRUE(r.solution.hidden.Test(1));
  }
}

TEST(ExactSolverTest, OutOfRangeFixVisibleIsInvalidArgument) {
  SecureViewInstance inst = TwoOptionInstance();
  for (int bad : {-1, 2}) {
    ExactOptions opt;
    opt.fix_visible = {0, bad};
    SvResult r = SolveExact(inst, opt);
    EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_FALSE(std::isfinite(r.gap)) << bad;
  }
}

TEST(GreedyPerModuleTest, PaysTheLocalViewPrice) {
  SecureViewInstance inst = TinyCardInstance();
  SvResult greedy = SolveGreedyPerModule(inst);
  ASSERT_TRUE(greedy.status.ok());
  EXPECT_TRUE(IsFeasible(inst, greedy.solution));
  EXPECT_NEAR(greedy.cost, 3.0, 1e-7);  // attr 1 + attr 2
}

TEST(LpRoundingTest, FeasibleAndBoundedByLpTimesLogFactor) {
  SecureViewInstance inst = TinyCardInstance();
  SvResult lp = SolveByLpRounding(inst);
  ASSERT_TRUE(lp.status.ok());
  EXPECT_TRUE(IsFeasible(inst, lp.solution));
  EXPECT_GE(lp.cost, lp.lower_bound - 1e-7);
  EXPECT_LE(lp.lower_bound, 2.0 + 1e-7);  // LP ≤ OPT
}

TEST(ThresholdRoundingTest, SetConstraintsWithinLmaxOfLp) {
  SecureViewInstance inst = MakeExample5Instance(6);
  SvResult rounded = SolveByThresholdRounding(inst);
  ASSERT_TRUE(rounded.status.ok());
  EXPECT_TRUE(IsFeasible(inst, rounded.solution));
  const double lmax = static_cast<double>(inst.MaxListLength());
  EXPECT_LE(rounded.cost, lmax * rounded.lower_bound + 1e-6);
}

// Inputs a user can hand `podsctl solve` must come back as a typed status
// with no solution (infinite gap), never an abort.
TEST(ThresholdRoundingTest, CardinalityInstanceIsInvalidArgument) {
  SvResult r = SolveByThresholdRounding(TinyCardInstance());
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(std::isfinite(r.gap));
}

TEST(ThresholdRoundingTest, HonorsTheSimplexControl) {
  ExecControl control;
  control.set_deadline_ms(0);
  SimplexOptions opt;
  opt.control = &control;
  SvResult r = SolveByThresholdRounding(MakeExample5Instance(6), opt);
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(std::isfinite(r.gap));  // podsctl prints no solution
}

TEST(LpRoundingTest, TrippedLpReportsNoSolution) {
  ExecControl control;
  control.set_deadline_ms(0);
  RoundingOptions opt;
  opt.control = &control;
  SvResult r = SolveByLpRounding(TinyCardInstance(), opt);
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(std::isfinite(r.gap));
}

TEST(BruteForceTest, TooManyRelevantAttributesIsInvalidArgument) {
  // One set-constraint module whose options name one more attribute than
  // brute force enumerates.
  const int attrs = kMaxBruteForceAttrs + 1;
  SecureViewInstance inst;
  inst.kind = ConstraintKind::kSet;
  inst.num_attrs = attrs;
  inst.attr_cost.assign(static_cast<size_t>(attrs), 1.0);
  SvModule m;
  m.name = "wide";
  for (int a = 0; a + 1 < attrs; ++a) {
    m.inputs.push_back(a);
    m.set_options.push_back(SetOption{{a}, {}});
  }
  m.outputs = {attrs - 1};
  m.set_options.push_back(SetOption{{}, {attrs - 1}});
  inst.modules = {m};
  SvResult r = SolveBruteForce(inst);
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(std::isfinite(r.gap));
}

TEST(Example5Test, GapBetweenGreedyAndOptimal) {
  // Example 5: union of standalone optima costs n + 1; OPT = 2 + ε.
  const int n = 8;
  const double eps = 0.1;
  SecureViewInstance inst = MakeExample5Instance(n, eps);
  SvResult greedy = SolveGreedyPerModule(inst);
  SvResult exact = SolveExact(inst);
  ASSERT_TRUE(greedy.status.ok());
  ASSERT_TRUE(exact.status.ok());
  EXPECT_NEAR(greedy.cost, n + 1.0, 1e-7);
  EXPECT_NEAR(exact.cost, 2.0 + eps, 1e-7);
}

TEST(Example5Test, CoverageGreedyAvoidsTheTrap) {
  // The global greedy shares a2 across modules and lands near OPT.
  SecureViewInstance inst = MakeExample5Instance(10);
  SvResult cov = SolveGreedyCoverage(inst);
  ASSERT_TRUE(cov.status.ok());
  EXPECT_TRUE(IsFeasible(inst, cov.solution));
  EXPECT_LE(cov.cost, 2.2 + 1e-7);
}

TEST(EncodingTest, LpRelaxationLowerBoundsIlp) {
  Rng rng(3);
  RandomInstanceOptions opt;
  opt.num_modules = 6;
  SecureViewInstance inst = MakeRandomInstance(opt, &rng);
  SvEncoding enc = EncodeSecureView(inst);
  LpSolution relax = SolveLp(enc.lp);
  ASSERT_TRUE(relax.status.ok());
  SvResult exact = SolveExact(inst);
  ASSERT_TRUE(exact.status.ok());
  EXPECT_LE(relax.objective, exact.cost + 1e-6);
}

TEST(EncodingTest, DecodeThresholdControlsHiddenSet) {
  SecureViewInstance inst = TinyCardInstance();
  SvEncoding enc = EncodeSecureView(inst);
  std::vector<double> x(static_cast<size_t>(enc.lp.num_vars()), 0.0);
  x[static_cast<size_t>(enc.x_var[2])] = 0.6;
  SecureViewSolution sol = DecodeSolution(inst, enc, x, 0.5);
  EXPECT_EQ(sol.hidden, Bitset64::Of(4, {2}));
  SecureViewSolution sol2 = DecodeSolution(inst, enc, x, 0.7);
  EXPECT_TRUE(sol2.hidden.empty());
}

// ---------------------------------------------------------------------
// Property sweeps over random instances: every solver is feasible, the
// exact solver matches brute force, LP lower-bounds everything, and the
// Theorem-5/6/7 guarantees hold.
// ---------------------------------------------------------------------
struct SweepCase {
  int seed;
  ConstraintKind kind;
};

class SolverSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(SolverSweepTest, AllSolversConsistent) {
  const SweepCase& sc = GetParam();
  Rng rng(static_cast<uint64_t>(sc.seed) * 7 + 123);
  RandomInstanceOptions opt;
  opt.kind = sc.kind;
  opt.num_modules = 5;
  opt.max_inputs = 2;
  opt.max_outputs = 1;
  opt.max_list_length = 2;
  opt.max_option_size = 2;
  opt.reuse_probability = 0.7;
  SecureViewInstance inst = MakeRandomInstance(opt, &rng);

  SvResult exact = SolveExact(inst);
  ASSERT_TRUE(exact.status.ok());
  SvResult brute = SolveBruteForce(inst);
  ASSERT_TRUE(brute.status.ok());
  EXPECT_NEAR(exact.cost, brute.cost, 1e-6);

  // The same solve with its waves on a 4-thread executor, whose workers
  // read the root tableau this thread built: identical field for field.
  TaskGraphExecutor executor(3);
  ExactOptions par;
  par.bnb.num_threads = 4;
  par.bnb.wave_width = 4;
  par.bnb.executor = &executor;
  ExactOptions seq = par;
  seq.bnb.num_threads = 1;
  seq.bnb.executor = nullptr;
  SvResult exact_seq = SolveExact(inst, seq);
  SvResult exact_par = SolveExact(inst, par);
  ASSERT_TRUE(exact_par.status.ok());
  EXPECT_NEAR(exact_par.cost, brute.cost, 1e-6);
  EXPECT_EQ(exact_par.cost, exact_seq.cost);
  EXPECT_EQ(exact_par.lower_bound, exact_seq.lower_bound);
  EXPECT_EQ(exact_par.gap, exact_seq.gap);
  EXPECT_EQ(exact_par.work, exact_seq.work);
  EXPECT_EQ(exact_par.solution.hidden, exact_seq.solution.hidden);
  EXPECT_EQ(exact_par.solution.privatized, exact_seq.solution.privatized);

  SvResult greedy = SolveGreedyPerModule(inst);
  SvResult coverage = SolveGreedyCoverage(inst);
  RoundingOptions ro;
  ro.seed = static_cast<uint64_t>(sc.seed);
  SvResult rounding = SolveByLpRounding(inst, ro);
  ASSERT_TRUE(rounding.status.ok());

  for (const SvResult* r : {&greedy, &coverage, &rounding}) {
    EXPECT_TRUE(IsFeasible(inst, r->solution));
    EXPECT_GE(r->cost, exact.cost - 1e-6);
  }
  EXPECT_LE(rounding.lower_bound, exact.cost + 1e-6);

  // Theorem 7: greedy-per-module within (γ+1) · OPT.
  const double gamma_plus_1 = inst.DataSharingDegree() + 1.0;
  EXPECT_LE(greedy.cost, gamma_plus_1 * exact.cost + 1e-6);

  if (sc.kind == ConstraintKind::kSet) {
    SvResult thresh = SolveByThresholdRounding(inst);
    ASSERT_TRUE(thresh.status.ok());
    EXPECT_TRUE(IsFeasible(inst, thresh.solution));
    // Theorem 6: within ℓ_max of the LP bound (hence of OPT).
    EXPECT_LE(thresh.cost,
              inst.MaxListLength() * exact.cost + 1e-6);
  }
}

std::vector<SweepCase> MakeSweepCases() {
  std::vector<SweepCase> cases;
  for (int seed = 0; seed < 6; ++seed) {
    cases.push_back({seed, ConstraintKind::kCardinality});
    cases.push_back({seed, ConstraintKind::kSet});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SolverSweepTest,
                         ::testing::ValuesIn(MakeSweepCases()));

// With public modules in the mix, completed solutions must privatize
// exactly the touched publics and the exact solver still dominates.
class PublicSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(PublicSweepTest, GeneralWorkflowSolversConsistent) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 17 + 5);
  RandomInstanceOptions opt;
  opt.kind = ConstraintKind::kCardinality;
  opt.num_modules = 5;
  opt.max_inputs = 2;
  opt.max_outputs = 1;
  opt.reuse_probability = 0.7;
  opt.public_fraction = 0.4;
  SecureViewInstance inst = MakeRandomInstance(opt, &rng);
  if (inst.PrivateModules().empty()) GTEST_SKIP();

  SvResult exact = SolveExact(inst);
  ASSERT_TRUE(exact.status.ok());
  SvResult brute = SolveBruteForce(inst);
  ASSERT_TRUE(brute.status.ok());
  EXPECT_NEAR(exact.cost, brute.cost, 1e-6);

  SvResult greedy = SolveGreedyPerModule(inst);
  EXPECT_TRUE(IsFeasible(inst, greedy.solution));
  EXPECT_GE(greedy.cost, exact.cost - 1e-6);

  RoundingOptions ro;
  SvResult rounding = SolveByLpRounding(inst, ro);
  ASSERT_TRUE(rounding.status.ok());
  EXPECT_TRUE(IsFeasible(inst, rounding.solution));
  EXPECT_GE(rounding.cost, exact.cost - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PublicSweepTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace provview
