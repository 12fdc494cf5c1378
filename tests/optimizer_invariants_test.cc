// Cross-solver invariants for the wave branch-and-bound optimizer stack
// (docs/optimizer.md): the exact solver dominates every approximation, its
// bounds are real, brute force agrees on small instances, the Theorem 5/6/7
// ratio guarantees hold, the parallel wave engine is byte-identical at any
// thread count, and tripped solves (node budget, deadline) still carry a
// feasible incumbent with a finite proven gap.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/exec_control.h"
#include "common/rng.h"
#include "common/task_graph.h"
#include "generators/random_workflow.h"
#include "generators/requirement_gen.h"
#include "lp/branch_and_bound.h"
#include "secureview/bnb_oracle.h"
#include "secureview/feasibility.h"
#include "secureview/from_workflow.h"
#include "secureview/ilp_encoding.h"
#include "secureview/serialization.h"
#include "secureview/solvers.h"
#include "secureview/workflow_exact.h"

namespace provview {
namespace {

SecureViewInstance RandomInstance(int seed, ConstraintKind kind,
                                  int num_modules = 6,
                                  double public_fraction = 0.0) {
  Rng rng(static_cast<uint64_t>(seed) * 31 + 7);
  RandomInstanceOptions opt;
  opt.kind = kind;
  opt.num_modules = num_modules;
  opt.max_inputs = 3;
  opt.max_outputs = 2;
  opt.max_list_length = 3;
  opt.max_option_size = 2;
  opt.reuse_probability = 0.7;
  opt.public_fraction = public_fraction;
  return MakeRandomInstance(opt, &rng);
}

// ---------------------------------------------------------------------
// The full pruning stack (warm start + oracle + root-basis dual re-solves
// + best-bound)
// computes the exact optimum: it matches brute force, lower-bounds
// every approximation, and the paper's ratio guarantees hold against it.
// ---------------------------------------------------------------------
struct SweepCase {
  int seed;
  ConstraintKind kind;
};

class OptimizerSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(OptimizerSweepTest, ExactDominatesAndRatioBoundsHold) {
  const SweepCase& sc = GetParam();
  SecureViewInstance inst = RandomInstance(sc.seed, sc.kind);

  SvResult exact = SolveExact(inst);  // default ExactOptions: full stack
  ASSERT_TRUE(exact.status.ok());
  EXPECT_TRUE(IsFeasible(inst, exact.solution));
  EXPECT_NEAR(exact.gap, 0.0, 1e-12);
  EXPECT_NEAR(exact.lower_bound, exact.cost, 1e-9);

  SvResult brute = SolveBruteForce(inst);
  ASSERT_TRUE(brute.status.ok());
  EXPECT_NEAR(exact.cost, brute.cost, 1e-6);

  SvResult greedy = SolveGreedyPerModule(inst);
  SvResult coverage = SolveGreedyCoverage(inst);
  RoundingOptions ro;
  ro.seed = static_cast<uint64_t>(sc.seed) + 1;
  SvResult rounding = SolveByLpRounding(inst, ro);
  ASSERT_TRUE(rounding.status.ok());

  // Exact ≤ every approximation; every approximation is feasible.
  for (const SvResult* r : {&greedy, &coverage, &rounding}) {
    ASSERT_TRUE(r->status.ok());
    EXPECT_TRUE(IsFeasible(inst, r->solution));
    EXPECT_GE(r->cost, exact.cost - 1e-6);
    EXPECT_LE(r->lower_bound, r->cost + 1e-6);
  }
  // The LP relaxation lower-bounds OPT.
  EXPECT_LE(rounding.lower_bound, exact.cost + 1e-6);

  // Theorem 7: greedy-per-module within (γ+1)·OPT.
  EXPECT_LE(greedy.cost,
            (inst.DataSharingDegree() + 1.0) * exact.cost + 1e-6);
  // Theorem 5 flavor: randomized rounding stays within an O(log n) factor
  // (generous constant — the repair step caps each trial).
  const double logn =
      std::max(1.0, 3.0 * std::log(static_cast<double>(inst.num_attrs) + 2.0));
  EXPECT_LE(rounding.cost, logn * std::max(exact.cost, 1e-9) + 1e-6);
  if (sc.kind == ConstraintKind::kSet) {
    // Theorem 6: deterministic threshold rounding within ℓ_max·OPT.
    SvResult thresh = SolveByThresholdRounding(inst);
    ASSERT_TRUE(thresh.status.ok());
    EXPECT_TRUE(IsFeasible(inst, thresh.solution));
    EXPECT_LE(thresh.cost,
              static_cast<double>(inst.MaxListLength()) * exact.cost + 1e-6);
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

INSTANTIATE_TEST_SUITE_P(RandomInstances, OptimizerSweepTest,
                         ::testing::ValuesIn(MakeSweepCases()));

// With public modules, the stack must account privatization costs the same
// way brute force does.
class PublicStackTest : public ::testing::TestWithParam<int> {};

TEST_P(PublicStackTest, MatchesBruteForceWithPrivatization) {
  SecureViewInstance inst =
      RandomInstance(GetParam(), ConstraintKind::kCardinality, 5,
                     /*public_fraction=*/0.4);
  if (inst.PrivateModules().empty()) GTEST_SKIP();
  SvResult exact = SolveExact(inst);
  ASSERT_TRUE(exact.status.ok());
  SvResult brute = SolveBruteForce(inst);
  ASSERT_TRUE(brute.status.ok());
  EXPECT_NEAR(exact.cost, brute.cost, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PublicStackTest, ::testing::Range(0, 6));

// ---------------------------------------------------------------------
// Determinism: the wave engine's BnbResult is byte-identical at any
// thread count, with and without the oracle installed, and lands on the
// brute-force optimum.
// ---------------------------------------------------------------------
void ExpectIdentical(const BnbResult& a, const BnbResult& b) {
  EXPECT_EQ(a.status.code(), b.status.code());
  ASSERT_EQ(a.x.size(), b.x.size());
  for (size_t i = 0; i < a.x.size(); ++i) EXPECT_EQ(a.x[i], b.x[i]);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.lower_bound, b.lower_bound);
  EXPECT_EQ(a.gap, b.gap);
  EXPECT_EQ(a.nodes_explored, b.nodes_explored);
  EXPECT_EQ(a.lp_solves, b.lp_solves);
  EXPECT_EQ(a.lp_iterations, b.lp_iterations);
  EXPECT_EQ(a.oracle_fathoms, b.oracle_fathoms);
}

TEST(ParallelEquivalenceTest, ByteIdenticalAcrossThreadCounts) {
  for (int seed = 0; seed < 3; ++seed) {
    for (ConstraintKind kind :
         {ConstraintKind::kSet, ConstraintKind::kCardinality}) {
      SecureViewInstance inst = RandomInstance(seed + 100, kind, 8);
      SvEncoding enc = EncodeSecureView(inst);
      const SvResult brute = SolveBruteForce(inst);
      ASSERT_TRUE(brute.status.ok());
      for (bool with_oracle : {true, false}) {
        BnbOptions base;
        base.wave_width = 4;  // several waves, several nodes per wave
        if (with_oracle) base.oracle = MakeSecureViewBnbOracle(&inst, &enc);
        BnbOptions o = base;
        o.num_threads = 1;
        const BnbResult one = SolveIlp(enc.lp, enc.integer_vars, o);
        ASSERT_TRUE(one.status.ok());
        EXPECT_NEAR(one.objective, brute.cost, 1e-6)
            << "seed " << seed << " oracle " << with_oracle;
        for (int threads : {2, 4, 8}) {
          o.num_threads = threads;
          ExpectIdentical(one, SolveIlp(enc.lp, enc.integer_vars, o));
        }
      }
    }
  }
}

// An instance of the benchmark's solve-exact family: a 24-module layered
// workflow derived at Γ=2 with set constraints. Its tree runs many dual
// re-solves from the shared root tableau, which must not make the result
// depend on the thread count.
TEST(ParallelEquivalenceTest, SolveExactFamilyIdenticalAcrossThreadCounts) {
  Rng rng(1);
  RandomWorkflowOptions wopt;
  wopt.num_modules = 24;
  wopt.num_layers = 3;
  wopt.min_inputs = 2;
  wopt.max_inputs = 3;
  wopt.max_outputs = 2;
  wopt.gamma_bound = 3;
  wopt.reuse_probability = 0.8;
  GeneratedWorkflow gen = MakeRandomWorkflow(wopt, &rng);
  const SecureViewInstance inst =
      InstanceFromWorkflow(*gen.workflow, 2, ConstraintKind::kSet);
  SvEncoding enc = EncodeSecureView(inst);
  BnbOptions o;
  o.oracle = MakeSecureViewBnbOracle(&inst, &enc);
  o.num_threads = 1;
  const BnbResult one = SolveIlp(enc.lp, enc.integer_vars, o);
  ASSERT_TRUE(one.status.ok());
  EXPECT_EQ(one.gap, 0.0);
  EXPECT_GT(one.nodes_explored, 1);
  EXPECT_GT(one.lp_solves, 1);
  EXPECT_GT(one.lp_iterations, one.lp_solves);
  for (int threads : {2, 4, 8}) {
    o.num_threads = threads;
    ExpectIdentical(one, SolveIlp(enc.lp, enc.integer_vars, o));
  }
}

// ---------------------------------------------------------------------
// Tripped solves: node budget and deadline both surface a typed status
// WITH a feasible incumbent and a finite proven gap.
// ---------------------------------------------------------------------
TEST(NodeBudgetTest, TimeoutCarriesIncumbentAndGap) {
  SecureViewInstance inst = RandomInstance(7, ConstraintKind::kSet, 10);
  ExactOptions opt;
  opt.bnb.max_nodes = 1;
  // A no-op oracle forces real branching so the budget actually trips.
  opt.bnb.oracle = [](const std::vector<double>&, const std::vector<double>&) {
    return BnbNodeCut{};
  };
  SvResult r = SolveExact(inst, opt);
  if (r.status.ok()) GTEST_SKIP() << "instance solved within one node";
  EXPECT_EQ(r.status.code(), StatusCode::kTimeout);
  EXPECT_TRUE(IsFeasible(inst, r.solution));  // the warm-start incumbent
  EXPECT_TRUE(std::isfinite(r.gap));
  EXPECT_GE(r.gap, 0.0);
  EXPECT_GE(r.lower_bound, 0.0);
  EXPECT_NEAR(r.cost - r.lower_bound, r.gap, 1e-9);
}

TEST(DeadlineTest, DoomedDeadlineStillReturnsFeasibleIncumbent) {
  SecureViewInstance inst = RandomInstance(11, ConstraintKind::kSet, 10);
  ExecControl control;
  control.set_deadline_ms(0);  // trips on the first poll
  ExactOptions opt;
  opt.bnb.control = &control;
  SvResult r = SolveExact(inst, opt);
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(IsFeasible(inst, r.solution));
  EXPECT_TRUE(std::isfinite(r.gap));
  EXPECT_GE(r.gap, 0.0);
  EXPECT_NEAR(r.cost - r.lower_bound, r.gap, 1e-9);
}

// ---------------------------------------------------------------------
// Workflow-level stack: per-module derivation + useless-attr fixing +
// certification equals brute force on the derived instance.
// ---------------------------------------------------------------------
class WorkflowStackTest : public ::testing::TestWithParam<int> {};

TEST_P(WorkflowStackTest, FullStackMatchesBruteForceAndCertifies) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 13 + 3);
  RandomWorkflowOptions wopt;
  wopt.num_modules = 6;
  wopt.num_layers = 2;
  GeneratedWorkflow gen = MakeRandomWorkflow(wopt, &rng);

  WorkflowExactOptions opt;
  WorkflowExactResult full = SolveExactForWorkflow(*gen.workflow, opt);
  ASSERT_TRUE(full.result.status.ok());
  EXPECT_TRUE(full.semantics_verified);

  SvResult brute = SolveBruteForce(full.instance);
  ASSERT_TRUE(brute.status.ok());
  EXPECT_NEAR(full.result.cost, brute.cost, 1e-6);

  // Pinned-visible attributes must never be hidden by the winner.
  for (int a : full.fixed_attrs) {
    EXPECT_FALSE(full.result.solution.hidden.Test(a));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkflowStackTest, ::testing::Range(0, 4));

// The workflow stack on the benchmark's solve-exact family: derivation and
// branch-and-bound share one executor, and the outcome must not depend on
// the B&B's thread count.
TEST(WorkflowExactThreadsTest, SolveExactFamilyIdenticalAcrossThreadCounts) {
  Rng rng(1);
  RandomWorkflowOptions wopt;
  wopt.num_modules = 24;
  wopt.num_layers = 3;
  wopt.min_inputs = 2;
  wopt.max_inputs = 3;
  wopt.max_outputs = 2;
  wopt.gamma_bound = 3;
  wopt.reuse_probability = 0.8;
  GeneratedWorkflow gen = MakeRandomWorkflow(wopt, &rng);
  TaskGraphExecutor shared(3);
  WorkflowExactOptions opt;
  opt.exact.bnb.executor = &shared;
  opt.exact.bnb.num_threads = 1;
  const WorkflowExactResult one = SolveExactForWorkflow(*gen.workflow, opt);
  ASSERT_TRUE(one.result.status.ok());
  EXPECT_EQ(one.result.gap, 0.0);
  EXPECT_GT(one.result.work, 1);  // a real tree, not a root-only solve
  EXPECT_TRUE(one.semantics_verified);
  opt.exact.bnb.num_threads = 4;
  const WorkflowExactResult four = SolveExactForWorkflow(*gen.workflow, opt);
  ASSERT_TRUE(four.result.status.ok());
  EXPECT_TRUE(four.semantics_verified);
  EXPECT_EQ(SerializeInstance(one.instance), SerializeInstance(four.instance));
  EXPECT_EQ(one.result.cost, four.result.cost);
  EXPECT_EQ(one.result.solution.hidden.ToVector(),
            four.result.solution.hidden.ToVector());
  EXPECT_EQ(one.result.work, four.result.work);
}

TEST(LayeredGeneratorTest, HundredModuleWorkflowGeneratesAndValidates) {
  Rng rng(99);
  RandomWorkflowOptions opt;
  opt.num_modules = 120;
  opt.num_layers = 8;
  opt.cross_layer_probability = 0.15;
  GeneratedWorkflow gen = MakeRandomWorkflow(opt, &rng);  // Validate()s inside
  EXPECT_EQ(gen.workflow->num_modules(), 120);
  EXPECT_GT(gen.workflow->num_attrs(), 120);
}

}  // namespace
}  // namespace provview
