#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/task_graph.h"
#include "generators/families.h"
#include "generators/random_workflow.h"
#include "privacy/workflow_privacy.h"
#include "secureview/feasibility.h"
#include "secureview/from_workflow.h"
#include "secureview/serialization.h"
#include "secureview/solvers.h"
#include "secureview/workflow_exact.h"
#include "workflow/fig1_workflow.h"

namespace provview {
namespace {

// m2 and m3 have a single boolean output, so their standalone privacy is
// capped at Γ = 2. For Γ = 4 experiments they must be public (their
// behavior — AND / OR — is indeed "known" in the paper's narrative).
Fig1Workflow MakeFig1WithPublicGates() {
  Fig1Workflow fig = MakeFig1Workflow();
  fig.workflow->mutable_module(fig.m2_index)->set_public(true);
  fig.workflow->mutable_module(fig.m3_index)->set_public(true);
  return fig;
}

TEST(FromWorkflowTest, Fig1SetInstanceStructure) {
  Fig1Workflow fig = MakeFig1WithPublicGates();
  SecureViewInstance inst =
      InstanceFromWorkflow(*fig.workflow, 4, ConstraintKind::kSet);
  EXPECT_EQ(inst.num_attrs, 7);
  EXPECT_EQ(inst.num_modules(), 3);
  EXPECT_TRUE(inst.Validate().ok());
  EXPECT_EQ(inst.PublicModules().size(), 2u);
  // m1's set options must include the output pairs of Example 3.
  const SvModule& m1 = inst.modules[0];
  bool found_pair = false;
  for (const SetOption& o : m1.set_options) {
    if (o.hidden_inputs.empty() && o.hidden_outputs.size() == 2) {
      found_pair = true;
    }
  }
  EXPECT_TRUE(found_pair);
}

TEST(FromWorkflowTest, Fig1AllPrivateGamma2) {
  Fig1Workflow fig = MakeFig1Workflow();
  SecureViewInstance inst =
      InstanceFromWorkflow(*fig.workflow, 2, ConstraintKind::kSet);
  EXPECT_TRUE(inst.Validate().ok());
  EXPECT_EQ(inst.PublicModules().size(), 0u);
  SvResult exact = SolveExact(inst);
  ASSERT_TRUE(exact.status.ok());
  EXPECT_TRUE(IsFeasible(inst, exact.solution));
  EXPECT_TRUE(VerifySolutionSemantics(*fig.workflow, exact.solution, 2));
}

TEST(FromWorkflowTest, Fig1CardinalityInstanceStructure) {
  Fig1Workflow fig = MakeFig1Workflow();
  SecureViewInstance inst =
      InstanceFromWorkflow(*fig.workflow, 2, ConstraintKind::kCardinality);
  EXPECT_TRUE(inst.Validate().ok());
  for (int i : inst.PrivateModules()) {
    EXPECT_FALSE(inst.modules[static_cast<size_t>(i)].card_options.empty());
  }
}

TEST(FromWorkflowTest, ExactSolutionIsSemanticallyPrivate) {
  // End-to-end: optimize on the derived instance, then certify the result
  // against the actual module functionality (Theorem 4/8 route).
  Fig1Workflow fig = MakeFig1WithPublicGates();
  for (int64_t gamma : {2, 4}) {
    SecureViewInstance inst =
        InstanceFromWorkflow(*fig.workflow, gamma, ConstraintKind::kSet);
    SvResult exact = SolveExact(inst);
    ASSERT_TRUE(exact.status.ok());
    EXPECT_TRUE(IsFeasible(inst, exact.solution));
    EXPECT_TRUE(VerifySolutionSemantics(*fig.workflow, exact.solution, gamma));
  }
}

TEST(FromWorkflowTest, CardinalitySolutionAlsoCertifies) {
  // Cardinality options are shape-based; any attribute choice meeting the
  // frontier must be standalone-safe, hence certify.
  Fig1Workflow fig = MakeFig1WithPublicGates();
  SecureViewInstance inst =
      InstanceFromWorkflow(*fig.workflow, 4, ConstraintKind::kCardinality);
  SvResult exact = SolveExact(inst);
  ASSERT_TRUE(exact.status.ok());
  EXPECT_TRUE(VerifySolutionSemantics(*fig.workflow, exact.solution, 4));
}

TEST(FromWorkflowTest, UnionOfStandaloneOptimaIsFeasibleButMaybeCostly) {
  Fig1Workflow fig = MakeFig1WithPublicGates();
  SecureViewSolution baseline = UnionOfStandaloneOptima(*fig.workflow, 4);
  EXPECT_TRUE(VerifySolutionSemantics(*fig.workflow, baseline, 4));
  SecureViewInstance inst =
      InstanceFromWorkflow(*fig.workflow, 4, ConstraintKind::kSet);
  SvResult exact = SolveExact(inst);
  ASSERT_TRUE(exact.status.ok());
  EXPECT_GE(baseline.TotalCost(inst), exact.cost - 1e-9);
}

TEST(FromWorkflowTest, RandomWorkflowsEndToEnd) {
  for (int seed = 0; seed < 4; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 37 + 11);
    RandomWorkflowOptions opt;
    opt.num_modules = 4;
    opt.max_inputs = 2;
    opt.max_outputs = 2;
    GeneratedWorkflow gen = MakeRandomWorkflow(opt, &rng);
    SecureViewInstance inst =
        InstanceFromWorkflow(*gen.workflow, 2, ConstraintKind::kSet);
    SvResult exact = SolveExact(inst);
    ASSERT_TRUE(exact.status.ok());
    EXPECT_TRUE(VerifySolutionSemantics(*gen.workflow, exact.solution, 2));
    // Greedy upper-bounds and certifies too.
    SvResult greedy = SolveGreedyPerModule(inst);
    EXPECT_TRUE(VerifySolutionSemantics(*gen.workflow, greedy.solution, 2));
    EXPECT_GE(greedy.cost, exact.cost - 1e-9);
  }
}

TEST(FromWorkflowTest, PublicModulesCarriedIntoInstance) {
  Rng rng(7);
  Example7Chain chain = MakeExample7Chain(2, &rng);
  chain.workflow->mutable_module(chain.constant_index)
      ->set_privatization_cost(4.0);
  SecureViewInstance inst =
      InstanceFromWorkflow(*chain.workflow, 2, ConstraintKind::kSet);
  ASSERT_EQ(inst.PublicModules(),
            (std::vector<int>{chain.constant_index}));
  EXPECT_DOUBLE_EQ(
      inst.modules[static_cast<size_t>(chain.constant_index)]
          .privatization_cost,
      4.0);
  // The optimizer accounts for privatization: any solution hiding the
  // intermediate attributes must pay for privatizing the constant module.
  SvResult exact = SolveExact(inst);
  ASSERT_TRUE(exact.status.ok());
  EXPECT_TRUE(IsFeasible(inst, exact.solution));
  EXPECT_TRUE(VerifySolutionSemantics(*chain.workflow, exact.solution, 2));
}

TEST(FromWorkflowTest, SharedExecutorDerivesTheSameInstance) {
  // The per-module derivations are tasks of one graph: on the caller's
  // shared executor or on a private one (null), the derived instance is
  // the same, option for option.
  Rng rng(17);
  RandomWorkflowOptions opt;
  opt.num_modules = 8;
  opt.num_layers = 3;
  GeneratedWorkflow gen = MakeRandomWorkflow(opt, &rng);
  const std::vector<int64_t> gammas(
      static_cast<size_t>(gen.workflow->num_modules()), 2);
  TaskGraphExecutor shared(3);
  for (ConstraintKind kind :
       {ConstraintKind::kSet, ConstraintKind::kCardinality}) {
    const SecureViewInstance own =
        InstanceFromWorkflow(*gen.workflow, gammas, kind, nullptr);
    const SecureViewInstance on_shared =
        InstanceFromWorkflow(*gen.workflow, gammas, kind, &shared);
    EXPECT_EQ(SerializeInstance(own), SerializeInstance(on_shared));
    EXPECT_EQ(SerializeInstance(own),
              SerializeInstance(InstanceFromWorkflow(*gen.workflow, 2, kind)));
  }
}

TEST(FromWorkflowTest, UnreachableGammaIsInfeasibleNotAbort) {
  // m2 and m3 have one boolean output each, so no hidden set makes either
  // Γ=3-private. Derived on a shared executor's workers, the instance is a
  // typed Infeasible naming the first such module, for both constraint
  // kinds, and SolveExactForWorkflow relays it instead of aborting.
  Fig1Workflow fig = MakeFig1Workflow();
  ASSERT_LT(fig.m2_index, fig.m3_index);
  const std::string m2 = fig.workflow->module(fig.m2_index).name();
  const std::vector<int64_t> gammas(
      static_cast<size_t>(fig.workflow->num_modules()), 3);
  TaskGraphExecutor shared(3);
  for (ConstraintKind kind :
       {ConstraintKind::kSet, ConstraintKind::kCardinality}) {
    Result<SecureViewInstance> inst =
        DeriveInstanceFromWorkflow(*fig.workflow, gammas, kind, &shared);
    ASSERT_FALSE(inst.ok());
    EXPECT_EQ(inst.status().code(), StatusCode::kInfeasible);
    EXPECT_NE(inst.status().message().find("module " + m2 + " "),
              std::string::npos)
        << inst.status().ToString();

    WorkflowExactOptions opts;
    opts.gamma = 3;
    opts.kind = kind;
    opts.exact.bnb.num_threads = 4;
    opts.exact.bnb.executor = &shared;
    const WorkflowExactResult r = SolveExactForWorkflow(*fig.workflow, opts);
    EXPECT_EQ(r.result.status, inst.status());
    EXPECT_FALSE(std::isfinite(r.result.gap));
    EXPECT_FALSE(r.semantics_verified);
    EXPECT_TRUE(r.instance.modules.empty());
  }
  // With m2 public, m3 is the first module that cannot reach Γ.
  fig.workflow->mutable_module(fig.m2_index)->set_public(true);
  Result<SecureViewInstance> inst = DeriveInstanceFromWorkflow(
      *fig.workflow, gammas, ConstraintKind::kSet, &shared);
  ASSERT_FALSE(inst.ok());
  EXPECT_NE(inst.status().message().find(
                "module " + fig.workflow->module(fig.m3_index).name() + " "),
            std::string::npos)
      << inst.status().ToString();
  // A Γ the gates can reach derives; a Γ list of the wrong length does not.
  std::vector<int64_t> reachable = gammas;
  reachable[static_cast<size_t>(fig.m3_index)] = 2;
  EXPECT_TRUE(DeriveInstanceFromWorkflow(*fig.workflow, reachable,
                                         ConstraintKind::kSet, &shared)
                  .ok());
  EXPECT_EQ(DeriveInstanceFromWorkflow(*fig.workflow, {3},
                                       ConstraintKind::kSet)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace provview
