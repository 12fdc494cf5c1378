#include <gtest/gtest.h>

#include "common/combinatorics.h"
#include "generators/families.h"
#include "module/module_library.h"
#include "privacy/possible_worlds.h"
#include "privacy/standalone_privacy.h"
#include "workflow/fig1_workflow.h"

namespace provview {
namespace {

TEST(StandaloneWorldsTest, Fig1M1HasSixtyFourWorlds) {
  // Example 2: "Overall there are sixty four relations in Worlds(R1, V)"
  // for V = {a1, a3, a5}.
  Fig1Workflow fig = MakeFig1Workflow();
  const Module& m1 = fig.workflow->module(fig.m1_index);
  Relation rel = m1.FullRelation();
  Bitset64 v = Bitset64::Of(7, {fig.a1, fig.a3, fig.a5});
  StandaloneWorlds worlds =
      EnumerateStandaloneWorlds(rel, m1.inputs(), m1.outputs(), v);
  EXPECT_EQ(worlds.num_worlds, 64);
  EXPECT_EQ(worlds.MinOutSize(), 4);
}

TEST(StandaloneWorldsTest, Fig2SampleWorldsAreConsistent) {
  // The four relations R1^1..R1^4 of Figure 2 all project onto R_V; check
  // their (input → output) choices appear in the enumerated OUT sets.
  Fig1Workflow fig = MakeFig1Workflow();
  const Module& m1 = fig.workflow->module(fig.m1_index);
  Relation rel = m1.FullRelation();
  Bitset64 v = Bitset64::Of(7, {fig.a1, fig.a3, fig.a5});
  StandaloneWorlds worlds =
      EnumerateStandaloneWorlds(rel, m1.inputs(), m1.outputs(), v);
  // R1^1 (Figure 2a): (0,0)→(0,0,1), (0,1)→(1,0,0), (1,0)→(1,0,0),
  // (1,1)→(1,0,1).
  EXPECT_TRUE(worlds.out_sets.at({0, 0}).count({0, 0, 1}));
  EXPECT_TRUE(worlds.out_sets.at({0, 1}).count({1, 0, 0}));
  EXPECT_TRUE(worlds.out_sets.at({1, 0}).count({1, 0, 0}));
  EXPECT_TRUE(worlds.out_sets.at({1, 1}).count({1, 0, 1}));
  // R1^4 (Figure 2d): (0,0)→(1,1,0), (0,1)→(0,1,1).
  EXPECT_TRUE(worlds.out_sets.at({0, 0}).count({1, 1, 0}));
  EXPECT_TRUE(worlds.out_sets.at({0, 1}).count({0, 1, 1}));
}

TEST(StandaloneWorldsTest, FullyVisibleLeavesSingleWorld) {
  Fig1Workflow fig = MakeFig1Workflow();
  const Module& m1 = fig.workflow->module(fig.m1_index);
  Relation rel = m1.FullRelation();
  StandaloneWorlds worlds = EnumerateStandaloneWorlds(
      rel, m1.inputs(), m1.outputs(), Bitset64::All(7));
  EXPECT_EQ(worlds.num_worlds, 1);
  EXPECT_EQ(worlds.MinOutSize(), 1);
}

// Every size guard returns RESOURCE_EXHAUSTED in `status`, with or without
// an ExecControl, and leaves the OUT sets empty.
TEST(StandaloneWorldsTest, OverBudgetReturnsResourceExhaustedWithoutControl) {
  Fig1Workflow fig = MakeFig1Workflow();
  const Module& m1 = fig.workflow->module(fig.m1_index);
  Relation rel = m1.FullRelation();
  Bitset64 v = Bitset64::Of(7, {fig.a1, fig.a3, fig.a5});
  // |Range| = 8 outputs: a budget of 4 trips the output-range guard, a
  // budget of 8 the pruned-space guard (64 worlds need at least 64
  // candidates).
  for (int64_t budget : {4, 8}) {
    EnumerationOptions opts;
    opts.max_candidates = budget;
    StandaloneWorlds worlds =
        EnumerateStandaloneWorlds(rel, m1.inputs(), m1.outputs(), v, opts);
    EXPECT_EQ(worlds.status.code(), StatusCode::kResourceExhausted)
        << "budget " << budget;
    EXPECT_TRUE(worlds.out_sets.empty()) << "budget " << budget;
    EXPECT_EQ(worlds.num_worlds, 0) << "budget " << budget;
  }
}

TEST(StandaloneWorldsDeathTest, SafetyCheckDiesOverBudget) {
  // A bare verdict has no status channel: empty OUT sets (min INT64_MAX)
  // must never read as "safe".
  Fig1Workflow fig = MakeFig1Workflow();
  const Module& m1 = fig.workflow->module(fig.m1_index);
  Relation rel = m1.FullRelation();
  Bitset64 v = Bitset64::Of(7, {fig.a1, fig.a3, fig.a5});
  EnumerationOptions opts;
  opts.max_candidates = 8;
  EXPECT_DEATH(IsStandaloneSafeByEnumeration(rel, m1.inputs(), m1.outputs(),
                                             v, 2, opts),
               "too large after pruning");
}

// Property (Lemma 2 + flip construction): the Algorithm-2 counting
// semantics agree EXACTLY with brute-force world enumeration — both the
// minimum OUT size and every individual OUT set.
class CountingVsBruteForceTest : public ::testing::TestWithParam<int> {};

TEST_P(CountingVsBruteForceTest, OutSetsMatch) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  auto catalog = std::make_shared<AttributeCatalog>();
  for (int i = 0; i < 4; ++i) catalog->Add("a" + std::to_string(i), 2);
  ModulePtr mod = MakeRandomFunction("f", catalog, {0, 1}, {2, 3}, &rng);
  Relation rel = mod->FullRelation();

  ForEachSubset(4, [&](const Bitset64& visible) {
    StandaloneWorlds worlds = EnumerateStandaloneWorlds(
        rel, mod->inputs(), mod->outputs(), visible);
    EXPECT_EQ(worlds.MinOutSize(),
              MaxStandaloneGamma(rel, mod->inputs(), mod->outputs(), visible))
        << "visible=" << visible.ToString();
    for (const auto& [x, outs] : worlds.out_sets) {
      EXPECT_EQ(static_cast<int64_t>(outs.size()),
                OutSetSize(rel, mod->inputs(), mod->outputs(), visible, x));
      std::vector<Tuple> expected(outs.begin(), outs.end());
      EXPECT_EQ(OutSet(rel, mod->inputs(), mod->outputs(), visible, x),
                expected);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RandomModules, CountingVsBruteForceTest,
                         ::testing::Range(0, 8));

TEST(WorkflowWorldsTest, Prop2ChainWorldCounts) {
  // Proposition 2 (Appendix B.1), k = 2, Γ = 2: hiding one intermediate
  // bit gives |Worlds(R1,V)| = Γ^{2^k} = 16 standalone worlds but only
  // (Γ!)^{2^k/Γ} = 4 distinct workflow relations.
  Prop2Chain chain = MakeProp2Chain(2);
  const Module& m1 = chain.workflow->module(0);
  // Hide y0 (one of m1's outputs).
  Bitset64 hidden = Bitset64::Of(6, {2});
  Bitset64 visible = hidden.Complement();

  StandaloneWorlds standalone = EnumerateStandaloneWorlds(
      m1.FullRelation(), m1.inputs(), m1.outputs(), visible);
  EXPECT_EQ(standalone.num_worlds, 16);
  EXPECT_EQ(standalone.MinOutSize(), 2);

  WorkflowWorlds workflow_worlds =
      EnumerateWorkflowWorlds(*chain.workflow, visible, {});
  EXPECT_EQ(workflow_worlds.num_distinct_relations, 4);
  // Yet privacy is identical: every input of m1 still has 2 possible
  // outputs (the heart of Lemma 1).
  EXPECT_EQ(workflow_worlds.MinOutSize(0), 2);
  EXPECT_EQ(workflow_worlds.MinOutSize(1), 2);
}

TEST(WorkflowWorldsTest, FixedModulesConstrainWorlds) {
  // Example 7 shape, k = 1: public constant → private bijection. With the
  // public module fixed, hiding the intermediate attribute leaves the
  // bijection's output on the constant exposed via the visible final attr.
  Rng rng(5);
  Example7Chain chain = MakeExample7Chain(1, &rng);
  Bitset64 hidden = Bitset64::Of(3, {1});  // the intermediate attribute v0
  Bitset64 visible = hidden.Complement();
  WorkflowWorlds constrained = EnumerateWorkflowWorlds(
      *chain.workflow, visible, {chain.constant_index});
  // The actual input of the private module is the constant; its output is
  // visible, so OUT for that input is a singleton.
  EXPECT_EQ(constrained.MinOutSize(chain.bijection_index), 1);

  // Once the public module is free (privatized), 2 outputs are possible.
  WorkflowWorlds free = EnumerateWorkflowWorlds(*chain.workflow, visible, {});
  EXPECT_EQ(free.MinOutSize(chain.bijection_index), 2);
}

TEST(WorkflowWorldsTest, OverBudgetTablesReturnResourceExhausted) {
  // fig1's log has one execution per (a1, a2): 4 executions.
  Fig1Workflow fig = MakeFig1Workflow();
  WorkflowTablesOptions topts;
  topts.max_executions = 3;
  std::shared_ptr<const WorkflowTables> tables =
      BuildWorkflowTables(*fig.workflow, topts);
  EXPECT_EQ(tables->status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(tables->orig_rows.empty());
  // The enumerator hands the build's status back instead of walking.
  WorkflowWorlds worlds = EnumerateWorkflowWorlds(
      *tables, Bitset64::Of(7, {fig.a1, fig.a7}), {});
  EXPECT_EQ(worlds.status.code(), StatusCode::kResourceExhausted);
}

TEST(WorkflowWorldsTest, OverBudgetWalkReturnsResourceExhausted) {
  Fig1Workflow fig = MakeFig1Workflow();
  WorkflowEnumerationOptions opts;
  opts.max_candidates = 1;
  WorkflowWorlds worlds = EnumerateWorkflowWorlds(
      *fig.workflow, Bitset64::Of(7, {fig.a1, fig.a7}), {}, opts);
  EXPECT_EQ(worlds.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(worlds.num_function_choices, 0);
  for (const auto& sets : worlds.out_sets) EXPECT_TRUE(sets.empty());
}

TEST(WorkflowWorldsTest, AllVisibleSingleWorld) {
  Prop2Chain chain = MakeProp2Chain(1);
  WorkflowWorlds worlds =
      EnumerateWorkflowWorlds(*chain.workflow, Bitset64::All(3), {});
  EXPECT_EQ(worlds.num_distinct_relations, 1);
  EXPECT_EQ(worlds.MinOutSize(0), 1);
}

}  // namespace
}  // namespace provview
