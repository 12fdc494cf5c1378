// The lazy workflow walk against the naive joint odometer on the two
// shapes the fast suites cannot afford: the worlds-audit built-ins through
// CertifyWorkflowBatch's ground truth, and an execution log deep enough
// that a walk recursing once per execution would overflow the stack. Kept
// apart from workflow_worlds_equivalence_test because the naive oracle
// dominates their run time, under the sanitizers most of all.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "generators/families.h"
#include "module/module_library.h"
#include "privacy/possible_worlds.h"
#include "privacy/workflow_privacy.h"

namespace provview {
namespace {

void ExpectIdentical(const WorkflowWorlds& naive, const WorkflowWorlds& fast) {
  EXPECT_EQ(naive.num_function_choices, fast.num_function_choices);
  EXPECT_EQ(naive.num_distinct_relations, fast.num_distinct_relations);
  EXPECT_EQ(naive.out_sets, fast.out_sets);
}

// Γ-privacy verdict: |OUT| reaches Γ on every input of every private module.
bool PrivateVerdict(const Workflow& w, const WorkflowWorlds& r,
                    int64_t gamma) {
  bool verdict = true;
  for (int i : w.PrivateModuleIndices()) {
    verdict = verdict && (r.early_stopped || r.MinOutSize(i) >= gamma);
  }
  return verdict;
}

TEST(WorkflowWalkOracleTest, AuditVerdictsMatchNaiveOracle) {
  // The worlds-audit built-ins (seeded as the daemon registers them):
  // CertifyWorkflowBatch's ground truth on 16 seeded masks each must equal
  // the Γ = 2 verdict of the naive joint odometer.
  Prop2Chain prop2 = MakeProp2Chain(2);
  Rng e7_rng(0x706f6475u);
  Example7Chain e7 = MakeExample7Chain(2, &e7_rng);
  const int64_t gamma = 2;
  for (const Workflow* w : {prop2.workflow.get(), e7.workflow.get()}) {
    const int num_attrs = w->catalog()->size();
    Rng mask_rng(static_cast<uint64_t>(num_attrs) * 1009 + 17);
    std::vector<WorkflowCertificationRequest> requests;
    for (int r = 0; r < 16; ++r) {
      Bitset64 hidden(num_attrs);
      for (int a = 0; a < num_attrs; ++a) {
        if (mask_rng.NextBernoulli(0.5)) hidden.Set(a);
      }
      requests.push_back({hidden, gamma});
    }
    WorkflowBatchOptions opts;
    opts.with_ground_truth = true;
    WorkflowBatchResult batch = CertifyWorkflowBatch(*w, requests, opts);
    ASSERT_TRUE(batch.status.ok()) << batch.status.message();
    for (size_t r = 0; r < requests.size(); ++r) {
      WorkflowWorlds naive = EnumerateWorkflowWorldsNaive(
          *w, requests[r].hidden.Complement(), {});
      EXPECT_EQ(PrivateVerdict(*w, naive, gamma),
                batch.entries[r].ground_truth_private)
          << "request " << r;
    }
  }
}

TEST(WorkflowWalkOracleTest, DeepLogMatchesNaive) {
  // 2^17 executions (17 boolean initial inputs) and one small free module:
  // a walk that recursed once per execution would overflow the stack here.
  // x1..x16 feed a fixed public parity; the free module negates x0.
  auto catalog = std::make_shared<AttributeCatalog>();
  std::vector<AttrId> x;
  for (int i = 0; i < 17; ++i) {
    x.push_back(catalog->Add("x" + std::to_string(i)));
  }
  const AttrId y = catalog->Add("y");
  const AttrId z = catalog->Add("z");
  Workflow wf(catalog);
  wf.AddModule(MakeNegation("free", catalog, {x[0]}, {y}));
  ModulePtr parity = MakeParity(
      "parity", catalog, std::vector<AttrId>(x.begin() + 1, x.end()), z);
  parity->set_public(true);
  wf.AddModule(std::move(parity));
  ASSERT_TRUE(wf.Validate().ok());
  auto tables = BuildWorkflowTables(wf);
  ASSERT_TRUE(tables->status.ok());
  ASSERT_EQ(tables->num_execs, int64_t{1} << 17);

  // Hiding y leaves all four functions of the free module consistent.
  Bitset64 hidden(catalog->size());
  hidden.Set(y);
  const Bitset64 visible = hidden.Complement();
  WorkflowWorlds naive = EnumerateWorkflowWorldsNaive(wf, visible, {1});
  WorkflowWorlds fast = EnumerateWorkflowWorlds(*tables, visible, {1});
  ExpectIdentical(naive, fast);
  EXPECT_EQ(fast.num_function_choices, 4);
}

}  // namespace
}  // namespace provview
