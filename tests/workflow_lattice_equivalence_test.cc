// Equivalence suite for batch ground truth over the mask lattice: a batch
// walks antichains of its distinct (hidden, Γ) keys in waves and infers the
// other verdicts by monotonicity. On random mask lists — duplicates and
// mixed Γ included — every verdict must equal a one-request batch of the
// same mask, and the walk count and every entry must be the same at any
// thread count, with or without a caller-owned executor.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/task_graph.h"
#include "generators/families.h"
#include "generators/random_workflow.h"
#include "privacy/workflow_privacy.h"
#include "workflow/fig1_workflow.h"

namespace provview {
namespace {

struct Case {
  std::string name;
  CatalogPtr catalog;
  WorkflowPtr workflow;
  std::vector<int> attrs;         // masks are drawn over these attributes
  std::vector<int> fixed_public;  // visible_public_modules
};

std::vector<Case> Cases() {
  std::vector<Case> cases;
  {
    Fig1Workflow fig = MakeFig1Workflow();
    cases.push_back({"fig1", fig.catalog, std::move(fig.workflow),
                     {fig.a3, fig.a4, fig.a5, fig.a6, fig.a7}, {}});
  }
  {
    Prop2Chain chain = MakeProp2Chain(/*k=*/2);
    cases.push_back(
        {"prop2-chain", chain.catalog, std::move(chain.workflow), {}, {}});
  }
  {
    Rng rng(0x706f6475u);  // the seed of podsd's built-in example7-chain
    Example7Chain chain = MakeExample7Chain(/*k=*/2, &rng);
    const int fixed = chain.constant_index;
    cases.push_back({"example7-chain", chain.catalog,
                     std::move(chain.workflow), {}, {fixed}});
  }
  for (uint64_t seed : {uint64_t{5}, uint64_t{29}, uint64_t{311}}) {
    Rng rng(seed);
    RandomWorkflowOptions options;
    options.num_modules = 3;
    options.max_inputs = 2;
    options.max_outputs = 1;
    options.public_fraction = 0.34;
    GeneratedWorkflow g = MakeRandomWorkflow(options, &rng);
    std::vector<int> attrs = g.workflow->used_attrs().ToVector();
    std::vector<int> publics = g.workflow->PublicModuleIndices();
    cases.push_back({"random seed " + std::to_string(seed), g.catalog,
                     std::move(g.workflow), std::move(attrs),
                     std::move(publics)});
  }
  for (size_t c = 1; c < 3; ++c) {
    for (int a = 0; a < cases[c].catalog->size(); ++a) {
      cases[c].attrs.push_back(a);
    }
  }
  return cases;
}

// `count` requests over random subsets of `attrs` at Γ ∈ {1, 2, 3}; about
// one in four repeats an earlier request.
std::vector<WorkflowCertificationRequest> RandomRequests(
    const Case& c, int count, Rng* rng) {
  std::vector<WorkflowCertificationRequest> requests;
  for (int i = 0; i < count; ++i) {
    if (!requests.empty() && rng->NextBernoulli(0.25)) {
      requests.push_back(requests[rng->NextBelow(requests.size())]);
      continue;
    }
    Bitset64 hidden(c.catalog->size());
    for (int a : c.attrs) {
      if (rng->NextBernoulli(0.5)) hidden.Set(a);
    }
    requests.push_back({std::move(hidden), rng->NextInt(1, 3)});
  }
  return requests;
}

size_t DistinctKeys(const std::vector<WorkflowCertificationRequest>& reqs) {
  std::set<std::pair<int64_t, Bitset64>> keys;
  for (const WorkflowCertificationRequest& r : reqs) {
    keys.insert({r.gamma, r.hidden});
  }
  return keys.size();
}

TEST(WorkflowLatticeEquivalenceTest, WavesMatchSingleRequestsAtAnyThreads) {
  TaskGraphExecutor executor(3);
  Rng rng(0x6c617474u);
  // Over the whole suite, inference must have settled keys and both
  // verdicts must occur, or the comparison proves little.
  int64_t walks = 0, keys = 0, private_entries = 0, entries = 0;
  for (const Case& c : Cases()) {
    for (int round = 0; round < 3; ++round) {
      const std::vector<WorkflowCertificationRequest> requests =
          RandomRequests(c, 40, &rng);
      const std::string where = c.name + " round " + std::to_string(round);
      WorkflowBatchOptions one;
      one.num_threads = 1;
      one.with_ground_truth = true;
      one.visible_public_modules = c.fixed_public;
      const WorkflowBatchResult want =
          CertifyWorkflowBatch(*c.workflow, requests, one);
      ASSERT_TRUE(want.status.ok()) << where << ": " << want.status.ToString();
      ASSERT_EQ(want.entries.size(), requests.size());
      const int64_t distinct = static_cast<int64_t>(DistinctKeys(requests));
      EXPECT_GE(want.ground_truth_walks, 1) << where;
      EXPECT_LE(want.ground_truth_walks, distinct) << where;
      walks += want.ground_truth_walks;
      keys += distinct;

      // The oracle: each mask walked on its own.
      for (size_t r = 0; r < requests.size(); ++r) {
        const WorkflowBatchResult single =
            CertifyWorkflowBatch(*c.workflow, {requests[r]}, one);
        ASSERT_TRUE(single.status.ok()) << where;
        EXPECT_EQ(single.ground_truth_walks, 1) << where;
        EXPECT_EQ(want.entries[r].ground_truth_private,
                  single.entries[0].ground_truth_private)
            << where << " request " << r << " gamma " << requests[r].gamma;
        private_entries += want.entries[r].ground_truth_private ? 1 : 0;
        ++entries;
      }

      for (int threads : {1, 2, 4}) {
        for (TaskGraphExecutor* shared :
             {static_cast<TaskGraphExecutor*>(nullptr), &executor}) {
          if (threads == 1 && shared == nullptr) continue;  // `want` itself
          WorkflowBatchOptions opts = one;
          opts.num_threads = threads;
          opts.executor = shared;
          const WorkflowBatchResult got =
              CertifyWorkflowBatch(*c.workflow, requests, opts);
          const std::string at =
              where + " threads " + std::to_string(threads) +
              (shared != nullptr ? " shared executor" : " own executor");
          ASSERT_TRUE(got.status.ok()) << at << ": " << got.status.ToString();
          EXPECT_EQ(got.ground_truth_walks, want.ground_truth_walks) << at;
          ASSERT_EQ(got.entries.size(), want.entries.size()) << at;
          for (size_t r = 0; r < got.entries.size(); ++r) {
            const WorkflowBatchEntry& g = got.entries[r];
            const WorkflowBatchEntry& w = want.entries[r];
            EXPECT_EQ(g.ground_truth_private, w.ground_truth_private)
                << at << " request " << r;
            EXPECT_EQ(g.certificate.certified, w.certificate.certified)
                << at << " request " << r;
            EXPECT_EQ(g.certificate.module_gammas, w.certificate.module_gammas)
                << at << " request " << r;
            EXPECT_EQ(g.certificate.required_privatizations,
                      w.certificate.required_privatizations)
                << at << " request " << r;
          }
          EXPECT_EQ(got.stats.checker_calls, want.stats.checker_calls) << at;
          EXPECT_EQ(got.stats.cache_hits, want.stats.cache_hits) << at;
        }
      }
    }
  }
  EXPECT_LT(walks, keys);
  EXPECT_GT(private_entries, 0);
  EXPECT_LT(private_entries, entries);
}

TEST(WorkflowLatticeEquivalenceTest, RequestOrderDoesNotChangeTheWaves) {
  // The schedule runs over keys sorted by (Γ, hidden), so a shuffled
  // request list runs the same walks and permutes the same verdicts.
  Rng rng(0x77617665u);
  for (const Case& c : Cases()) {
    std::vector<WorkflowCertificationRequest> requests =
        RandomRequests(c, 48, &rng);
    WorkflowBatchOptions opts;
    opts.num_threads = 2;
    opts.with_ground_truth = true;
    opts.visible_public_modules = c.fixed_public;
    const WorkflowBatchResult want =
        CertifyWorkflowBatch(*c.workflow, requests, opts);
    ASSERT_TRUE(want.status.ok()) << c.name;
    std::vector<size_t> order(requests.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.Shuffle(&order);
    std::vector<WorkflowCertificationRequest> shuffled;
    for (size_t i : order) shuffled.push_back(requests[i]);
    const WorkflowBatchResult got =
        CertifyWorkflowBatch(*c.workflow, shuffled, opts);
    ASSERT_TRUE(got.status.ok()) << c.name;
    EXPECT_EQ(got.ground_truth_walks, want.ground_truth_walks) << c.name;
    for (size_t k = 0; k < order.size(); ++k) {
      EXPECT_EQ(got.entries[k].ground_truth_private,
                want.entries[order[k]].ground_truth_private)
          << c.name << " request " << order[k];
    }
  }
}

}  // namespace
}  // namespace provview
