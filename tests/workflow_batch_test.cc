// Batch certification driver: CertifyWorkflowBatch must agree with the
// one-at-a-time CertifyWorkflowPrivacy / GroundTruthWorkflowGamma paths
// while actually sharing work (memo hits across requests), at any thread
// count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/task_graph.h"
#include "generators/families.h"
#include "generators/random_workflow.h"
#include "privacy/possible_worlds.h"
#include "privacy/workflow_privacy.h"
#include "workflow/fig1_workflow.h"

namespace provview {
namespace {

// Every subset of `attrs` as a hidden mask over a `universe`-wide catalog.
std::vector<Bitset64> SubsetMasks(int universe, const std::vector<int>& attrs) {
  std::vector<Bitset64> masks;
  for (uint32_t bits = 0; bits < (1u << attrs.size()); ++bits) {
    Bitset64 m(universe);
    for (size_t b = 0; b < attrs.size(); ++b) {
      if ((bits >> b) & 1u) m.Set(attrs[b]);
    }
    masks.push_back(std::move(m));
  }
  return masks;
}

// Every subset of the workflow's used attributes as a hidden-set request.
std::vector<WorkflowCertificationRequest> AllSubsetRequests(
    const Workflow& workflow, int64_t gamma) {
  const int universe = workflow.catalog()->size();
  std::vector<int> used = workflow.used_attrs().ToVector();
  std::vector<WorkflowCertificationRequest> requests;
  for (uint64_t mask = 0; mask < (uint64_t{1} << used.size()); ++mask) {
    Bitset64 hidden(universe);
    for (size_t b = 0; b < used.size(); ++b) {
      if ((mask >> b) & 1u) hidden.Set(used[b]);
    }
    requests.push_back(WorkflowCertificationRequest{hidden, gamma});
  }
  return requests;
}

TEST(WorkflowBatchTest, MatchesPerRequestCertification) {
  Rng rng(7);
  RandomWorkflowOptions options;
  options.num_modules = 3;
  options.max_inputs = 2;
  options.max_outputs = 1;
  GeneratedWorkflow g = MakeRandomWorkflow(options, &rng);
  std::vector<WorkflowCertificationRequest> requests =
      AllSubsetRequests(*g.workflow, 2);

  WorkflowBatchResult batch = CertifyWorkflowBatch(*g.workflow, requests);
  ASSERT_EQ(batch.entries.size(), requests.size());
  for (size_t r = 0; r < requests.size(); ++r) {
    PrivacyCertificate single = CertifyWorkflowPrivacy(
        *g.workflow, requests[r].hidden, requests[r].gamma);
    const PrivacyCertificate& batched = batch.entries[r].certificate;
    EXPECT_EQ(single.certified, batched.certified) << "request " << r;
    EXPECT_EQ(single.module_gammas, batched.module_gammas) << "request " << r;
    EXPECT_EQ(single.required_privatizations,
              batched.required_privatizations)
        << "request " << r;
  }
}

TEST(WorkflowBatchTest, SharesVerdictsAcrossRequests) {
  Rng rng(11);
  RandomWorkflowOptions options;
  options.num_modules = 2;
  options.max_inputs = 2;
  options.max_outputs = 1;
  GeneratedWorkflow g = MakeRandomWorkflow(options, &rng);
  std::vector<WorkflowCertificationRequest> requests =
      AllSubsetRequests(*g.workflow, 2);

  WorkflowBatchResult batch = CertifyWorkflowBatch(*g.workflow, requests);
  // Each request touches every private module once; without sharing that
  // would be |requests| × |private| checker calls. Hidden sets differing
  // only outside a module's attributes (and projection-equal ones) must
  // answer from the memo.
  const int64_t lookups = batch.stats.checker_calls + batch.stats.cache_hits;
  EXPECT_EQ(lookups,
            static_cast<int64_t>(requests.size() *
                                 g.workflow->PrivateModuleIndices().size()));
  EXPECT_GT(batch.stats.cache_hits, 0);
  EXPECT_LT(batch.stats.checker_calls, lookups / 2);
  EXPECT_GT(batch.stats.HitRate(), 0.5);
}

TEST(WorkflowBatchTest, ThreadCountsFieldIdenticalAndMatchOracles) {
  // Randomized determinism check of the task-graph driver (one task per
  // module + overlapped, sharded ground truth):
  // at 2/4/8 threads every entry AND the stats must equal the one-thread
  // run (the same graph, run inline), and that run must match the
  // independent oracles — one-at-a-time CertifyWorkflowPrivacy for the
  // certificate and GroundTruthWorkflowGamma for the possible-worlds
  // verdict.
  for (uint64_t seed : {uint64_t{13}, uint64_t{101}, uint64_t{977}}) {
    Rng rng(seed);
    RandomWorkflowOptions options;
    options.num_modules = 4;
    options.max_inputs = 2;
    options.max_outputs = 1;
    GeneratedWorkflow g = MakeRandomWorkflow(options, &rng);
    std::vector<WorkflowCertificationRequest> requests =
        AllSubsetRequests(*g.workflow, 2);

    WorkflowBatchOptions one;
    one.num_threads = 1;
    one.with_ground_truth = true;
    const WorkflowBatchResult want =
        CertifyWorkflowBatch(*g.workflow, requests, one);
    ASSERT_TRUE(want.status.ok()) << want.status.ToString();
    ASSERT_EQ(want.entries.size(), requests.size());
    for (size_t r = 0; r < requests.size(); ++r) {
      const PrivacyCertificate single = CertifyWorkflowPrivacy(
          *g.workflow, requests[r].hidden, requests[r].gamma);
      const PrivacyCertificate& batched = want.entries[r].certificate;
      EXPECT_EQ(single.certified, batched.certified) << "request " << r;
      EXPECT_EQ(single.module_gammas, batched.module_gammas);
      EXPECT_EQ(single.required_privatizations,
                batched.required_privatizations);
      EXPECT_EQ(want.entries[r].ground_truth_private,
                GroundTruthWorkflowGamma(*g.workflow, requests[r].hidden,
                                         {}) >= requests[r].gamma)
          << "seed " << seed << " request " << r;
    }

    for (int threads : {2, 4, 8}) {
      WorkflowBatchOptions opts = one;
      opts.num_threads = threads;
      const WorkflowBatchResult got =
          CertifyWorkflowBatch(*g.workflow, requests, opts);
      ASSERT_TRUE(got.status.ok()) << got.status.ToString();
      ASSERT_EQ(got.entries.size(), want.entries.size());
      for (size_t r = 0; r < got.entries.size(); ++r) {
        EXPECT_EQ(got.entries[r].certificate.certified,
                  want.entries[r].certificate.certified)
            << "seed " << seed << " threads " << threads << " request " << r;
        EXPECT_EQ(got.entries[r].certificate.module_gammas,
                  want.entries[r].certificate.module_gammas);
        EXPECT_EQ(got.entries[r].certificate.required_privatizations,
                  want.entries[r].certificate.required_privatizations);
        EXPECT_EQ(got.entries[r].ground_truth_private,
                  want.entries[r].ground_truth_private);
      }
      EXPECT_EQ(got.stats.checker_calls, want.stats.checker_calls)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(got.stats.cache_hits, want.stats.cache_hits)
          << "seed " << seed << " threads " << threads;
    }
  }
}

TEST(WorkflowBatchTest, SharesBankAcrossBatches) {
  // The memo bank carries verdicts across batches at any thread count: a
  // second identical batch answers fully from the memo.
  Rng rng(29);
  RandomWorkflowOptions options;
  options.num_modules = 3;
  options.max_inputs = 2;
  options.max_outputs = 1;
  GeneratedWorkflow g = MakeRandomWorkflow(options, &rng);
  std::vector<WorkflowCertificationRequest> requests =
      AllSubsetRequests(*g.workflow, 2);

  for (int threads : {1, 2, 4, 8}) {
    WorkflowCacheNamespace bank(*g.workflow);
    WorkflowBatchOptions opts;
    opts.num_threads = threads;
    WorkflowBatchResult first =
        CertifyWorkflowBatch(*g.workflow, requests, opts, &bank);
    WorkflowBatchResult second =
        CertifyWorkflowBatch(*g.workflow, requests, opts, &bank);
    ASSERT_TRUE(first.status.ok());
    ASSERT_TRUE(second.status.ok());
    EXPECT_GT(first.stats.checker_calls, 0) << "threads " << threads;
    EXPECT_EQ(second.stats.checker_calls, 0) << "threads " << threads;
    EXPECT_GT(second.stats.cache_hits, 0) << "threads " << threads;
    for (size_t r = 0; r < requests.size(); ++r) {
      EXPECT_EQ(first.entries[r].certificate.certified,
                second.entries[r].certificate.certified);
    }
  }
}

TEST(WorkflowBatchTest, GroundTruthMatchesSingleCalls) {
  Rng rng(19);
  Example7Chain chain = MakeExample7Chain(2, &rng);
  const Module& priv = chain.workflow->module(chain.bijection_index);
  Bitset64 input_hidden(chain.catalog->size());
  for (AttrId id : priv.inputs()) input_hidden.Set(id);
  Bitset64 nothing_hidden(chain.catalog->size());

  std::vector<WorkflowCertificationRequest> requests = {
      {input_hidden, 4}, {input_hidden, 1}, {nothing_hidden, 2}};
  WorkflowBatchOptions opts;
  opts.with_ground_truth = true;
  opts.visible_public_modules = {chain.constant_index};
  WorkflowBatchResult batch =
      CertifyWorkflowBatch(*chain.workflow, requests, opts);
  ASSERT_EQ(batch.entries.size(), requests.size());
  for (size_t r = 0; r < requests.size(); ++r) {
    const int64_t truth = GroundTruthWorkflowGamma(
        *chain.workflow, requests[r].hidden, {chain.constant_index});
    EXPECT_EQ(batch.entries[r].ground_truth_private,
              truth >= requests[r].gamma)
        << "request " << r;
  }
  // Example 7's point: standalone-certified but not workflow-private while
  // the public constant stays visible.
  EXPECT_TRUE(batch.entries[0].certificate.certified);
  EXPECT_FALSE(batch.entries[0].ground_truth_private);
}

TEST(WorkflowBatchTest, StreamedMemosMatchDefaultThreshold) {
  // materialize_threshold = 0 streams every private module's rows in the
  // batch-local memos; verdicts and SafeSearchStats must equal the default
  // (materialized) batch at 1 and 4 threads.
  Fig1Workflow fig = MakeFig1Workflow();
  std::vector<WorkflowCertificationRequest> requests =
      AllSubsetRequests(*fig.workflow, 2);
  for (int threads : {1, 4}) {
    WorkflowBatchOptions materialized;
    materialized.num_threads = threads;
    WorkflowBatchOptions streamed = materialized;
    streamed.materialize_threshold = 0;
    const WorkflowBatchResult want =
        CertifyWorkflowBatch(*fig.workflow, requests, materialized);
    const WorkflowBatchResult got =
        CertifyWorkflowBatch(*fig.workflow, requests, streamed);
    ASSERT_TRUE(want.status.ok());
    ASSERT_TRUE(got.status.ok());
    ASSERT_EQ(got.entries.size(), want.entries.size());
    for (size_t r = 0; r < got.entries.size(); ++r) {
      EXPECT_EQ(got.entries[r].certificate.certified,
                want.entries[r].certificate.certified)
          << "threads " << threads << " request " << r;
      EXPECT_EQ(got.entries[r].certificate.module_gammas,
                want.entries[r].certificate.module_gammas);
      EXPECT_EQ(got.entries[r].certificate.required_privatizations,
                want.entries[r].certificate.required_privatizations);
    }
    EXPECT_EQ(got.stats.subsets_examined, want.stats.subsets_examined);
    EXPECT_EQ(got.stats.checker_calls, want.stats.checker_calls);
    EXPECT_EQ(got.stats.cache_hits, want.stats.cache_hits);
  }

  // The threshold reaches the memos: a streamed module is evaluated on
  // every checker pass, a materialized one once per domain point.
  auto catalog = std::make_shared<AttributeCatalog>();
  const AttrId x0 = catalog->Add("x0");
  const AttrId x1 = catalog->Add("x1");
  const AttrId y0 = catalog->Add("y0");
  const AttrId y1 = catalog->Add("y1");
  auto evals = std::make_shared<std::atomic<int64_t>>(0);
  Workflow wf(catalog);
  wf.AddModule(std::make_unique<LambdaModule>(
      "swap", catalog, std::vector<AttrId>{x0, x1},
      std::vector<AttrId>{y0, y1}, [evals](const Tuple& in) {
        evals->fetch_add(1, std::memory_order_relaxed);
        return Tuple{in[1], in[0]};
      }));
  ASSERT_TRUE(wf.Validate().ok());
  const std::vector<WorkflowCertificationRequest> swap_requests =
      AllSubsetRequests(wf, 2);
  auto evals_of = [&](int64_t threshold) {
    WorkflowBatchOptions opts;
    opts.num_threads = 1;
    opts.materialize_threshold = threshold;
    evals->store(0);
    EXPECT_TRUE(CertifyWorkflowBatch(wf, swap_requests, opts).status.ok());
    return evals->load();
  };
  EXPECT_EQ(evals_of(Module::kDefaultMaterializeRows), 4);
  EXPECT_GT(evals_of(0), 4);
}

TEST(WorkflowBatchTest, AuditMasksFieldIdenticalAcrossThreadsAndExecutors) {
  // Every mask the worlds audit certifies — fig1's 32 subsets of a3..a7 and
  // all 64 masks of prop2-chain and example7-chain (built as podsd's
  // registry builds them) — at Γ = 1, 2, 3. Ground-truth walks shard on the
  // batch's executor, where the Γ short-circuit fires at a
  // schedule-dependent point; entries and stats must still equal the
  // one-thread batch at 2 and 4 threads, with and without a caller-owned
  // executor, and the verdict must equal the full walk's Γ >= target.
  struct Target {
    std::string name;
    CatalogPtr catalog;
    WorkflowPtr workflow;
    std::vector<Bitset64> masks;
  };
  std::vector<Target> targets;
  {
    Fig1Workflow fig = MakeFig1Workflow();
    std::vector<Bitset64> masks = SubsetMasks(
        fig.catalog->size(), {fig.a3, fig.a4, fig.a5, fig.a6, fig.a7});
    targets.push_back(
        {"fig1", fig.catalog, std::move(fig.workflow), std::move(masks)});
  }
  {
    Prop2Chain chain = MakeProp2Chain(/*k=*/2);
    targets.push_back(
        {"prop2-chain", chain.catalog, std::move(chain.workflow), {}});
  }
  {
    Rng rng(0x706f6475u);  // the seed of podsd's built-in example7-chain
    Example7Chain chain = MakeExample7Chain(/*k=*/2, &rng);
    targets.push_back(
        {"example7-chain", chain.catalog, std::move(chain.workflow), {}});
  }
  for (size_t t = 1; t < targets.size(); ++t) {
    std::vector<int> all;
    for (int a = 0; a < targets[t].catalog->size(); ++a) all.push_back(a);
    targets[t].masks = SubsetMasks(targets[t].catalog->size(), all);
  }

  TaskGraphExecutor executor(3);
  for (const Target& target : targets) {
    std::vector<int64_t> truth;  // full walk, no short-circuit
    for (const Bitset64& m : target.masks) {
      truth.push_back(GroundTruthWorkflowGamma(*target.workflow, m, {}));
    }
    for (int64_t gamma : {1, 2, 3}) {
      std::vector<WorkflowCertificationRequest> requests;
      for (const Bitset64& m : target.masks) requests.push_back({m, gamma});
      WorkflowBatchOptions one;
      one.num_threads = 1;
      one.with_ground_truth = true;
      const WorkflowBatchResult want =
          CertifyWorkflowBatch(*target.workflow, requests, one);
      ASSERT_TRUE(want.status.ok()) << want.status.ToString();
      ASSERT_EQ(want.entries.size(), requests.size());
      for (size_t r = 0; r < requests.size(); ++r) {
        EXPECT_EQ(want.entries[r].ground_truth_private, truth[r] >= gamma)
            << target.name << " gamma " << gamma << " mask " << r;
      }
      for (int threads : {1, 2, 4}) {
        for (TaskGraphExecutor* shared : {static_cast<TaskGraphExecutor*>(
                                              nullptr),
                                          &executor}) {
          if (threads == 1 && shared == nullptr) continue;  // `want` itself
          WorkflowBatchOptions opts = one;
          opts.num_threads = threads;
          opts.executor = shared;
          const WorkflowBatchResult got =
              CertifyWorkflowBatch(*target.workflow, requests, opts);
          const std::string where =
              target.name + " gamma " + std::to_string(gamma) + " threads " +
              std::to_string(threads) +
              (shared != nullptr ? " shared executor" : " own executor");
          ASSERT_TRUE(got.status.ok()) << where << ": " << got.status.ToString();
          ASSERT_EQ(got.entries.size(), want.entries.size()) << where;
          for (size_t r = 0; r < got.entries.size(); ++r) {
            const WorkflowBatchEntry& g = got.entries[r];
            const WorkflowBatchEntry& w = want.entries[r];
            EXPECT_EQ(g.certificate.certified, w.certificate.certified)
                << where << " mask " << r;
            EXPECT_EQ(g.certificate.module_gammas, w.certificate.module_gammas)
                << where << " mask " << r;
            EXPECT_EQ(g.certificate.required_privatizations,
                      w.certificate.required_privatizations)
                << where << " mask " << r;
            EXPECT_EQ(g.ground_truth_private, w.ground_truth_private)
                << where << " mask " << r;
          }
          EXPECT_EQ(got.stats.subsets_examined, want.stats.subsets_examined)
              << where;
          EXPECT_EQ(got.stats.checker_calls, want.stats.checker_calls) << where;
          EXPECT_EQ(got.stats.cache_hits, want.stats.cache_hits) << where;
        }
      }
    }
  }
}

TEST(WorkflowBatchTest, OverBudgetGroundTruthReturnsResourceExhausted) {
  // No ExecControl attached: the enumerator's candidate budget still comes
  // back as a typed status, and no ground-truth verdict is claimed.
  Fig1Workflow fig = MakeFig1Workflow();
  const Bitset64 hidden = Bitset64::Of(7, {fig.a2, fig.a4});
  WorkflowBatchOptions opts;
  opts.with_ground_truth = true;
  opts.max_candidates = 1;
  WorkflowBatchResult batch =
      CertifyWorkflowBatch(*fig.workflow, {{hidden, 2}}, opts);
  EXPECT_EQ(batch.status.code(), StatusCode::kResourceExhausted)
      << batch.status.message();
  ASSERT_EQ(batch.entries.size(), 1u);
  EXPECT_FALSE(batch.entries[0].ground_truth_private);
}

TEST(WorkflowBatchTest, BudgetedWavesInferOnlyFromOkWalks) {
  // fig1's 32 masks at Γ = 2 (mostly private) and Γ = 3 (none private),
  // under candidate budgets that refuse the larger walks. A refused walk
  // decides nothing, but an OK walk's verdict still settles the keys it
  // implies by monotonicity. So a private entry is private without the
  // budget, and every mask whose own budgeted batch is OK gets that
  // batch's verdict.
  Fig1Workflow fig = MakeFig1Workflow();
  const std::vector<Bitset64> masks = SubsetMasks(
      fig.catalog->size(), {fig.a3, fig.a4, fig.a5, fig.a6, fig.a7});
  const std::shared_ptr<const WorkflowTables> tables =
      BuildWorkflowTables(*fig.workflow);
  std::vector<int64_t> spaces;
  for (const Bitset64& m : masks) {
    WorkflowEnumerationOptions wopts;
    wopts.gamma = 2;
    wopts.collect_distinct_relations = false;
    spaces.push_back(
        EnumerateWorkflowWorlds(*tables, m.Complement(), {}, wopts)
            .pruned_candidates);
  }
  std::sort(spaces.begin(), spaces.end());
  ASSERT_LT(spaces.front(), spaces.back());

  bool some_refused = false;
  for (int64_t gamma : {2, 3}) {
    std::vector<WorkflowCertificationRequest> requests;
    for (const Bitset64& m : masks) requests.push_back({m, gamma});
    WorkflowBatchOptions free_opts;
    free_opts.num_threads = 1;
    free_opts.with_ground_truth = true;
    const WorkflowBatchResult unbudgeted =
        CertifyWorkflowBatch(*fig.workflow, requests, free_opts);
    ASSERT_TRUE(unbudgeted.status.ok()) << unbudgeted.status.ToString();

    for (size_t q : {spaces.size() / 4, spaces.size() / 2,
                     3 * spaces.size() / 4}) {
      WorkflowBatchOptions one = free_opts;
      one.max_candidates = spaces[q];
      const WorkflowBatchResult got =
          CertifyWorkflowBatch(*fig.workflow, requests, one);
      const std::string where = "gamma " + std::to_string(gamma) +
                                " budget " + std::to_string(spaces[q]);
      ASSERT_TRUE(got.status.ok() ||
                  got.status.code() == StatusCode::kResourceExhausted)
          << where << ": " << got.status.ToString();
      some_refused = some_refused || !got.status.ok();
      bool single_refused = false;
      for (size_t r = 0; r < requests.size(); ++r) {
        const WorkflowBatchResult single =
            CertifyWorkflowBatch(*fig.workflow, {requests[r]}, one);
        if (single.status.ok()) {
          EXPECT_EQ(got.entries[r].ground_truth_private,
                    single.entries[0].ground_truth_private)
              << where << " mask " << r;
        } else {
          EXPECT_EQ(single.status.code(), StatusCode::kResourceExhausted);
          single_refused = true;
        }
        if (got.entries[r].ground_truth_private) {
          EXPECT_TRUE(unbudgeted.entries[r].ground_truth_private)
              << where << " mask " << r;
        }
        // The certificates do not depend on the walks.
        EXPECT_EQ(got.entries[r].certificate.certified,
                  unbudgeted.entries[r].certificate.certified);
      }
      EXPECT_TRUE(single_refused) << where;
      if (got.status.ok()) {
        // No walk was refused, so every key was walked or inferred.
        for (size_t r = 0; r < requests.size(); ++r) {
          EXPECT_EQ(got.entries[r].ground_truth_private,
                    unbudgeted.entries[r].ground_truth_private)
              << where << " mask " << r;
        }
      }

      WorkflowBatchOptions four = one;
      four.num_threads = 4;
      const WorkflowBatchResult wide =
          CertifyWorkflowBatch(*fig.workflow, requests, four);
      EXPECT_EQ(wide.status.code(), got.status.code()) << where;
      EXPECT_EQ(wide.status.message(), got.status.message()) << where;
      EXPECT_EQ(wide.ground_truth_walks, got.ground_truth_walks) << where;
      for (size_t r = 0; r < requests.size(); ++r) {
        EXPECT_EQ(wide.entries[r].ground_truth_private,
                  got.entries[r].ground_truth_private)
            << where << " mask " << r;
        EXPECT_EQ(wide.entries[r].certificate.module_gammas,
                  got.entries[r].certificate.module_gammas)
            << where << " mask " << r;
      }
    }
  }
  // At least one budget made a batch walk a key it had to refuse.
  EXPECT_TRUE(some_refused);
}

}  // namespace
}  // namespace provview
