// VerdictCache invariants: measured-byte budget enforcement, first-wins
// inserts, per-class accounting — and the contract the memo layer builds
// on: eviction only FORGETS verdicts. A memo over a byte-starved cache
// must produce field-identical results to one over an unbounded cache and
// to the cache-less baseline, and the shards must survive concurrent
// hammering from many threads while never exceeding the budget.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "generators/random_workflow.h"
#include "module/module_library.h"
#include "privacy/safe_subset_search.h"
#include "privacy/safety_memo.h"
#include "privacy/verdict_cache.h"
#include "privacy/workflow_privacy.h"

namespace provview {
namespace {

std::string Key(uint64_t i) {
  return "key-" + std::to_string(i * 0x9e3779b97f4a7c15ull);
}

// Deterministic per-key verdict so any cache hit can be validated.
int64_t GammaOf(uint64_t i) { return static_cast<int64_t>(i % 97) + 1; }

TEST(VerdictCacheTest, InsertAndLookupAcrossNamespaces) {
  VerdictCache cache;
  const uint32_t ns_a = cache.RegisterNamespace("a");
  const uint32_t ns_b = cache.RegisterNamespace("b");
  ASSERT_NE(ns_a, ns_b);

  EXPECT_TRUE(cache.Insert(ns_a, "k", 7));
  int64_t gamma = 0;
  EXPECT_TRUE(cache.Lookup(ns_a, "k", &gamma));
  EXPECT_EQ(gamma, 7);
  // Same key bytes, different namespace: distinct entries.
  EXPECT_FALSE(cache.Lookup(ns_b, "k", &gamma));
  EXPECT_TRUE(cache.Insert(ns_b, "k", 9));
  EXPECT_TRUE(cache.Lookup(ns_b, "k", &gamma));
  EXPECT_EQ(gamma, 9);
  EXPECT_TRUE(cache.Lookup(ns_a, "k", &gamma));
  EXPECT_EQ(gamma, 7);
  EXPECT_EQ(cache.Stats().namespaces, 2);
}

TEST(VerdictCacheTest, DropNamespaceForgetsOnlyItsEntries) {
  // Dropping a namespace forgets exactly its entries (both SLRU segments)
  // and gives their bytes back; other namespaces keep
  // answering, and a drained cache returns to zero measured bytes.
  VerdictCache cache;
  const uint32_t keep = cache.RegisterNamespace("keep");
  const uint32_t doomed = cache.RegisterNamespace("doomed");
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(cache.Insert(keep, Key(i), GammaOf(i)));
    ASSERT_TRUE(cache.Insert(doomed, Key(i), GammaOf(i)));
  }
  int64_t gamma = 0;
  for (uint64_t i = 0; i < 200; i += 2) {  // promote half into protected
    ASSERT_TRUE(cache.Lookup(doomed, Key(i), &gamma));
  }
  const int64_t full_bytes = cache.bytes_in_use();
  cache.DropNamespace(doomed);
  const VerdictCacheStats after = cache.Stats();
  EXPECT_EQ(after.namespaces, 1u);
  EXPECT_EQ(after.signature.entries, 200);
  EXPECT_EQ(after.signature.evictions, 0u);
  EXPECT_LT(cache.bytes_in_use(), full_bytes);
  for (uint64_t i = 0; i < 200; ++i) {
    EXPECT_FALSE(cache.Lookup(doomed, Key(i), &gamma));
    ASSERT_TRUE(cache.Lookup(keep, Key(i), &gamma));
    EXPECT_EQ(gamma, GammaOf(i));
  }
  cache.DropNamespace(keep);
  EXPECT_EQ(cache.Stats().namespaces, 0u);
  EXPECT_EQ(cache.bytes_in_use(), 0);
  // Ids are never reused.
  EXPECT_GT(cache.RegisterNamespace("fresh"), doomed);
}

TEST(VerdictCacheTest, DestroyedWorkflowNamespaceDropsItsVerdicts) {
  Rng rng(5);
  RandomWorkflowOptions options;
  options.num_modules = 3;
  options.max_inputs = 2;
  options.max_outputs = 1;
  GeneratedWorkflow g = MakeRandomWorkflow(options, &rng);
  auto cache = std::make_shared<VerdictCache>();
  {
    WorkflowCacheNamespace bank(*g.workflow, cache, "probe");
    const Bitset64 hidden(g.workflow->catalog()->size());
    WorkflowBatchResult r =
        CertifyWorkflowBatch(*g.workflow, {{hidden, 2}}, {}, &bank);
    ASSERT_TRUE(r.status.ok());
    EXPECT_GT(cache->bytes_in_use(), 0);
    EXPECT_GT(cache->Stats().namespaces, 0u);
  }
  EXPECT_EQ(cache->bytes_in_use(), 0);
  EXPECT_EQ(cache->Stats().namespaces, 0u);
}

TEST(VerdictCacheTest, FirstInsertWins) {
  // Verdicts are pure functions of their key: a second insert of the same
  // key is a no-op, never an overwrite.
  VerdictCache cache;
  const uint32_t ns = cache.RegisterNamespace("memo");
  EXPECT_TRUE(cache.Insert(ns, "k", 3));
  EXPECT_FALSE(cache.Insert(ns, "k", 5));
  int64_t gamma = 0;
  ASSERT_TRUE(cache.Lookup(ns, "k", &gamma));
  EXPECT_EQ(gamma, 3);
}

TEST(VerdictCacheTest, StatsTally) {
  VerdictCache cache;
  const uint32_t ns = cache.RegisterNamespace("memo");
  int64_t gamma = 0;
  cache.Lookup(ns, "s", &gamma);  // miss
  cache.Insert(ns, "s", 2);
  cache.Lookup(ns, "s", &gamma);  // hit
  cache.Insert(ns, "p", 4);

  const VerdictCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.signature.misses, 1);
  EXPECT_EQ(stats.signature.hits, 1);
  EXPECT_EQ(stats.signature.inserts, 2);
  EXPECT_EQ(stats.signature.entries, 2);
  // The retired projection class never tallies anything.
  EXPECT_EQ(stats.projection.hits + stats.projection.misses +
                stats.projection.inserts + stats.projection.evictions,
            0u);
  EXPECT_EQ(stats.projection.entries, 0);
  EXPECT_EQ(stats.projection.bytes, 0);
  // Measured accounting: entries charge real bytes, within the total.
  EXPECT_GT(stats.signature.bytes, 0);
  EXPECT_GE(stats.bytes_in_use, stats.signature.bytes);
  EXPECT_GE(stats.peak_bytes, stats.bytes_in_use);
  EXPECT_FALSE(cache.bounded());
}

TEST(VerdictCacheTest, UnboundedCacheNeverEvicts) {
  VerdictCache cache;
  const uint32_t ns = cache.RegisterNamespace("memo");
  for (uint64_t i = 0; i < 1000; ++i) {
    cache.Insert(ns, Key(i), GammaOf(i));
  }
  int64_t gamma = 0;
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(cache.Lookup(ns, Key(i), &gamma));
    EXPECT_EQ(gamma, GammaOf(i));
  }
  const VerdictCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.signature.evictions, 0);
  EXPECT_EQ(stats.signature.entries, 1000);
}

TEST(VerdictCacheTest, MeasuredBytesNeverExceedBudget) {
  VerdictCacheConfig config;
  config.byte_budget = 8192;
  config.num_shards = 2;
  VerdictCache cache(config);
  ASSERT_TRUE(cache.bounded());
  const uint32_t ns = cache.RegisterNamespace("memo");
  for (uint64_t i = 0; i < 2000; ++i) {
    cache.Insert(ns, Key(i), GammaOf(i));
    ASSERT_LE(cache.bytes_in_use(), config.byte_budget) << "after insert "
                                                        << i;
  }
  const VerdictCacheStats stats = cache.Stats();
  EXPECT_GT(stats.signature.evictions, 0);
  EXPECT_LT(stats.signature.entries, 2000);
  // Whatever survived is still correct — eviction only forgets.
  int64_t gamma = 0;
  int64_t survivors = 0;
  for (uint64_t i = 0; i < 2000; ++i) {
    if (cache.Lookup(ns, Key(i), &gamma)) {
      ++survivors;
      ASSERT_EQ(gamma, GammaOf(i)) << "key " << i;
    }
  }
  EXPECT_GT(survivors, 0);
}

TEST(VerdictCacheTest, RepeatedHitsSurviveScanEviction) {
  // Segmented LRU: a hot key promoted to the protected segment outlives a
  // one-pass scan of cold keys through probation.
  VerdictCacheConfig config;
  config.byte_budget = 4096;
  config.num_shards = 1;
  VerdictCache cache(config);
  const uint32_t ns = cache.RegisterNamespace("memo");
  cache.Insert(ns, "hot", 42);
  int64_t gamma = 0;
  ASSERT_TRUE(cache.Lookup(ns, "hot", &gamma));
  for (uint64_t i = 0; i < 500; ++i) {
    cache.Insert(ns, Key(i), GammaOf(i));
  }
  ASSERT_GT(cache.Stats().signature.evictions, 0);
  ASSERT_TRUE(cache.Lookup(ns, "hot", &gamma));
  EXPECT_EQ(gamma, 42);
}

// ----------------------------------------------------------------------
// Randomized eviction-equivalence: for random modules, the subset search
// over (a) the cache-less private-memo baseline, (b) a shared unbounded
// cache, and (c) a byte-starved cache must return identical minimal sets —
// and (b) must match (a)'s SafeSearchStats field for field, since an
// unbounded cache can never forget. (c) may re-run the checker (forgotten
// verdicts) but never changes a verdict.
// ----------------------------------------------------------------------
TEST(VerdictCacheEquivalenceTest, EvictionOnlyForgetsNeverCorrupts) {
  for (uint64_t seed : {uint64_t{11}, uint64_t{223}, uint64_t{4099}}) {
    Rng rng(seed);
    auto catalog = std::make_shared<AttributeCatalog>();
    std::vector<AttrId> in, out;
    for (int i = 0; i < 4; ++i) {
      in.push_back(catalog->Add("i" + std::to_string(i)));
    }
    for (int o = 0; o < 3; ++o) {
      out.push_back(catalog->Add("o" + std::to_string(o)));
    }
    ModulePtr m = MakeRandomFunction("f", catalog, in, out, &rng);
    const int universe = catalog->size();
    const int64_t gamma = 2 + static_cast<int64_t>(rng.NextBelow(4));

    for (int threads : {1, 4}) {
      SubsetSearchOptions opts;
      opts.num_threads = threads;
      opts.min_parallel_subsets = 0;

      SafetyMemo baseline(*m);
      SafeSearchStats base_stats;
      std::vector<Bitset64> want = MinimalSafeHiddenSets(
          &baseline, m->inputs(), m->outputs(), universe, gamma, &base_stats,
          opts);

      auto unbounded = std::make_shared<VerdictCache>();
      SafetyMemo shared_memo(*m, Module::kDefaultMaterializeRows, unbounded,
                             unbounded->RegisterNamespace("m"));
      SafeSearchStats shared_stats;
      std::vector<Bitset64> got_shared = MinimalSafeHiddenSets(
          &shared_memo, m->inputs(), m->outputs(), universe, gamma,
          &shared_stats, opts);

      VerdictCacheConfig tiny_config;
      tiny_config.byte_budget = 2048;
      tiny_config.num_shards = 1;
      auto tiny = std::make_shared<VerdictCache>(tiny_config);
      SafetyMemo tiny_memo(*m, Module::kDefaultMaterializeRows, tiny,
                           tiny->RegisterNamespace("m"));
      SafeSearchStats tiny_stats;
      std::vector<Bitset64> got_tiny = MinimalSafeHiddenSets(
          &tiny_memo, m->inputs(), m->outputs(), universe, gamma,
          &tiny_stats, opts);

      EXPECT_EQ(got_shared, want) << "seed " << seed << " threads "
                                  << threads;
      EXPECT_EQ(got_tiny, want) << "seed " << seed << " threads " << threads;
      // Unbounded cache = the exact historical memo, stats and all.
      EXPECT_EQ(shared_stats.subsets_examined, base_stats.subsets_examined);
      EXPECT_EQ(shared_stats.checker_calls, base_stats.checker_calls)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(shared_stats.cache_hits, base_stats.cache_hits);
      // A starved cache can only trade hits for checker re-runs.
      EXPECT_EQ(tiny_stats.subsets_examined, base_stats.subsets_examined);
      EXPECT_GE(tiny_stats.checker_calls, base_stats.checker_calls);
      EXPECT_LE(tiny_memo.cache()->bytes_in_use(), tiny_config.byte_budget);
    }
  }
}

TEST(VerdictCacheEquivalenceTest, RandomProbesAgreeUnderAnyBudget) {
  // Direct MaxGamma probes (no search structure): every budget answers
  // every probe with the same Γ.
  for (uint64_t seed : {uint64_t{3}, uint64_t{777}}) {
    Rng rng(seed);
    auto catalog = std::make_shared<AttributeCatalog>();
    std::vector<AttrId> in, out;
    for (int i = 0; i < 3; ++i) {
      in.push_back(catalog->Add("i" + std::to_string(i)));
    }
    for (int o = 0; o < 3; ++o) {
      out.push_back(catalog->Add("o" + std::to_string(o)));
    }
    ModulePtr m = MakeRandomFunction("f", catalog, in, out, &rng);

    SafetyMemo baseline(*m);
    VerdictCacheConfig tiny_config;
    tiny_config.byte_budget = 2048;
    tiny_config.num_shards = 1;
    auto tiny = std::make_shared<VerdictCache>(tiny_config);
    SafetyMemo tiny_memo(*m, Module::kDefaultMaterializeRows, tiny,
                         tiny->RegisterNamespace("m"));

    for (int probe = 0; probe < 200; ++probe) {
      Bitset64 hidden(catalog->size());
      for (AttrId a : m->AttrSet().ToVector()) {
        if (rng.NextBernoulli(0.5)) hidden.Set(a);
      }
      SafeSearchStats s1, s2;
      EXPECT_EQ(baseline.MaxGamma(hidden, &s1),
                tiny_memo.MaxGamma(hidden, &s2))
          << "seed " << seed << " probe " << probe;
    }
    EXPECT_LE(tiny->bytes_in_use(), tiny_config.byte_budget);
  }
}

// ----------------------------------------------------------------------
// Concurrent hammer: many threads, one byte-starved cache. Run under TSan
// in CI. Correctness bar: no data race, every observed verdict matches the
// key's deterministic value, and the measured bytes settle under budget.
// ----------------------------------------------------------------------
TEST(VerdictCacheHammerTest, ConcurrentInsertLookupUnderTinyBudget) {
  VerdictCacheConfig config;
  config.byte_budget = 16384;
  config.num_shards = 4;
  VerdictCache cache(config);
  const uint32_t ns = cache.RegisterNamespace("hammer");

  const int kThreads = 8;
  const int kOps = 4000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(0xabcdef12u + static_cast<uint64_t>(t));
      for (int op = 0; op < kOps; ++op) {
        const uint64_t i = rng.NextBelow(512);
        int64_t gamma = 0;
        if (cache.Lookup(ns, Key(i), &gamma)) {
          // A hit must carry the key's one true verdict.
          ASSERT_EQ(gamma, GammaOf(i)) << "thread " << t << " op " << op;
        } else {
          cache.Insert(ns, Key(i), GammaOf(i));
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_LE(cache.bytes_in_use(), config.byte_budget);
  const VerdictCacheStats stats = cache.Stats();
  EXPECT_GT(stats.signature.hits, 0);
  EXPECT_GT(stats.signature.evictions, 0);
}

TEST(VerdictCacheHammerTest, ConcurrentBatchesShareBudgetedCache) {
  // Daemon shape: concurrent CertifyWorkflowBatch calls against ONE
  // workflow's namespaces in a byte-budgeted shared cache, racing the
  // evictor. Every thread must reproduce the cache-less reference batch.
  Rng rng(97);
  RandomWorkflowOptions options;
  options.num_modules = 3;
  options.max_inputs = 2;
  options.max_outputs = 1;
  GeneratedWorkflow g = MakeRandomWorkflow(options, &rng);
  const int universe = g.workflow->catalog()->size();
  std::vector<int> used = g.workflow->used_attrs().ToVector();
  std::vector<WorkflowCertificationRequest> requests;
  for (uint64_t mask = 0; mask < (uint64_t{1} << used.size()); ++mask) {
    Bitset64 hidden(universe);
    for (size_t b = 0; b < used.size(); ++b) {
      if ((mask >> b) & 1u) hidden.Set(used[b]);
    }
    requests.push_back(WorkflowCertificationRequest{hidden, 2});
  }

  WorkflowBatchOptions opts;
  opts.num_threads = 2;
  const WorkflowBatchResult want =
      CertifyWorkflowBatch(*g.workflow, requests, opts);
  ASSERT_TRUE(want.status.ok());

  VerdictCacheConfig config;
  config.byte_budget = 8192;
  config.num_shards = 2;
  auto cache = std::make_shared<VerdictCache>(config);
  WorkflowCacheNamespace verdicts(*g.workflow, cache);

  const int kThreads = 4;
  std::vector<WorkflowBatchResult> results(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      results[t] = CertifyWorkflowBatch(*g.workflow, requests, opts,
                                        &verdicts);
    });
  }
  for (std::thread& w : workers) w.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(results[t].status.ok()) << "thread " << t;
    ASSERT_EQ(results[t].entries.size(), want.entries.size());
    for (size_t r = 0; r < want.entries.size(); ++r) {
      EXPECT_EQ(results[t].entries[r].certificate.certified,
                want.entries[r].certificate.certified)
          << "thread " << t << " request " << r;
      EXPECT_EQ(results[t].entries[r].certificate.module_gammas,
                want.entries[r].certificate.module_gammas)
          << "thread " << t << " request " << r;
    }
  }
  EXPECT_LE(cache->bytes_in_use(), config.byte_budget);
}

}  // namespace
}  // namespace provview
