#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <string>

#include "common/combinatorics.h"
#include "common/rng.h"
#include "module/module_library.h"
#include "privacy/safe_subset_search.h"
#include "privacy/standalone_privacy.h"
#include "workflow/fig1_workflow.h"

namespace provview {
namespace {

TEST(SafeSubsetSearchTest, Fig1M1MinimalSetsForGamma4) {
  Fig1Workflow fig = MakeFig1Workflow();
  const Module& m1 = fig.workflow->module(fig.m1_index);
  std::vector<Bitset64> minimal = MinimalSafeHiddenSets(m1, 4);
  // Every pair of outputs is safe (Example 3); check they are among the
  // minimal sets and that no single attribute suffices.
  auto contains = [&](std::initializer_list<int> ids) {
    Bitset64 b = Bitset64::Of(7, ids);
    return std::find(minimal.begin(), minimal.end(), b) != minimal.end();
  };
  EXPECT_TRUE(contains({fig.a3, fig.a4}));
  EXPECT_TRUE(contains({fig.a3, fig.a5}));
  EXPECT_TRUE(contains({fig.a4, fig.a5}));
  for (const Bitset64& b : minimal) {
    EXPECT_GE(b.count(), 2) << b.ToString();
  }
  // Antichain: no minimal set contains another.
  for (const Bitset64& a : minimal) {
    for (const Bitset64& b : minimal) {
      if (a == b) continue;
      EXPECT_FALSE(a.IsSubsetOf(b))
          << a.ToString() << " subset of " << b.ToString();
    }
  }
}

TEST(SafeSubsetSearchTest, MinimalSetsAreExactlyTheSafeFrontier) {
  // Cross-check against direct enumeration: a hidden set is safe iff it
  // contains some minimal safe set.
  Fig1Workflow fig = MakeFig1Workflow();
  const Module& m1 = fig.workflow->module(fig.m1_index);
  Relation rel = m1.FullRelation();
  std::vector<Bitset64> minimal = MinimalSafeHiddenSets(m1, 4);
  ForEachSubsetOf(m1.AttrSet(), [&](const Bitset64& hidden) {
    bool safe = IsStandaloneSafe(rel, m1.inputs(), m1.outputs(),
                                 hidden.Complement(), 4);
    bool dominated = std::any_of(
        minimal.begin(), minimal.end(),
        [&](const Bitset64& m) { return m.IsSubsetOf(hidden); });
    EXPECT_EQ(safe, dominated) << hidden.ToString();
  });
}

TEST(SafeSubsetSearchTest, MinCostPicksCheapestMinimalSet) {
  Fig1Workflow fig = MakeFig1Workflow();
  // Make inputs expensive so the output-pair options win, and a3 very
  // expensive so {a4, a5} is the unique optimum.
  fig.catalog->SetCost(fig.a1, 5.0);
  fig.catalog->SetCost(fig.a2, 5.0);
  fig.catalog->SetCost(fig.a3, 10.0);
  fig.catalog->SetCost(fig.a4, 1.0);
  fig.catalog->SetCost(fig.a5, 2.0);
  const Module& m1 = fig.workflow->module(fig.m1_index);
  MinCostSafeResult r = MinCostSafeHiddenSet(m1, 4);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.hidden, Bitset64::Of(7, {fig.a4, fig.a5}));
  EXPECT_DOUBLE_EQ(r.cost, 3.0);
  EXPECT_GT(r.stats.checker_calls, 0);
  EXPECT_GT(r.stats.subsets_examined, r.stats.checker_calls);
}

TEST(SafeSubsetSearchTest, ImpossibleGammaFindsNothing) {
  Fig1Workflow fig = MakeFig1Workflow();
  const Module& m1 = fig.workflow->module(fig.m1_index);
  // Γ = 9 > |Range| = 8: not even hiding everything works.
  EXPECT_TRUE(MinimalSafeHiddenSets(m1, 9).empty());
  EXPECT_FALSE(MinCostSafeHiddenSet(m1, 9).found);
}

TEST(SafeSubsetSearchTest, Gamma1NeedsNothingHidden) {
  Fig1Workflow fig = MakeFig1Workflow();
  const Module& m1 = fig.workflow->module(fig.m1_index);
  std::vector<Bitset64> minimal = MinimalSafeHiddenSets(m1, 1);
  ASSERT_EQ(minimal.size(), 1u);
  EXPECT_TRUE(minimal[0].empty());
  MinCostSafeResult r = MinCostSafeHiddenSet(m1, 1);
  ASSERT_TRUE(r.found);
  EXPECT_DOUBLE_EQ(r.cost, 0.0);
}

TEST(SafeSubsetSearchTest, CardinalityPairsForBijection) {
  // Example 6: a one-one k-bit module has frontier {(k,0), (0,k)} for
  // Γ = 2^k.
  auto catalog = std::make_shared<AttributeCatalog>();
  for (int i = 0; i < 6; ++i) catalog->Add("a" + std::to_string(i));
  Rng rng(17);
  ModulePtr bij =
      MakeRandomBijection("bij", catalog, {0, 1, 2}, {3, 4, 5}, &rng);
  std::vector<CardinalityPair> frontier = MinimalSafeCardinalityPairs(*bij, 8);
  // Example 6 guarantees (k, 0) and (0, k) are safe; for particular random
  // bijections additional mixed pairs may also be safe. The pure pairs
  // must be on the frontier because (k-1, 0) and (0, k-1) are never safe
  // for a one-one module.
  bool has_k0 = false, has_0k = false;
  for (const CardinalityPair& p : frontier) {
    if (p == CardinalityPair{3, 0}) has_k0 = true;
    if (p == CardinalityPair{0, 3}) has_0k = true;
    // Frontier entries are pairwise incomparable.
    for (const CardinalityPair& q : frontier) {
      if (p == q) continue;
      EXPECT_FALSE(p.alpha <= q.alpha && p.beta <= q.beta)
          << "(" << p.alpha << "," << p.beta << ") dominates (" << q.alpha
          << "," << q.beta << ")";
    }
  }
  EXPECT_TRUE(has_k0);
  EXPECT_TRUE(has_0k);
}

TEST(SafeSubsetSearchTest, CardinalityPairsForMajority) {
  // Example 6: majority with 2k inputs: {(k+1, 0), (0, 1)} for Γ = 2.
  auto catalog = std::make_shared<AttributeCatalog>();
  for (int i = 0; i < 5; ++i) catalog->Add("a" + std::to_string(i));
  ModulePtr maj = MakeMajority("maj", catalog, {0, 1, 2, 3}, 4);
  std::vector<CardinalityPair> frontier = MinimalSafeCardinalityPairs(*maj, 2);
  ASSERT_EQ(frontier.size(), 2u);
  bool has_inputs_option = false, has_output_option = false;
  for (const CardinalityPair& p : frontier) {
    if (p.alpha == 3 && p.beta == 0) has_inputs_option = true;
    if (p.alpha == 0 && p.beta == 1) has_output_option = true;
  }
  EXPECT_TRUE(has_inputs_option);
  EXPECT_TRUE(has_output_option);
}

TEST(SafeSubsetSearchTest, CardinalityFrontierSoundness) {
  // Every frontier pair must make EVERY subset of that shape safe.
  Fig1Workflow fig = MakeFig1Workflow();
  const Module& m1 = fig.workflow->module(fig.m1_index);
  Relation rel = m1.FullRelation();
  for (const CardinalityPair& p : MinimalSafeCardinalityPairs(m1, 4)) {
    for (const Bitset64& in_combo : SubsetsOfSize(2, p.alpha)) {
      for (const Bitset64& out_combo : SubsetsOfSize(3, p.beta)) {
        Bitset64 hidden(7);
        for (int local : in_combo.ToVector()) {
          hidden.Set(m1.inputs()[static_cast<size_t>(local)]);
        }
        for (int local : out_combo.ToVector()) {
          hidden.Set(m1.outputs()[static_cast<size_t>(local)]);
        }
        EXPECT_TRUE(IsStandaloneSafe(rel, m1.inputs(), m1.outputs(),
                                     hidden.Complement(), 4))
            << "alpha=" << p.alpha << " beta=" << p.beta << " hidden "
            << hidden.ToString();
      }
    }
  }
}

// ---------------------------------------------------------------------
// Sharded lattice walk: identical results and exactly aggregated stats.
// ---------------------------------------------------------------------

TEST(SafeSubsetSearchTest, ShardedMinimalSetsMatchSequential) {
  // k = 14 random module; force sharding even on the small levels.
  auto catalog = std::make_shared<AttributeCatalog>();
  std::vector<AttrId> in, out;
  for (int i = 0; i < 7; ++i) in.push_back(catalog->Add("i" + std::to_string(i)));
  for (int o = 0; o < 7; ++o) out.push_back(catalog->Add("o" + std::to_string(o)));
  Rng rng(29);
  ModulePtr m = MakeRandomFunction("wide", catalog, in, out, &rng);
  for (int64_t gamma : {int64_t{2}, int64_t{8}}) {
    SubsetSearchOptions seq, par;
    seq.num_threads = 1;
    par.num_threads = 4;
    par.min_parallel_subsets = 0;
    SafeSearchStats seq_stats, par_stats;
    std::vector<Bitset64> a = MinimalSafeHiddenSets(
        *m, gamma, &seq_stats, seq);
    std::vector<Bitset64> b = MinimalSafeHiddenSets(
        *m, gamma, &par_stats, par);
    EXPECT_EQ(a, b) << "gamma " << gamma;  // same sets, same order
    // Exact aggregation: every examined subset is counted exactly once
    // across the shards — the total is the closed-form lattice size, the
    // same value the sequential walk reports.
    int64_t lattice = 0;
    for (int s = 0; s <= 14; ++s) lattice += BinomialCoefficient(14, s);
    EXPECT_EQ(seq_stats.subsets_examined, lattice);
    EXPECT_EQ(par_stats.subsets_examined, lattice);
    // Every non-dominated candidate got a verdict from the checker or the
    // memo, in both modes.
    EXPECT_EQ(seq_stats.checker_calls + seq_stats.cache_hits,
              par_stats.checker_calls + par_stats.cache_hits);
  }
}

TEST(SafeSubsetSearchTest, ShardedMinCostAndCardinalityMatchSequential) {
  Rng rng(31);
  auto catalog = std::make_shared<AttributeCatalog>();
  for (int i = 0; i < 10; ++i) {
    catalog->Add("a" + std::to_string(i), 2, 1.0 + rng.NextDouble() * 3.0);
  }
  ModulePtr m = MakeRandomFunction("f", catalog, {0, 1, 2, 3, 4},
                                   {5, 6, 7, 8, 9}, &rng);
  SubsetSearchOptions seq, par;
  seq.num_threads = 1;
  par.num_threads = 4;
  par.min_parallel_subsets = 0;
  for (int64_t gamma : {int64_t{2}, int64_t{4}}) {
    MinCostSafeResult a =
        MinCostSafeHiddenSet(*m, gamma, seq);
    MinCostSafeResult b =
        MinCostSafeHiddenSet(*m, gamma, par);
    EXPECT_EQ(a.found, b.found) << "gamma " << gamma;
    if (a.found) {
      EXPECT_EQ(a.hidden, b.hidden);
      EXPECT_DOUBLE_EQ(a.cost, b.cost);
    }
    std::vector<CardinalityPair> fa = MinimalSafeCardinalityPairs(
        *m, gamma, seq);
    std::vector<CardinalityPair> fb = MinimalSafeCardinalityPairs(
        *m, gamma, par);
    EXPECT_EQ(fa, fb) << "gamma " << gamma;
  }
}

TEST(SafeSubsetSearchTest, SharedMemoAccumulatesAcrossShardedSearches) {
  // A caller-owned memo reused across sharded searches keeps absorbing the
  // shard verdicts: the second search over the same module answers almost
  // everything from the cache.
  Rng rng(41);
  auto catalog = std::make_shared<AttributeCatalog>();
  for (int i = 0; i < 12; ++i) catalog->Add("a" + std::to_string(i));
  ModulePtr m = MakeRandomFunction("f", catalog, {0, 1, 2, 3, 4, 5},
                                   {6, 7, 8, 9, 10, 11}, &rng);
  SafetyMemo memo(*m);
  SubsetSearchOptions par;
  par.num_threads = 3;
  par.min_parallel_subsets = 0;
  SafeSearchStats first, second;
  std::vector<Bitset64> a =
      MinimalSafeHiddenSets(&memo, m->inputs(), m->outputs(),
                            catalog->size(), 4, &first, par);
  std::vector<Bitset64> b =
      MinimalSafeHiddenSets(&memo, m->inputs(), m->outputs(),
                            catalog->size(), 4, &second, par);
  EXPECT_EQ(a, b);
  EXPECT_EQ(second.checker_calls, 0);
  EXPECT_GT(second.cache_hits, 0);
}

// A module whose extra outputs mirror o0: hiding o0 or one of its mirrors
// leaves the same grouping of R visible, so the verdicts agree, yet every
// hidden set has its own effective-visible signature.
ModulePtr MakeMirroredOutputModule() {
  auto catalog = std::make_shared<AttributeCatalog>();
  std::vector<AttrId> in = {catalog->Add("i0"), catalog->Add("i1")};
  std::vector<AttrId> out = {catalog->Add("o0"), catalog->Add("o1"),
                             catalog->Add("dup0"), catalog->Add("dup1")};
  return std::make_unique<LambdaModule>(
      "mirrored", catalog, in, out, [](const Tuple& x) {
        const Value y0 = x[0] ^ x[1];
        const Value y1 = x[0] & x[1];
        return Tuple{y0, y1, y0, y0};
      });
}

// Streaming view over the module's function whose factory counts the row
// passes it opens.
RelationView CountingView(const Module& m, std::atomic<int64_t>* passes) {
  RelationView inner = m.View(/*materialize_threshold=*/0);
  EXPECT_FALSE(inner.materialized());
  return RelationView::Streaming(m.FullSchema(), m.DomainSize(),
                                 [inner, passes] {
                                   passes->fetch_add(1);
                                   return inner.NewSupplier();
                                 });
}

TEST(SafeSubsetSearchTest, CheckerCallsCountEveryRowPass) {
  // checker_calls counts Algorithm-2 row passes: every pass past the
  // memo's constant-column pass in Init is one checker call, and every
  // cache hit is a lookup that opened no pass. Every attribute of the
  // module is effective, so no two candidates share a signature and no
  // two shards of the 4-thread walk can both pay for one verdict.
  ModulePtr m = MakeMirroredOutputModule();
  const int universe = m->catalog()->size();
  {
    std::atomic<int64_t> passes{0};
    SafetyMemo memo(CountingView(*m, &passes), m->inputs(), m->outputs());
    ASSERT_TRUE(memo.streaming());
    EXPECT_EQ(passes.load(), 1);  // Init's constant-column pass
    SafeSearchStats stats;
    const AttrId o0 = m->outputs()[0];
    const AttrId dup0 = m->outputs()[2];
    const int64_t g_o0 = memo.MaxGamma(Bitset64::Of(universe, {o0}), &stats);
    const int64_t g_dup0 =
        memo.MaxGamma(Bitset64::Of(universe, {dup0}), &stats);
    EXPECT_EQ(g_o0, g_dup0);  // same induced grouping, same verdict
    EXPECT_EQ(stats.checker_calls, 2);
    EXPECT_EQ(stats.cache_hits, 0);
    EXPECT_EQ(stats.checker_calls, passes.load() - 1);
    // A repeat is a memo hit and opens no pass.
    EXPECT_EQ(memo.MaxGamma(Bitset64::Of(universe, {o0}), &stats), g_o0);
    EXPECT_EQ(stats.cache_hits, 1);
    EXPECT_EQ(stats.checker_calls, passes.load() - 1);
  }
  const Relation rel = m->FullRelation();
  const std::vector<Bitset64> want =
      MinimalSafeHiddenSets(rel, m->inputs(), m->outputs(), 2);
  for (int threads : {1, 4}) {
    std::atomic<int64_t> passes{0};
    SafetyMemo memo(CountingView(*m, &passes), m->inputs(), m->outputs());
    SubsetSearchOptions opts;
    opts.num_threads = threads;
    opts.min_parallel_subsets = 0;
    SafeSearchStats stats;
    EXPECT_EQ(MinimalSafeHiddenSets(&memo, m->inputs(), m->outputs(),
                                    universe, 2, &stats, opts),
              want)
        << "threads " << threads;
    EXPECT_GT(stats.checker_calls, 0);
    EXPECT_EQ(stats.checker_calls, passes.load() - 1)
        << "threads " << threads;
  }
}

// ---------------------------------------------------------------------
// The flat-row Γ pass of materialized memos, against the independent
// Relation checker and the streaming pass.
// ---------------------------------------------------------------------

struct RandomRelation {
  CatalogPtr catalog;
  std::vector<AttrId> inputs, outputs;
  Relation rel;
};

// 1–3 inputs and 1–3 outputs with domains of 1 to 4 values, plus one
// column outside the module, in a shuffled schema order. Rows are drawn
// from a pool of half their number, so they repeat, and about a third of
// the columns hold one value throughout.
RandomRelation MakeRandomRelation(Rng* rng, int num_rows) {
  RandomRelation r;
  r.catalog = std::make_shared<AttributeCatalog>();
  const int num_in = 1 + static_cast<int>(rng->NextBelow(3));
  const int num_out = 1 + static_cast<int>(rng->NextBelow(3));
  std::vector<AttrId> attrs;
  for (int a = 0; a < num_in + num_out + 1; ++a) {
    const int domain = 1 + static_cast<int>(rng->NextBelow(4));
    attrs.push_back(r.catalog->Add("a" + std::to_string(a), domain));
  }
  r.inputs.assign(attrs.begin(), attrs.begin() + num_in);
  r.outputs.assign(attrs.begin() + num_in, attrs.end() - 1);
  rng->Shuffle(&attrs);
  r.rel = Relation(Schema(r.catalog, attrs));
  auto draw = [&](AttrId id) {
    return static_cast<Value>(
        rng->NextBelow(static_cast<uint64_t>(r.catalog->DomainSize(id))));
  };
  std::vector<Value> constant(attrs.size(), -1);
  for (size_t c = 0; c < attrs.size(); ++c) {
    if (rng->NextBernoulli(0.3)) constant[c] = draw(attrs[c]);
  }
  std::vector<Tuple> pool(static_cast<size_t>(std::max(1, num_rows / 2)));
  for (Tuple& row : pool) {
    for (size_t c = 0; c < attrs.size(); ++c) {
      row.push_back(constant[c] >= 0 ? constant[c] : draw(attrs[c]));
    }
  }
  for (int i = 0; i < num_rows; ++i) {
    r.rel.AddRow(pool[rng->NextBelow(pool.size())]);
  }
  return r;
}

// Every hidden subset through the root memo, a fresh root's overlay and
// the streaming memo must give MaxStandaloneGamma's answer; the lattice
// walk must give the same sets and stats over either backend at 1 and 4
// threads.
void ExpectFlatPassMatches(const RandomRelation& r, const std::string& label) {
  const int universe = r.catalog->size();
  const Relation& rel = r.rel;
  auto streamed_view = [&rel] {
    return RelationView::Streaming(rel.schema(), rel.num_rows(), [&rel] {
      return RelationView::Borrowed(rel).NewSupplier();
    });
  };
  SafetyMemo flat(rel, r.inputs, r.outputs);
  SafetyMemo streamed(streamed_view(), r.inputs, r.outputs);
  ASSERT_FALSE(flat.streaming());
  ASSERT_TRUE(streamed.streaming());
  // The overlay's base has no verdicts, so each lookup runs the overlay's
  // own pass over the rows it shares with the base.
  SafetyMemo base(rel, r.inputs, r.outputs);
  std::unique_ptr<SafetyMemo> overlay = base.NewOverlay();
  SafetyMemo::LookupLog log;

  std::vector<AttrId> local = r.inputs;
  local.insert(local.end(), r.outputs.begin(), r.outputs.end());
  SafeSearchStats flat_stats, streamed_stats;
  for (uint32_t bits = 0; bits < (1u << local.size()); ++bits) {
    Bitset64 hidden(universe);
    for (size_t j = 0; j < local.size(); ++j) {
      if ((bits >> j) & 1u) hidden.Set(local[j]);
    }
    const int64_t want =
        MaxStandaloneGamma(rel, r.inputs, r.outputs, hidden.Complement());
    EXPECT_EQ(flat.MaxGamma(hidden, &flat_stats), want)
        << label << " hidden " << hidden.ToString();
    EXPECT_EQ(overlay->MaxGamma(hidden, nullptr, &log), want)
        << label << " overlay, hidden " << hidden.ToString();
    EXPECT_EQ(streamed.MaxGamma(hidden, &streamed_stats), want)
        << label << " streamed, hidden " << hidden.ToString();
  }
  EXPECT_EQ(flat_stats.checker_calls, streamed_stats.checker_calls) << label;
  EXPECT_EQ(flat_stats.cache_hits, streamed_stats.cache_hits) << label;

  for (int64_t gamma : {int64_t{2}, int64_t{3}}) {
    std::vector<Bitset64> want;
    SafeSearchStats want_stats;
    bool first = true;
    for (bool streaming : {false, true}) {
      for (int threads : {1, 4}) {
        std::unique_ptr<SafetyMemo> memo =
            streaming
                ? std::make_unique<SafetyMemo>(streamed_view(), r.inputs,
                                               r.outputs)
                : std::make_unique<SafetyMemo>(rel, r.inputs, r.outputs);
        SubsetSearchOptions opts;
        opts.num_threads = threads;
        opts.min_parallel_subsets = 0;
        SafeSearchStats stats;
        std::vector<Bitset64> got = MinimalSafeHiddenSets(
            memo.get(), r.inputs, r.outputs, universe, gamma, &stats, opts);
        if (first) {
          want = got;
          want_stats = stats;
          first = false;
          continue;
        }
        const std::string where = label + " gamma " + std::to_string(gamma) +
                                  (streaming ? " streamed" : " flat") +
                                  " threads " + std::to_string(threads);
        EXPECT_EQ(got, want) << where;
        EXPECT_EQ(stats.subsets_examined, want_stats.subsets_examined) << where;
        EXPECT_EQ(stats.checker_calls, want_stats.checker_calls) << where;
        EXPECT_EQ(stats.cache_hits, want_stats.cache_hits) << where;
      }
    }
  }
}

TEST(SafeSubsetSearchTest, FlatRowPassMatchesCheckerAndStreamingPass) {
  Rng rng(71);
  const int stack_rows = static_cast<int>(SafetyMemo::kFlatStackRows);
  // Empty and one-row relations, small ones, and one past the stack buffer.
  for (int num_rows : {0, 1, 2, 5, 8, 17, 40, 3 * stack_rows + 7}) {
    const int relations = num_rows > stack_rows ? 1 : 6;
    for (int k = 0; k < relations; ++k) {
      ExpectFlatPassMatches(MakeRandomRelation(&rng, num_rows),
                            "rows " + std::to_string(num_rows) + " #" +
                                std::to_string(k));
    }
  }
}

// Independent oracle for the lattice search: test every subset of the
// module's attributes with the standalone checker and keep the safe ones no
// other safe subset is contained in, in the walk's output order
// (cardinality, then lexicographic rank).
std::vector<Bitset64> BruteForceMinimalSafe(const Module& m, int64_t gamma) {
  std::vector<AttrId> attrs = m.inputs();
  attrs.insert(attrs.end(), m.outputs().begin(), m.outputs().end());
  const int k = static_cast<int>(attrs.size());
  const Relation rel = m.FullRelation();
  std::vector<Bitset64> safe;
  for (int size = 0; size <= k; ++size) {
    ForEachSubsetOfSizeRangeWhile(
        k, size, 0, BinomialCoefficient(k, size), [&](const Bitset64& combo) {
          Bitset64 hidden(m.catalog()->size());
          for (int local : combo.ToVector()) {
            hidden.Set(attrs[static_cast<size_t>(local)]);
          }
          if (IsStandaloneSafe(rel, m.inputs(), m.outputs(),
                               hidden.Complement(), gamma)) {
            safe.push_back(hidden);
          }
          return true;
        });
  }
  std::vector<Bitset64> minimal;
  for (const Bitset64& h : safe) {
    bool dominated = false;
    for (const Bitset64& mset : minimal) dominated |= mset.IsSubsetOf(h);
    if (!dominated) minimal.push_back(h);
  }
  return minimal;
}

TEST(SafeSubsetSearchTest, ThreadCountsByteIdenticalAndMatchBruteForce) {
  // Randomized determinism check of the task-graph walk: at 2/4/8 threads
  // it must return the same sets in the same order as the one-thread walk,
  // with stats equal field for field (the lookup-log replay guarantee) —
  // and the one-thread walk must equal the brute-force oracle.
  for (uint64_t seed : {uint64_t{5}, uint64_t{97}, uint64_t{3021}}) {
    Rng rng(seed);
    auto catalog = std::make_shared<AttributeCatalog>();
    std::vector<AttrId> in, out;
    const int half = 6;
    for (int i = 0; i < half; ++i) {
      in.push_back(catalog->Add("i" + std::to_string(i)));
    }
    for (int o = 0; o < half; ++o) {
      out.push_back(catalog->Add("o" + std::to_string(o)));
    }
    ModulePtr m = MakeRandomFunction("wide", catalog, in, out, &rng);
    const int64_t gamma = 2 + static_cast<int64_t>(rng.NextBelow(6));

    SubsetSearchOptions seq;
    seq.num_threads = 1;
    SafeSearchStats seq_stats;
    std::vector<Bitset64> want = MinimalSafeHiddenSets(
        *m, gamma, &seq_stats, seq);
    EXPECT_EQ(want, BruteForceMinimalSafe(*m, gamma)) << "seed " << seed;

    for (int threads : {2, 4, 8}) {
      SubsetSearchOptions par;
      par.num_threads = threads;
      par.min_parallel_subsets = 0;
      SafeSearchStats par_stats;
      std::vector<Bitset64> got = MinimalSafeHiddenSets(
          *m, gamma, &par_stats, par);
      EXPECT_EQ(got, want) << "seed " << seed << " threads " << threads;
      EXPECT_EQ(par_stats.subsets_examined, seq_stats.subsets_examined);
      EXPECT_EQ(par_stats.checker_calls, seq_stats.checker_calls)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(par_stats.cache_hits, seq_stats.cache_hits);
    }
  }
}

TEST(SafeSubsetSearchTest, CardinalityPairsMatchAcrossThreadCounts) {
  // The cell-range task graph at 2/4/8 threads returns the one-thread
  // frontier, which must match the exhaustive definition: (a, b) is safe
  // iff EVERY subset hiding exactly a inputs and b outputs is safe, and
  // the frontier is the set of minimal safe cells.
  Rng rng(53);
  auto catalog = std::make_shared<AttributeCatalog>();
  for (int i = 0; i < 8; ++i) catalog->Add("a" + std::to_string(i));
  const std::vector<AttrId> in = {0, 1, 2, 3};
  const std::vector<AttrId> out = {4, 5, 6, 7};
  ModulePtr m = MakeRandomFunction("f", catalog, in, out, &rng);
  const Relation rel = m->FullRelation();
  SubsetSearchOptions seq;
  seq.num_threads = 1;
  for (int64_t gamma : {int64_t{2}, int64_t{4}}) {
    bool cell_safe[5][5];
    for (int a = 0; a <= 4; ++a) {
      for (int b = 0; b <= 4; ++b) cell_safe[a][b] = true;
    }
    ForEachSubset(8, [&](const Bitset64& hidden) {
      int a = 0, b = 0;
      for (int id : hidden.ToVector()) (id < 4 ? a : b) += 1;
      if (!IsStandaloneSafe(rel, in, out, hidden.Complement(), gamma)) {
        cell_safe[a][b] = false;
      }
    });
    std::vector<CardinalityPair> oracle;
    for (int a = 0; a <= 4; ++a) {
      for (int b = 0; b <= 4; ++b) {
        if (!cell_safe[a][b]) continue;
        if (a > 0 && cell_safe[a - 1][b]) continue;
        if (b > 0 && cell_safe[a][b - 1]) continue;
        oracle.push_back(CardinalityPair{a, b});
      }
    }
    std::vector<CardinalityPair> want = MinimalSafeCardinalityPairs(
        *m, gamma, seq);
    EXPECT_EQ(want, oracle) << "gamma " << gamma;
    for (int threads : {2, 4, 8}) {
      SubsetSearchOptions par;
      par.num_threads = threads;
      par.min_parallel_subsets = 0;
      EXPECT_EQ(MinimalSafeCardinalityPairs(
                    *m, gamma, par),
                want)
          << "gamma " << gamma << " threads " << threads;
    }
  }
}

// Property: on random modules, the min-cost search result is optimal among
// ALL safe subsets (checked by exhaustive enumeration) and itself safe.
class MinCostOptimalityTest : public ::testing::TestWithParam<int> {};

TEST_P(MinCostOptimalityTest, MatchesExhaustiveOptimum) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 101 + 7);
  auto catalog = std::make_shared<AttributeCatalog>();
  for (int i = 0; i < 5; ++i) {
    catalog->Add("a" + std::to_string(i), 2, 1.0 + rng.NextDouble() * 5.0);
  }
  ModulePtr mod = MakeRandomFunction("f", catalog, {0, 1}, {2, 3, 4}, &rng);
  Relation rel = mod->FullRelation();
  for (int64_t gamma : {2, 4}) {
    MinCostSafeResult r = MinCostSafeHiddenSet(rel, mod->inputs(),
                                               mod->outputs(), gamma);
    double best = std::numeric_limits<double>::infinity();
    ForEachSubset(5, [&](const Bitset64& hidden) {
      if (IsStandaloneSafe(rel, mod->inputs(), mod->outputs(),
                           hidden.Complement(), gamma)) {
        double cost = 0;
        for (int a : hidden.ToVector()) cost += catalog->Cost(a);
        best = std::min(best, cost);
      }
    });
    if (best == std::numeric_limits<double>::infinity()) {
      EXPECT_FALSE(r.found);
    } else {
      ASSERT_TRUE(r.found);
      EXPECT_NEAR(r.cost, best, 1e-9);
      EXPECT_TRUE(IsStandaloneSafe(rel, mod->inputs(), mod->outputs(),
                                   r.hidden.Complement(), gamma));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomModules, MinCostOptimalityTest,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace provview
