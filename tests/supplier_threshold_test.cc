// The materialize/stream cutoff boundary: a module whose domain size sits
// exactly at the threshold must certify through the materialized path, one
// row below through the streaming path, and — because both backends walk
// the same rows in the same order through the same cache logic — the two
// paths must produce identical verdicts AND identical SafeSearchStats.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "module/module_library.h"
#include "privacy/safe_subset_search.h"
#include "privacy/safety_memo.h"
#include "privacy/standalone_privacy.h"

namespace provview {
namespace {

bool StatsEqual(const SafeSearchStats& a, const SafeSearchStats& b) {
  return a.subsets_examined == b.subsets_examined &&
         a.checker_calls == b.checker_calls && a.cache_hits == b.cache_hits;
}

// The fixture: |Dom| = 4 * 2 * 4 = 32, the exact cutoff value the tests
// pass as materialize_threshold.
struct BoundaryFixture {
  static constexpr int64_t kCutoff = 32;

  BoundaryFixture() {
    catalog = std::make_shared<AttributeCatalog>();
    in = {catalog->Add("i0", 4), catalog->Add("i1", 2), catalog->Add("i2", 4)};
    out = {catalog->Add("o0", 2), catalog->Add("o1", 3)};
    Rng rng(4242);
    module = MakeRandomFunction("boundary", catalog, in, out, &rng);
  }

  CatalogPtr catalog;
  std::vector<AttrId> in, out;
  ModulePtr module;
};

TEST(SupplierThresholdTest, DomainAtCutoffMaterializesOneBelowStreams) {
  BoundaryFixture fx;
  ASSERT_EQ(fx.module->DomainSize(), BoundaryFixture::kCutoff);
  EXPECT_TRUE(fx.module->View(BoundaryFixture::kCutoff).materialized());
  EXPECT_FALSE(fx.module->View(BoundaryFixture::kCutoff - 1).materialized());
  SafetyMemo at(*fx.module, BoundaryFixture::kCutoff);
  SafetyMemo below(*fx.module, BoundaryFixture::kCutoff - 1);
  EXPECT_FALSE(at.streaming());
  EXPECT_TRUE(below.streaming());
}

TEST(SupplierThresholdTest, BothPathsCertifyIdenticallyWithIdenticalStats) {
  BoundaryFixture fx;
  SafetyMemo materialized(*fx.module, BoundaryFixture::kCutoff);
  SafetyMemo streaming(*fx.module, BoundaryFixture::kCutoff - 1);
  SafeSearchStats mat_stats, stream_stats;
  // Drive both memos through the same query sequence: every hidden subset
  // of the module's attributes, at several Γ levels. Level-1 and level-2
  // hits must fall on exactly the same queries in both modes.
  std::vector<AttrId> local = fx.in;
  local.insert(local.end(), fx.out.begin(), fx.out.end());
  const int k = static_cast<int>(local.size());
  for (int mask = 0; mask < (1 << k); ++mask) {
    Bitset64 hidden(fx.catalog->size());
    for (int j = 0; j < k; ++j) {
      if ((mask >> j) & 1) hidden.Set(local[static_cast<size_t>(j)]);
    }
    EXPECT_EQ(materialized.MaxGamma(hidden, &mat_stats),
              streaming.MaxGamma(hidden, &stream_stats))
        << "mask " << mask;
    for (int64_t gamma : {1, 2, 8}) {
      EXPECT_EQ(materialized.IsSafe(hidden, gamma, &mat_stats),
                streaming.IsSafe(hidden, gamma, &stream_stats))
          << "mask " << mask << " gamma " << gamma;
    }
  }
  EXPECT_TRUE(StatsEqual(mat_stats, stream_stats));
  EXPECT_GT(mat_stats.cache_hits, 0);  // the memo actually memoized
}

TEST(SupplierThresholdTest, SubsetSearchesAgreeAcrossTheCutoff) {
  BoundaryFixture fx;
  for (int64_t gamma : {2, 6}) {
    SubsetSearchOptions mat_opts, stream_opts;
    mat_opts.materialize_threshold = BoundaryFixture::kCutoff;
    stream_opts.materialize_threshold = BoundaryFixture::kCutoff - 1;
    SafeSearchStats mat_stats, stream_stats;
    std::vector<Bitset64> mat =
        MinimalSafeHiddenSets(*fx.module, gamma, &mat_stats, mat_opts);
    std::vector<Bitset64> stream =
        MinimalSafeHiddenSets(*fx.module, gamma, &stream_stats, stream_opts);
    EXPECT_EQ(mat, stream) << "gamma " << gamma;
    EXPECT_TRUE(StatsEqual(mat_stats, stream_stats)) << "gamma " << gamma;
    EXPECT_EQ(MinimalSafeCardinalityPairs(*fx.module, gamma, mat_opts),
              MinimalSafeCardinalityPairs(*fx.module, gamma, stream_opts))
        << "gamma " << gamma;
    EXPECT_EQ(MaxStandaloneGamma(*fx.module, Bitset64(fx.catalog->size()),
                                 BoundaryFixture::kCutoff),
              MaxStandaloneGamma(*fx.module, Bitset64(fx.catalog->size()),
                                 BoundaryFixture::kCutoff - 1));
  }
}

}  // namespace
}  // namespace provview
