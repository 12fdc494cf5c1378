// Randomized equivalence suite for the streaming row paths: on instances
// small enough to also materialize, the streaming engines (supplier-fed
// MaxStandaloneGamma, streaming SafetyMemo, supplier-fed standalone world
// enumeration, sharded workflow-table builds) must return verdicts,
// world counts and tables identical to the materialized or sequential
// paths.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "generators/random_workflow.h"
#include "module/module_library.h"
#include "privacy/possible_worlds.h"
#include "privacy/safe_subset_search.h"
#include "privacy/standalone_privacy.h"

namespace provview {
namespace {

struct RandomModule {
  CatalogPtr catalog;
  ModulePtr module;
  Bitset64 visible;
};

RandomModule MakeRandomModule(int ki, int ko, int max_dom, uint64_t seed) {
  RandomModule inst;
  inst.catalog = std::make_shared<AttributeCatalog>();
  Rng rng(seed);
  std::vector<AttrId> in, out;
  for (int i = 0; i < ki; ++i) {
    in.push_back(inst.catalog->Add("i" + std::to_string(i),
                                   static_cast<int>(rng.NextInt(2, max_dom))));
  }
  for (int o = 0; o < ko; ++o) {
    out.push_back(inst.catalog->Add("o" + std::to_string(o),
                                    static_cast<int>(rng.NextInt(2, max_dom))));
  }
  inst.module = MakeRandomFunction("m", inst.catalog, in, out, &rng);
  inst.visible = Bitset64(inst.catalog->size());
  for (int a = 0; a < inst.catalog->size(); ++a) {
    if (rng.NextBernoulli(0.5)) inst.visible.Set(a);
  }
  return inst;
}

TEST(StreamingEquivalenceTest, MaxGammaMatchesMaterializedOnRandomModules) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    RandomModule inst = MakeRandomModule(3, 2, 3, seed);
    const Module& m = *inst.module;
    // Independent reference: the sort-based Algorithm 2 over the
    // materialized relation.
    const int64_t expected = MaxStandaloneGamma(
        m.FullRelation(), m.inputs(), m.outputs(), inst.visible);
    // Streaming scan over the materialized rows...
    Relation rel = m.FullRelation();
    MaterializedRowSupplier mat_rows(rel);
    EXPECT_EQ(MaxStandaloneGamma(&mat_rows, m.inputs(), m.outputs(),
                                 inst.visible),
              expected)
        << "seed " << seed;
    // ...and over rows re-derived from the module's function.
    ModuleRowSupplier fn_rows(m);
    EXPECT_EQ(
        MaxStandaloneGamma(&fn_rows, m.inputs(), m.outputs(), inst.visible),
        expected)
        << "seed " << seed;
    // The thresholded module overload, forced down each path.
    EXPECT_EQ(MaxStandaloneGamma(m, inst.visible,
                                 /*materialize_threshold=*/m.DomainSize()),
              expected)
        << "seed " << seed;
    EXPECT_EQ(MaxStandaloneGamma(m, inst.visible,
                                 /*materialize_threshold=*/0),
              expected)
        << "seed " << seed;
  }
}

TEST(StreamingEquivalenceTest, SubsetSearchMatchesAcrossPaths) {
  for (uint64_t seed = 50; seed < 62; ++seed) {
    RandomModule inst = MakeRandomModule(2, 2, 3, seed);
    const Module& m = *inst.module;
    for (int64_t gamma : {2, 4}) {
      SubsetSearchOptions mat_opts, stream_opts;
      mat_opts.materialize_threshold = m.DomainSize();
      stream_opts.materialize_threshold = 0;
      SafeSearchStats mat_stats, stream_stats;
      std::vector<Bitset64> mat =
          MinimalSafeHiddenSets(m, gamma, &mat_stats, mat_opts);
      std::vector<Bitset64> stream =
          MinimalSafeHiddenSets(m, gamma, &stream_stats, stream_opts);
      EXPECT_EQ(mat, stream) << "seed " << seed << " gamma " << gamma;
      EXPECT_EQ(MinimalSafeCardinalityPairs(m, gamma, mat_opts),
                MinimalSafeCardinalityPairs(m, gamma, stream_opts))
          << "seed " << seed << " gamma " << gamma;
    }
  }
}

TEST(StreamingEquivalenceTest, SupplierWorldsMatchNaiveEnumeration) {
  for (uint64_t seed = 100; seed < 120; ++seed) {
    RandomModule inst = MakeRandomModule(2, 2, 2, seed);
    const Module& m = *inst.module;
    StandaloneWorlds naive = EnumerateStandaloneWorldsNaive(
        m.FullRelation(), m.inputs(), m.outputs(), inst.visible);
    EnumerationOptions opts;
    ModuleRowSupplier fn_rows(m);
    StandaloneWorlds streamed = EnumerateStandaloneWorlds(
        &fn_rows, m.inputs(), m.outputs(), inst.visible, opts);
    EXPECT_EQ(naive.num_worlds, streamed.num_worlds) << "seed " << seed;
    EXPECT_EQ(naive.out_sets, streamed.out_sets) << "seed " << seed;
  }
}

TEST(StreamingEquivalenceTest, ShardedTableBuildMatchesSequential) {
  for (uint64_t seed = 200; seed < 206; ++seed) {
    Rng rng(seed);
    RandomWorkflowOptions options;
    options.num_modules = 3;
    GeneratedWorkflow rw = MakeRandomWorkflow(options, &rng);
    std::shared_ptr<const WorkflowTables> seq =
        BuildWorkflowTables(*rw.workflow);
    ASSERT_TRUE(seq->status.ok());

    // Small chunks over four shards exercise the chunk and shard
    // boundaries of the streamed scan.
    WorkflowTablesOptions sharded_opts;
    sharded_opts.num_threads = 4;
    sharded_opts.chunk_executions = 1;
    std::shared_ptr<const WorkflowTables> sharded =
        BuildWorkflowTables(*rw.workflow, sharded_opts);
    ASSERT_TRUE(sharded->status.ok());
    EXPECT_EQ(sharded->num_execs, seq->num_execs) << "seed " << seed;
    EXPECT_EQ(sharded->orig_rows, seq->orig_rows) << "seed " << seed;
    EXPECT_EQ(sharded->orig_in_code, seq->orig_in_code) << "seed " << seed;
    EXPECT_EQ(sharded->init_values, seq->init_values) << "seed " << seed;
    EXPECT_EQ(sharded->orig_input_codes, seq->orig_input_codes)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace provview
