// Equivalence suite for the pruned/interned/parallel possible-worlds engine:
// on randomized small instances the optimized enumerator must return
// byte-identical num_worlds and out_sets to the retained naive reference,
// and the Γ short-circuit must agree with Algorithm 2.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "module/module_library.h"
#include "privacy/possible_worlds.h"
#include "privacy/standalone_privacy.h"

namespace provview {
namespace {

struct RandomInstance {
  CatalogPtr catalog;
  ModulePtr module;
  Relation relation;
  Bitset64 visible;
};

// A random module with `ki` inputs (domains in [2, in_dom]) and `ko`
// outputs (domains in [2, out_dom]), plus a random visible subset of its
// attributes. Domain caps keep |Range|^N within reach of the naive
// reference enumerator.
RandomInstance MakeInstance(int ki, int ko, int in_dom, int out_dom,
                            uint64_t seed) {
  RandomInstance inst;
  inst.catalog = std::make_shared<AttributeCatalog>();
  Rng rng(seed);
  std::vector<AttrId> in, out;
  for (int i = 0; i < ki; ++i) {
    in.push_back(inst.catalog->Add("i" + std::to_string(i),
                                   static_cast<int>(rng.NextInt(2, in_dom))));
  }
  for (int o = 0; o < ko; ++o) {
    out.push_back(inst.catalog->Add("o" + std::to_string(o),
                                    static_cast<int>(rng.NextInt(2, out_dom))));
  }
  inst.module = MakeRandomFunction("m", inst.catalog, in, out, &rng);
  inst.relation = inst.module->FullRelation();
  inst.visible = Bitset64(inst.catalog->size());
  for (int a = 0; a < inst.catalog->size(); ++a) {
    if (rng.NextBernoulli(0.5)) inst.visible.Set(a);
  }
  return inst;
}

void ExpectIdentical(const StandaloneWorlds& naive,
                     const StandaloneWorlds& fast, uint64_t seed) {
  EXPECT_EQ(naive.num_worlds, fast.num_worlds) << "seed " << seed;
  EXPECT_EQ(naive.out_sets, fast.out_sets) << "seed " << seed;
  EXPECT_EQ(naive.MinOutSize(), fast.MinOutSize()) << "seed " << seed;
}

TEST(PossibleWorldsEquivalenceTest, RandomizedInstancesMatchNaive) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    // Rotate through shapes: boolean 2-in/2-out, wide-domain outputs with a
    // single output attr, and wide-domain inputs with boolean outputs.
    RandomInstance inst = seed % 3 == 0   ? MakeInstance(2, 2, 2, 2, seed)
                          : seed % 3 == 1 ? MakeInstance(2, 1, 2, 4, seed)
                                          : MakeInstance(2, 2, 3, 2, seed);
    StandaloneWorlds naive = EnumerateStandaloneWorldsNaive(
        inst.relation, inst.module->inputs(), inst.module->outputs(),
        inst.visible);
    StandaloneWorlds fast = EnumerateStandaloneWorlds(
        inst.relation, inst.module->inputs(), inst.module->outputs(),
        inst.visible);
    ExpectIdentical(naive, fast, seed);
    EXPECT_LE(fast.pruned_candidates, fast.naive_candidates) << "seed " << seed;
    EXPECT_FALSE(fast.early_stopped);
  }
}

TEST(PossibleWorldsEquivalenceTest, LargerInputSpaceMatchesNaive) {
  for (uint64_t seed = 100; seed < 106; ++seed) {
    RandomInstance inst = MakeInstance(3, 1, 2, 3, seed);
    StandaloneWorlds naive = EnumerateStandaloneWorldsNaive(
        inst.relation, inst.module->inputs(), inst.module->outputs(),
        inst.visible, int64_t{1} << 40);
    EnumerationOptions opts;
    opts.max_candidates = int64_t{1} << 40;
    StandaloneWorlds fast = EnumerateStandaloneWorlds(
        inst.relation, inst.module->inputs(), inst.module->outputs(),
        inst.visible, opts);
    ExpectIdentical(naive, fast, seed);
  }
}

TEST(PossibleWorldsEquivalenceTest, ParallelShardsMatchSequential) {
  // The slot-0 walk runs as contiguous rank-range tasks of one graph. With
  // the size gate off, 2/4/8 threads must reproduce the one-thread run
  // byte for byte, and all of them the naive odometer.
  for (uint64_t seed = 200; seed < 212; ++seed) {
    RandomInstance inst = seed % 2 == 0 ? MakeInstance(2, 2, 3, 2, seed)
                                        : MakeInstance(2, 1, 2, 4, seed);
    const StandaloneWorlds naive = EnumerateStandaloneWorldsNaive(
        inst.relation, inst.module->inputs(), inst.module->outputs(),
        inst.visible);
    EnumerationOptions sequential;
    sequential.num_threads = 1;
    sequential.min_parallel_candidates = 0;
    const StandaloneWorlds a = EnumerateStandaloneWorlds(
        inst.relation, inst.module->inputs(), inst.module->outputs(),
        inst.visible, sequential);
    ExpectIdentical(naive, a, seed);
    for (int threads : {2, 4, 8}) {
      EnumerationOptions parallel = sequential;
      parallel.num_threads = threads;
      const StandaloneWorlds b = EnumerateStandaloneWorlds(
          inst.relation, inst.module->inputs(), inst.module->outputs(),
          inst.visible, parallel);
      ExpectIdentical(a, b, seed);
      EXPECT_EQ(a.pruned_candidates, b.pruned_candidates);
      EXPECT_EQ(a.early_stopped, b.early_stopped);
    }
  }
}

TEST(PossibleWorldsEquivalenceTest, ParallelMatchesWhenShardsDivideUnevenly) {
  // Regression: slot-0 feasible counts that are not a multiple of the
  // thread count once produced an empty trailing shard whose walker read
  // past the feasible-code array (6 feasible codes over 4 threads shards as
  // ceil(6/4)=2 → starts 0,2,4,6 — the last is out of range).
  for (uint64_t seed = 500; seed < 510; ++seed) {
    auto catalog = std::make_shared<AttributeCatalog>();
    std::vector<AttrId> in, out;
    for (int i = 0; i < 3; ++i) {
      in.push_back(catalog->Add("i" + std::to_string(i)));
    }
    out.push_back(catalog->Add("o0", 3));
    out.push_back(catalog->Add("o1", 2));
    Rng rng(seed);
    ModulePtr m = MakeRandomFunction("m", catalog, in, out, &rng);
    Relation rel = m->FullRelation();
    // Hide one input and the domain-3 output: every slot keeps all six
    // output codes feasible whenever both o1 values occur in its group.
    Bitset64 visible = Bitset64::All(catalog->size());
    visible.Reset(in[0]);
    visible.Reset(out[0]);

    EnumerationOptions sequential;
    sequential.num_threads = 1;
    sequential.max_candidates = int64_t{1} << 34;
    StandaloneWorlds a = EnumerateStandaloneWorlds(rel, m->inputs(),
                                                   m->outputs(), visible,
                                                   sequential);
    for (int threads : {2, 4, 8}) {
      EnumerationOptions parallel = sequential;
      parallel.num_threads = threads;
      parallel.min_parallel_candidates = 0;
      StandaloneWorlds b = EnumerateStandaloneWorlds(rel, m->inputs(),
                                                     m->outputs(), visible,
                                                     parallel);
      ExpectIdentical(a, b, seed);
    }
  }
}

TEST(PossibleWorldsEquivalenceTest, GammaShortCircuitAgreesWithAlgorithm2) {
  for (uint64_t seed = 300; seed < 320; ++seed) {
    RandomInstance inst = MakeInstance(2, 2, 3, 2, seed);
    for (int64_t gamma : {1, 2, 3, 5}) {
      bool alg2 = IsStandaloneSafe(inst.relation, inst.module->inputs(),
                                   inst.module->outputs(), inst.visible,
                                   gamma);
      bool brute = IsStandaloneSafeByEnumeration(
          inst.relation, inst.module->inputs(), inst.module->outputs(),
          inst.visible, gamma);
      EXPECT_EQ(alg2, brute) << "seed " << seed << " gamma " << gamma;
    }
  }
}

TEST(PossibleWorldsEquivalenceTest, GammaShortCircuitUnderThreads) {
  for (uint64_t seed = 400; seed < 406; ++seed) {
    RandomInstance inst = MakeInstance(2, 2, 3, 2, seed);
    EnumerationOptions opts;
    opts.num_threads = 4;
    opts.min_parallel_candidates = 0;
    bool alg2 = IsStandaloneSafe(inst.relation, inst.module->inputs(),
                                 inst.module->outputs(), inst.visible, 2);
    bool brute = IsStandaloneSafeByEnumeration(
        inst.relation, inst.module->inputs(), inst.module->outputs(),
        inst.visible, 2, opts);
    EXPECT_EQ(alg2, brute) << "seed " << seed;
  }
}

TEST(PossibleWorldsEquivalenceTest, EmptyRelationYieldsNoWorlds) {
  auto catalog = std::make_shared<AttributeCatalog>();
  AttrId a = catalog->Add("a");
  AttrId b = catalog->Add("b");
  Relation empty(Schema(catalog, {a, b}));
  StandaloneWorlds fast =
      EnumerateStandaloneWorlds(empty, {a}, {b}, Bitset64::All(2));
  StandaloneWorlds naive =
      EnumerateStandaloneWorldsNaive(empty, {a}, {b}, Bitset64::All(2));
  EXPECT_EQ(fast.num_worlds, naive.num_worlds);
  EXPECT_TRUE(fast.out_sets.empty());
}

}  // namespace
}  // namespace provview
