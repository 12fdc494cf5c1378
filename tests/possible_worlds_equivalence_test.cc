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
