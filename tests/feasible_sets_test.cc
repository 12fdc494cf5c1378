// Unit tests of the feasible-set fixpoint (privacy/feasible_sets.h): pinned
// propagation through forced free modules, backward narrowing through fixed
// modules, unreachable-domain-point factoring, the termination bound, the
// determined slots' candidate lists against the naive joint odometer, and
// the exactness of the enumeration that consumes the result.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/combinatorics.h"
#include "common/rng.h"
#include "generators/families.h"
#include "generators/random_workflow.h"
#include "module/module_library.h"
#include "privacy/feasible_sets.h"
#include "privacy/possible_worlds.h"

namespace provview {
namespace {

void ExpectIdenticalWorlds(const WorkflowWorlds& a, const WorkflowWorlds& b) {
  EXPECT_EQ(a.num_function_choices, b.num_function_choices);
  EXPECT_EQ(a.num_distinct_relations, b.num_distinct_relations);
  ASSERT_EQ(a.out_sets.size(), b.out_sets.size());
  for (size_t i = 0; i < a.out_sets.size(); ++i) {
    EXPECT_EQ(a.out_sets[i], b.out_sets[i]) << "module " << i;
  }
}

WorkflowWorlds Enumerate(const WorkflowTables& tables, const Bitset64& visible,
                         const std::vector<int>& fixed) {
  WorkflowEnumerationOptions opts;
  opts.max_candidates = int64_t{1} << 33;
  return EnumerateWorkflowWorlds(tables, visible, fixed, opts);
}

TEST(FeasibleSetsTest, ForcedPropagationCrossesVisibleFreeStages) {
  // 4-stage one-one chain, hide only layer 3: every stage above the hidden
  // layer is fully visible, so the fixpoint forces stages 1-2 (their slots
  // collapse to the original codes) and pins their outputs; stage 3 is
  // determined with pruned candidates, stage 4 stays non-determined.
  Rng rng(5);
  OneOneChain chain = MakeOneOneChain(4, 2, &rng);
  Bitset64 hidden(chain.catalog->size());
  for (AttrId id : chain.layer_attrs[3]) hidden.Set(id);
  Bitset64 visible = hidden.Complement();
  auto tables = BuildWorkflowTables(*chain.workflow);
  FeasibleSetAnalysis a = AnalyzeFeasibleSets(*tables, visible, {});

  EXPECT_TRUE(a.determined[0] && a.forced[0]);
  EXPECT_TRUE(a.determined[1] && a.forced[1]);
  EXPECT_TRUE(a.determined[2]);
  EXPECT_FALSE(a.forced[2]);  // hidden outputs keep all 4 candidates
  EXPECT_FALSE(a.determined[3]);
  // Forced stages pin their outputs.
  for (AttrId id : chain.layer_attrs[1]) EXPECT_TRUE(a.pinned_attr[id]);
  for (AttrId id : chain.layer_attrs[2]) EXPECT_TRUE(a.pinned_attr[id]);
  for (AttrId id : chain.layer_attrs[3]) EXPECT_FALSE(a.pinned_attr[id]);
  // Forced slots are singletons holding the original code.
  for (size_t k = 0; k < a.det_slot_codes[0].size(); ++k) {
    ASSERT_EQ(a.det_slot_codes[0][k].size(), 1u);
    EXPECT_EQ(a.det_slot_codes[0][k][0],
              tables->original_fn[0][static_cast<size_t>(
                  tables->orig_input_codes[0][k])]);
  }
  // Termination bound from the header: depth + 2 sweeps.
  EXPECT_LE(a.iterations, chain.workflow->Depth() + 2);

  // The same shape at k = 1 (naive joint space 4^4 = 256; at k = 2 it is
  // 2^32): the enumeration consuming the analysis is exact.
  Rng small_rng(5);
  OneOneChain small = MakeOneOneChain(4, 1, &small_rng);
  Bitset64 small_hidden(small.catalog->size());
  for (AttrId id : small.layer_attrs[3]) small_hidden.Set(id);
  const Bitset64 small_visible = small_hidden.Complement();
  auto small_tables = BuildWorkflowTables(*small.workflow);
  FeasibleSetAnalysis sa =
      AnalyzeFeasibleSets(*small_tables, small_visible, {});
  EXPECT_TRUE(sa.forced[0] && sa.forced[1]);
  EXPECT_TRUE(sa.determined[2]);
  EXPECT_FALSE(sa.determined[3]);
  ExpectIdenticalWorlds(
      EnumerateWorkflowWorldsNaive(*small.workflow, small_visible, {}),
      Enumerate(*small_tables, small_visible, {}));
}

TEST(FeasibleSetsTest, BackwardNarrowingThroughFixedModuleForcesHiddenStage) {
  // x --free m1 (constant)--> t (hidden) --fixed m2 (negation)--> y
  // (visible). The view pins y to a single value; the fixed bijection pulls
  // that constraint backward to t, whose feasible set collapses to the
  // original constant — so m1 is forced although its outputs are hidden.
  auto catalog = std::make_shared<AttributeCatalog>();
  std::vector<AttrId> x, t, y;
  for (int i = 0; i < 2; ++i) x.push_back(catalog->Add("x" + std::to_string(i)));
  for (int i = 0; i < 2; ++i) t.push_back(catalog->Add("t" + std::to_string(i)));
  for (int i = 0; i < 2; ++i) y.push_back(catalog->Add("y" + std::to_string(i)));
  Workflow wf(catalog);
  wf.AddModule(MakeConstant("m1", catalog, x, t, Tuple{1, 0}));
  ModulePtr neg = MakeNegation("m2", catalog, t, y);
  neg->set_public(true);
  wf.AddModule(std::move(neg));
  PV_CHECK(wf.Validate().ok());

  Bitset64 hidden(catalog->size());
  for (AttrId id : t) hidden.Set(id);
  Bitset64 visible = hidden.Complement();
  auto tables = BuildWorkflowTables(wf);
  FeasibleSetAnalysis a = AnalyzeFeasibleSets(*tables, visible, {1});

  for (AttrId id : t) {
    EXPECT_EQ(a.feasible_values[id].size(), 1u) << "attr " << id;
    EXPECT_TRUE(a.pinned_attr[id]);
  }
  EXPECT_TRUE(a.forced[0]);
  EXPECT_LE(a.iterations, wf.Depth() + 2);

  WorkflowWorlds on = Enumerate(*tables, visible, {1});
  ExpectIdenticalWorlds(EnumerateWorkflowWorldsNaive(wf, visible, {1}), on);
  // The fixpoint collapses the walk to the single consistent world, where
  // determinedness alone would walk the hidden stage at full range.
  EXPECT_EQ(on.pruned_candidates, 1);
}

TEST(FeasibleSetsTest, UnreachableDomainPointsOfFreeModulesAreFactored) {
  // m1 maps x to (t0_const, parity(x)): t0 is visibly constant, t1 is
  // hidden, so m1 is determined but not forced and m2 stays
  // non-determined. The fixpoint still proves every (t0 = !t0_const, *)
  // domain point of m2 unreachable in any consistent world and factors
  // those slots out of the walk. With t0_const = 1 the factored points are
  // m2's LOWEST domain codes; the parallel run below shards the walk's
  // first branch point.
  for (int32_t t0_const : {0, 1}) {
    auto catalog = std::make_shared<AttributeCatalog>();
    std::vector<AttrId> x;
    for (int i = 0; i < 2; ++i) {
      x.push_back(catalog->Add("x" + std::to_string(i)));
    }
    AttrId t0 = catalog->Add("t0");
    AttrId t1 = catalog->Add("t1");
    AttrId u = catalog->Add("u");
    Workflow wf(catalog);
    wf.AddModule(std::make_unique<LambdaModule>(
        "m1", catalog, x, std::vector<AttrId>{t0, t1},
        [t0_const](const Tuple& in) {
          return Tuple{t0_const, in[0] ^ in[1]};
        }));
    wf.AddModule(MakeParity("m2", catalog, {t0, t1}, u));
    PV_CHECK(wf.Validate().ok());

    Bitset64 visible = Bitset64::All(catalog->size());
    visible.Reset(t1);
    auto tables = BuildWorkflowTables(wf);
    FeasibleSetAnalysis a = AnalyzeFeasibleSets(*tables, visible, {});

    EXPECT_TRUE(a.determined[0]);
    EXPECT_FALSE(a.forced[0]);
    EXPECT_FALSE(a.determined[1]);
    EXPECT_EQ(a.feasible_values[t0], (std::vector<int32_t>{t0_const}));
    EXPECT_EQ(a.feasible_values[t1].size(), 2u);
    EXPECT_EQ(a.factored_free_slots, 2);  // the (t0 = !t0_const, *) points
    ASSERT_EQ(a.feasible_in_codes[1].size(), 2u);

    // Exact against the naive reference, sequentially and with the walk
    // sharded across a forced pool.
    WorkflowWorlds naive = EnumerateWorkflowWorldsNaive(wf, visible, {});
    WorkflowWorlds on = Enumerate(*tables, visible, {});
    ExpectIdenticalWorlds(naive, on);
    // Pruning m1's slots and factoring m2's unreachable points shrink the
    // walked space below the naive joint space.
    EXPECT_LT(on.pruned_candidates, naive.pruned_candidates);

    WorkflowEnumerationOptions parallel;
    parallel.max_candidates = int64_t{1} << 33;
    parallel.num_threads = 4;
    parallel.min_parallel_candidates = 0;
    WorkflowWorlds sharded =
        EnumerateWorkflowWorlds(*tables, visible, {}, parallel);
    ExpectIdenticalWorlds(naive, sharded);
  }
}

TEST(FeasibleSetsTest, OriginalValuesAlwaysSurvive) {
  // Randomized invariant sweep: on random visible sets of random deep
  // chains, every original value stays feasible, reached slots keep the
  // original code, and the sweep count respects the termination bound.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 53 + 9);
    OneOneChain chain = MakeOneOneChain(4, 1, &rng);
    Bitset64 visible(chain.catalog->size());
    for (int attr = 0; attr < chain.catalog->size(); ++attr) {
      if (rng.NextBernoulli(0.5)) visible.Set(attr);
    }
    auto tables = BuildWorkflowTables(*chain.workflow);
    FeasibleSetAnalysis a = AnalyzeFeasibleSets(*tables, visible, {});
    EXPECT_LE(a.iterations, chain.workflow->Depth() + 2) << "seed " << seed;
    for (int mi = 0; mi < tables->num_modules; ++mi) {
      for (const int32_t c : tables->orig_input_codes[mi]) {
        const int32_t orig_out = tables->original_fn[mi][c];
        const auto& cs = a.feasible_out_codes[mi];
        EXPECT_TRUE(std::find(cs.begin(), cs.end(), orig_out) != cs.end())
            << "seed " << seed << " module " << mi << " code " << c;
      }
      if (a.determined[mi]) {
        for (size_t k = 0; k < a.det_slot_codes[mi].size(); ++k) {
          const auto& list = a.det_slot_codes[mi][k];
          const int32_t orig_out = tables->original_fn[mi][static_cast<size_t>(
              tables->orig_input_codes[mi][k])];
          EXPECT_TRUE(std::find(list.begin(), list.end(), orig_out) !=
                      list.end())
              << "seed " << seed << " module " << mi;
        }
      }
    }
  }
}

TEST(FeasibleSetsTest, DeterminedSlotsHoldEveryNaiveOutput) {
  // The naive joint odometer is an oracle independent of the fixpoint: on
  // random 2–3-module workflows with random visible sets and some fixed
  // public modules, every output it records for an original input of a
  // determined free module must survive in that slot's candidate list, and
  // its values must be feasible. Non-original outputs must occur often
  // enough that a list missing one reachable code cannot pass.
  int checked = 0;
  int non_original = 0;  // (slot, non-original naive output) instances
  for (uint64_t seed = 1; seed <= 400 && checked < 48; ++seed) {
    Rng rng(seed * 97 + 11);
    RandomWorkflowOptions options;
    options.num_modules = seed % 2 == 0 ? 2 : 3;
    options.min_inputs = 1;
    options.max_inputs = 2;
    options.min_outputs = 1;
    options.max_outputs = 1;
    options.all_boolean = true;
    GeneratedWorkflow g = MakeRandomWorkflow(options, &rng);
    const Workflow& wf = *g.workflow;
    std::vector<int> fixed;
    int64_t joint = 1;
    for (int i = 0; i < wf.num_modules(); ++i) {
      if (rng.NextBernoulli(0.3)) {
        g.workflow->mutable_module(i)->set_public(true);
        fixed.push_back(i);
        continue;
      }
      const Module& m = wf.module(i);
      joint = SaturatingMul(joint, SaturatingPow(m.RangeSize(),
                                                 static_cast<int>(
                                                     m.DomainSize())));
    }
    if (joint > (1 << 16)) continue;
    Bitset64 visible(g.catalog->size());
    for (int a = 0; a < g.catalog->size(); ++a) {
      if (rng.NextBernoulli(0.5)) visible.Set(a);
    }
    auto tables = BuildWorkflowTables(wf);
    const FeasibleSetAnalysis a = AnalyzeFeasibleSets(*tables, visible, fixed);
    const WorkflowWorlds naive =
        EnumerateWorkflowWorldsNaive(wf, visible, fixed);
    for (int mi = 0; mi < wf.num_modules(); ++mi) {
      if (!a.determined[mi] ||
          std::find(fixed.begin(), fixed.end(), mi) != fixed.end()) {
        continue;
      }
      const std::vector<int32_t>& points = tables->orig_input_codes[mi];
      ASSERT_EQ(a.det_slot_codes[mi].size(), points.size()) << "seed " << seed;
      for (size_t k = 0; k < points.size(); ++k) {
        const Tuple x = DecodeMixedRadix(points[k], tables->in_radices[mi]);
        const auto it = naive.out_sets[mi].find(x);
        ASSERT_TRUE(it != naive.out_sets[mi].end()) << "seed " << seed;
        const std::vector<int32_t>& list = a.det_slot_codes[mi][k];
        for (const Tuple& y : it->second) {
          const int32_t code = static_cast<int32_t>(
              EncodeMixedRadix(y, tables->out_radices[mi]));
          EXPECT_TRUE(std::binary_search(list.begin(), list.end(), code))
              << "seed " << seed << " module " << mi << " slot " << k
              << " code " << code;
          for (size_t j = 0; j < y.size(); ++j) {
            const auto& values = a.feasible_values[tables->out_attrs[mi][j]];
            EXPECT_TRUE(
                std::binary_search(values.begin(), values.end(), y[j]))
                << "seed " << seed << " module " << mi << " output " << j;
          }
          if (code != tables->original_fn[mi][static_cast<size_t>(points[k])]) {
            ++non_original;
          }
        }
      }
    }
    ++checked;
  }
  EXPECT_GE(checked, 40);
  EXPECT_GE(non_original, 60);
}

}  // namespace
}  // namespace provview
