// Equivalence suite for the pruned/sharded workflow possible-worlds engine:
// on randomized small workflows the optimized enumerator must return
// byte-identical num_function_choices, num_distinct_relations and out_sets
// to the retained naive joint odometer, with fixed (public) modules, under
// thread sharding, and the Γ short-circuit must agree with the full walk.
#include <gtest/gtest.h>

#include <limits>

#include "common/combinatorics.h"
#include "common/rng.h"
#include "common/task_graph.h"
#include "generators/families.h"
#include "generators/random_workflow.h"
#include "module/module_library.h"
#include "privacy/feasible_sets.h"
#include "privacy/possible_worlds.h"
#include "workflow/fig1_workflow.h"

namespace provview {
namespace {

RandomWorkflowOptions SmallOptions(int num_modules) {
  RandomWorkflowOptions options;
  options.num_modules = num_modules;
  options.min_inputs = 1;
  options.max_inputs = 2;
  options.min_outputs = 1;
  options.max_outputs = 1;
  options.all_boolean = true;
  return options;
}

// A random hidden subset of the workflow's used attributes.
Bitset64 RandomVisible(const Workflow& workflow, Rng* rng, double p_visible) {
  Bitset64 visible(workflow.catalog()->size());
  for (int a = 0; a < workflow.catalog()->size(); ++a) {
    if (rng->NextBernoulli(p_visible)) visible.Set(a);
  }
  return visible;
}

// The naive joint space ∏ |Range_i|^{|Dom_i|} over free modules, so tests
// can skip instances out of the reference implementation's reach.
int64_t NaiveJoint(const Workflow& workflow,
                   const std::vector<int>& fixed_modules) {
  std::vector<bool> fixed(static_cast<size_t>(workflow.num_modules()), false);
  for (int i : fixed_modules) fixed[static_cast<size_t>(i)] = true;
  int64_t joint = 1;
  for (int i = 0; i < workflow.num_modules(); ++i) {
    if (fixed[static_cast<size_t>(i)]) continue;
    const Module& m = workflow.module(i);
    joint = SaturatingMul(joint,
                          SaturatingPow(m.RangeSize(),
                                        static_cast<int>(m.DomainSize())));
  }
  return joint;
}

void ExpectIdentical(const WorkflowWorlds& naive, const WorkflowWorlds& fast,
                     uint64_t seed) {
  EXPECT_EQ(naive.num_function_choices, fast.num_function_choices)
      << "seed " << seed;
  EXPECT_EQ(naive.num_distinct_relations, fast.num_distinct_relations)
      << "seed " << seed;
  ASSERT_EQ(naive.out_sets.size(), fast.out_sets.size()) << "seed " << seed;
  for (size_t i = 0; i < naive.out_sets.size(); ++i) {
    EXPECT_EQ(naive.out_sets[i], fast.out_sets[i])
        << "seed " << seed << " module " << i;
    EXPECT_EQ(naive.MinOutSize(static_cast<int>(i)),
              fast.MinOutSize(static_cast<int>(i)))
        << "seed " << seed << " module " << i;
  }
}

TEST(WorkflowWorldsEquivalenceTest, RandomizedWorkflowsMatchNaive) {
  int checked = 0;
  for (uint64_t seed = 1; seed <= 40 && checked < 20; ++seed) {
    Rng rng(seed * 77 + 3);
    GeneratedWorkflow g =
        MakeRandomWorkflow(SmallOptions(seed % 2 == 0 ? 2 : 3), &rng);
    if (NaiveJoint(*g.workflow, {}) > (1 << 16)) continue;
    Bitset64 visible = RandomVisible(*g.workflow, &rng, 0.5);
    WorkflowWorlds naive =
        EnumerateWorkflowWorldsNaive(*g.workflow, visible, {});
    WorkflowWorlds fast = EnumerateWorkflowWorlds(*g.workflow, visible, {});
    ExpectIdentical(naive, fast, seed);
    EXPECT_LE(fast.pruned_candidates, fast.naive_candidates) << "seed " << seed;
    EXPECT_FALSE(fast.early_stopped);
    ++checked;
  }
  EXPECT_GE(checked, 10);  // the generator must yield enough small instances
}

TEST(WorkflowWorldsEquivalenceTest, FixedModulesMatchNaive) {
  int checked = 0;
  for (uint64_t seed = 100; seed <= 140 && checked < 12; ++seed) {
    Rng rng(seed * 131 + 7);
    GeneratedWorkflow g = MakeRandomWorkflow(SmallOptions(3), &rng);
    // Fix a random module (Definition 4's public-module constraint).
    const int fixed_index =
        static_cast<int>(rng.NextBelow(static_cast<uint64_t>(
            g.workflow->num_modules())));
    g.workflow->mutable_module(fixed_index)->set_public(true);
    if (NaiveJoint(*g.workflow, {fixed_index}) > (1 << 16)) continue;
    Bitset64 visible = RandomVisible(*g.workflow, &rng, 0.5);
    WorkflowWorlds naive = EnumerateWorkflowWorldsNaive(
        *g.workflow, visible, {fixed_index});
    WorkflowWorlds fast =
        EnumerateWorkflowWorlds(*g.workflow, visible, {fixed_index});
    ExpectIdentical(naive, fast, seed);
    ++checked;
  }
  EXPECT_GE(checked, 6);
}

TEST(WorkflowWorldsEquivalenceTest, ParallelShardsMatchSequential) {
  // The walk's first multi-code branch point splits into contiguous
  // rank-range tasks of one graph, on a private executor or on the
  // caller's shared one; the tables build
  // shards its scan the same way. With the size gate off, 2/4/8 threads —
  // on either executor — must reproduce the one-thread run byte for byte,
  // and all of them the naive joint odometer.
  TaskGraphExecutor shared(3);
  int checked = 0;
  for (uint64_t seed = 200; seed < 220; ++seed) {
    Rng rng(seed * 17 + 1);
    GeneratedWorkflow g =
        MakeRandomWorkflow(SmallOptions(seed % 2 == 0 ? 2 : 3), &rng);
    if (NaiveJoint(*g.workflow, {}) > (1 << 16)) continue;
    Bitset64 visible = RandomVisible(*g.workflow, &rng, 0.5);
    WorkflowEnumerationOptions sequential;
    sequential.num_threads = 1;
    sequential.min_parallel_candidates = 0;
    WorkflowWorlds a =
        EnumerateWorkflowWorlds(*g.workflow, visible, {}, sequential);
    ExpectIdentical(EnumerateWorkflowWorldsNaive(*g.workflow, visible, {}),
                    a, seed);
    for (int threads : {2, 4, 8}) {
      for (TaskGraphExecutor* executor :
           {static_cast<TaskGraphExecutor*>(nullptr), &shared}) {
        WorkflowTablesOptions topts;
        topts.num_threads = threads;
        topts.executor = executor;
        topts.chunk_executions = 1;  // one scan shard per thread
        WorkflowEnumerationOptions parallel = sequential;
        parallel.num_threads = threads;
        parallel.executor = executor;
        WorkflowWorlds b = EnumerateWorkflowWorlds(
            *BuildWorkflowTables(*g.workflow, topts), visible, {}, parallel);
        ExpectIdentical(a, b, seed);
        EXPECT_EQ(a.pruned_candidates, b.pruned_candidates);
        EXPECT_EQ(a.early_stopped, b.early_stopped);
      }
    }
    ++checked;
  }
  EXPECT_GE(checked, 5);
}

TEST(WorkflowWorldsEquivalenceTest, SharedTablesMatchFreshTables) {
  Rng rng(42);
  GeneratedWorkflow g = MakeRandomWorkflow(SmallOptions(2), &rng);
  auto tables = BuildWorkflowTables(*g.workflow);
  WorkflowEnumerationOptions opts;
  for (uint64_t seed = 300; seed < 306; ++seed) {
    Rng vis_rng(seed);
    Bitset64 visible = RandomVisible(*g.workflow, &vis_rng, 0.5);
    WorkflowWorlds shared =
        EnumerateWorkflowWorlds(*tables, visible, {}, opts);
    WorkflowWorlds fresh = EnumerateWorkflowWorlds(*g.workflow, visible, {});
    ExpectIdentical(fresh, shared, seed);
  }
}

TEST(WorkflowWorldsEquivalenceTest, GammaShortCircuitAgreesWithFullWalk) {
  for (uint64_t seed = 400; seed < 412; ++seed) {
    Rng rng(seed * 29 + 11);
    GeneratedWorkflow g = MakeRandomWorkflow(SmallOptions(2), &rng);
    if (NaiveJoint(*g.workflow, {}) > (1 << 16)) continue;
    Bitset64 visible = RandomVisible(*g.workflow, &rng, 0.5);
    WorkflowWorlds full = EnumerateWorkflowWorlds(*g.workflow, visible, {});
    int64_t min_out = std::numeric_limits<int64_t>::max();
    for (int i = 0; i < g.workflow->num_modules(); ++i) {
      min_out = std::min(min_out, full.MinOutSize(i));
    }
    for (int64_t gamma : {int64_t{1}, int64_t{2}, int64_t{3}}) {
      WorkflowEnumerationOptions opts;
      opts.gamma = gamma;
      opts.collect_distinct_relations = false;
      WorkflowWorlds early =
          EnumerateWorkflowWorlds(*g.workflow, visible, {}, opts);
      bool early_verdict = early.early_stopped;
      if (!early_verdict) {
        early_verdict = true;
        for (int i = 0; i < g.workflow->num_modules(); ++i) {
          early_verdict = early_verdict && early.MinOutSize(i) >= gamma;
        }
      }
      EXPECT_EQ(min_out >= gamma, early_verdict)
          << "seed " << seed << " gamma " << gamma;
    }
  }
}

// ---------------------------------------------------------------------
// The E-family instances (the bench workloads) pin down the exact shapes
// the speedup claims are made on.
// ---------------------------------------------------------------------

TEST(WorkflowWorldsEquivalenceTest, Prop2ChainMatchesNaive) {
  Prop2Chain chain = MakeProp2Chain(2);
  Bitset64 hidden = Bitset64::Of(6, {2});  // one intermediate bit
  Bitset64 visible = hidden.Complement();
  WorkflowWorlds naive =
      EnumerateWorkflowWorldsNaive(*chain.workflow, visible, {});
  WorkflowWorlds fast = EnumerateWorkflowWorlds(*chain.workflow, visible, {});
  ExpectIdentical(naive, fast, 0);
  // m1 is fed by initial inputs only, so its slots are pruned.
  EXPECT_LT(fast.pruned_candidates, fast.naive_candidates);
}

TEST(WorkflowWorldsEquivalenceTest, Example7FixedConstantPrunesToOriginal) {
  Rng rng(9);
  Example7Chain chain = MakeExample7Chain(2, &rng);
  // Hide the private bijection's inputs; keep the public constant fixed.
  Bitset64 hidden(chain.catalog->size());
  for (AttrId id : chain.workflow->module(chain.bijection_index).inputs()) {
    hidden.Set(id);
  }
  Bitset64 visible = hidden.Complement();
  WorkflowWorlds naive = EnumerateWorkflowWorldsNaive(
      *chain.workflow, visible, {chain.constant_index});
  WorkflowWorlds fast = EnumerateWorkflowWorlds(*chain.workflow, visible,
                                                {chain.constant_index});
  ExpectIdentical(naive, fast, 0);
  // The bijection inherits determined inputs through the fixed constant:
  // only one domain point is ever reached and its visible output is forced,
  // so the walk collapses to a single candidate.
  EXPECT_EQ(fast.pruned_candidates, 1);
  EXPECT_GT(fast.naive_candidates, fast.pruned_candidates);
}

TEST(WorkflowWorldsEquivalenceTest, Example7FreeChainsMatchNaive) {
  Rng rng(13);
  Example7Chain in_chain = MakeExample7Chain(2, &rng);
  Example7OutputChain out_chain = MakeExample7OutputChain(2, &rng);
  for (const Workflow* w :
       {in_chain.workflow.get(), out_chain.workflow.get()}) {
    // Hide the intermediate attributes; both modules free.
    Bitset64 hidden(w->catalog()->size());
    for (AttrId id : w->module(1).inputs()) hidden.Set(id);
    Bitset64 visible = hidden.Complement();
    WorkflowWorlds naive = EnumerateWorkflowWorldsNaive(*w, visible, {});
    WorkflowWorlds fast = EnumerateWorkflowWorlds(*w, visible, {});
    ExpectIdentical(naive, fast, 0);
  }
}

// ---------------------------------------------------------------------
// Deep (>=4-stage) fixtures: the feasible-set fixpoint feeds the walk, and
// the engine must agree with the naive reference on the shapes where the
// fixpoint prunes across free stages.
// ---------------------------------------------------------------------

namespace {

WorkflowWorlds EnumerateDeep(const Workflow& w, const Bitset64& visible,
                             const std::vector<int>& fixed,
                             int num_threads = 1) {
  WorkflowEnumerationOptions opts;
  opts.max_candidates = int64_t{1} << 33;
  opts.num_threads = num_threads;
  opts.min_parallel_candidates = 0;
  return EnumerateWorkflowWorlds(w, visible, fixed, opts);
}

// Γ-privacy verdict per private module: |OUT| reaches Γ on every input.
std::vector<bool> PrivateVerdicts(const Workflow& w, const WorkflowWorlds& r,
                                  int64_t gamma) {
  std::vector<bool> verdicts;
  for (int i : w.PrivateModuleIndices()) {
    verdicts.push_back(r.early_stopped || r.MinOutSize(i) >= gamma);
  }
  return verdicts;
}

}  // namespace

TEST(WorkflowWorldsEquivalenceTest, DeepChainMatchesNaiveEveryHiddenLayer) {
  // 4-stage one-bit chain (naive joint 4^4 = 256): hide each layer in turn.
  for (int hidden_layer = 1; hidden_layer <= 3; ++hidden_layer) {
    Rng rng(static_cast<uint64_t>(hidden_layer) * 19 + 2);
    OneOneChain chain = MakeOneOneChain(4, 1, &rng);
    Bitset64 hidden(chain.catalog->size());
    for (AttrId id : chain.layer_attrs[static_cast<size_t>(hidden_layer)]) {
      hidden.Set(id);
    }
    Bitset64 visible = hidden.Complement();
    WorkflowWorlds naive =
        EnumerateWorkflowWorldsNaive(*chain.workflow, visible, {});
    ExpectIdentical(naive, EnumerateDeep(*chain.workflow, visible, {}),
                    static_cast<uint64_t>(hidden_layer));
  }
}

TEST(WorkflowWorldsEquivalenceTest, RandomizedDeepChainsMatchNaive) {
  // Random visible subsets over random 4- and 5-stage one-bit chains (naive
  // joint at most 4^5 = 1024).
  for (uint64_t seed = 500; seed < 540; ++seed) {
    Rng rng(seed * 37 + 5);
    OneOneChain chain = MakeOneOneChain(seed % 2 == 0 ? 4 : 5, 1, &rng);
    Bitset64 visible = RandomVisible(*chain.workflow, &rng, 0.5);
    ASSERT_LE(NaiveJoint(*chain.workflow, {}), 1 << 16);
    ExpectIdentical(EnumerateWorkflowWorldsNaive(*chain.workflow, visible, {}),
                    EnumerateDeep(*chain.workflow, visible, {}), seed);
  }
}

TEST(WorkflowWorldsEquivalenceTest, DiamondWithFixedSourceMatchesNaive) {
  // Diamond with the source public (naive joint 4 * 4 * 256 = 4096), sink
  // outputs hidden.
  Rng rng(77);
  DiamondWorkflow dia = MakeDiamondWorkflow(1, /*with_tail=*/false, &rng);
  dia.workflow->mutable_module(dia.source_index)->set_public(true);
  Bitset64 hidden(dia.catalog->size());
  for (AttrId id : dia.y) hidden.Set(id);
  Bitset64 visible = hidden.Complement();
  WorkflowWorlds naive = EnumerateWorkflowWorldsNaive(
      *dia.workflow, visible, {dia.source_index});
  ExpectIdentical(naive,
                  EnumerateDeep(*dia.workflow, visible, {dia.source_index}),
                  0);
}

TEST(WorkflowWorldsEquivalenceTest, DiamondWithTailShardsAndGammaAgree) {
  // The all-free E1f diamond (too large for the naive reference): the
  // fixpoint forces the source and both branches and prunes the sink. The
  // sharded walk must reproduce the sequential one, and the Γ
  // short-circuit its verdict.
  Rng rng(78);
  DiamondWorkflow dia = MakeDiamondWorkflow(1, /*with_tail=*/true, &rng);
  Bitset64 hidden(dia.catalog->size());
  for (AttrId id : dia.y) hidden.Set(id);
  Bitset64 visible = hidden.Complement();
  WorkflowWorlds full = EnumerateDeep(*dia.workflow, visible, {});
  EXPECT_GT(full.num_function_choices, 0);
  ExpectIdentical(full, EnumerateDeep(*dia.workflow, visible, {}, 4), 0);

  for (int64_t gamma : {int64_t{1}, int64_t{2}}) {
    WorkflowEnumerationOptions gopts;
    gopts.max_candidates = int64_t{1} << 33;
    gopts.gamma = gamma;
    gopts.collect_distinct_relations = false;
    WorkflowWorlds early =
        EnumerateWorkflowWorlds(*dia.workflow, visible, {}, gopts);
    EXPECT_EQ(PrivateVerdicts(*dia.workflow, full, gamma),
              PrivateVerdicts(*dia.workflow, early, gamma))
        << "gamma " << gamma;
  }
}

// ---------------------------------------------------------------------
// The lazy walk: thread invariance and early stop. The audit-verdict and
// deep-log oracles live in workflow_walk_oracle_equivalence_test.
// ---------------------------------------------------------------------

TEST(WorkflowWorldsEquivalenceTest, FullRunsAreThreadInvariant) {
  // Full runs at 1, 2 and 4 threads, with the size gate off. The deep
  // chains' first stage is forced, so their walks first reach a singleton
  // slot and shard a later branch point.
  Rng rng(91);
  Prop2Chain prop2 = MakeProp2Chain(2);
  OneOneChain chain1 = MakeOneOneChain(4, 1, &rng);
  OneOneChain chain2 = MakeOneOneChain(4, 2, &rng);
  DiamondWorkflow dia = MakeDiamondWorkflow(1, /*with_tail=*/true, &rng);
  auto hide = [](const CatalogPtr& catalog, const std::vector<AttrId>& ids) {
    Bitset64 hidden(catalog->size());
    for (AttrId id : ids) hidden.Set(id);
    return hidden.Complement();
  };
  struct Case {
    const Workflow* workflow;
    Bitset64 visible;
    bool first_stage_forced;
  };
  const std::vector<Case> cases = {
      {prop2.workflow.get(), Bitset64::Of(6, {2}).Complement(), false},
      {chain1.workflow.get(), hide(chain1.catalog, chain1.layer_attrs[3]),
       true},
      {chain2.workflow.get(), hide(chain2.catalog, chain2.layer_attrs[3]),
       true},
      {dia.workflow.get(), hide(dia.catalog, dia.y), true},
  };
  for (size_t c = 0; c < cases.size(); ++c) {
    const Workflow& w = *cases[c].workflow;
    if (cases[c].first_stage_forced) {
      auto tables = BuildWorkflowTables(w);
      FeasibleSetAnalysis a =
          AnalyzeFeasibleSets(*tables, cases[c].visible, {});
      ASSERT_TRUE(a.forced[static_cast<size_t>(w.topo_order()[0])])
          << "case " << c;
    }
    WorkflowWorlds one = EnumerateDeep(w, cases[c].visible, {}, 1);
    EXPECT_GT(one.num_function_choices, 0) << "case " << c;
    for (int threads : {2, 4}) {
      WorkflowWorlds many = EnumerateDeep(w, cases[c].visible, {}, threads);
      ExpectIdentical(one, many, c);
      EXPECT_FALSE(many.early_stopped);
    }
  }
}

TEST(WorkflowWorldsEquivalenceTest, EarlyStopKeepsFullRunVerdicts) {
  // Under Γ the walk may stop early; early_stopped and every private
  // module's verdict must equal what the full run's OUT sets say, and the
  // function-choice count is only a lower bound.
  int checked = 0;
  for (uint64_t seed = 600; seed < 640; ++seed) {
    Rng rng(seed * 43 + 1);
    GeneratedWorkflow g =
        MakeRandomWorkflow(SmallOptions(seed % 2 == 0 ? 2 : 3), &rng);
    if (g.workflow->PrivateModuleIndices().empty()) continue;
    Bitset64 visible = RandomVisible(*g.workflow, &rng, 0.5);
    WorkflowWorlds full = EnumerateDeep(*g.workflow, visible, {});
    for (int64_t gamma : {int64_t{1}, int64_t{2}, int64_t{3}, int64_t{4}}) {
      bool full_private = true;
      for (bool v : PrivateVerdicts(*g.workflow, full, gamma)) {
        full_private = full_private && v;
      }
      WorkflowEnumerationOptions opts;
      opts.gamma = gamma;
      opts.collect_distinct_relations = false;
      WorkflowWorlds early =
          EnumerateWorkflowWorlds(*g.workflow, visible, {}, opts);
      EXPECT_EQ(full_private, early.early_stopped)
          << "seed " << seed << " gamma " << gamma;
      EXPECT_EQ(PrivateVerdicts(*g.workflow, full, gamma),
                PrivateVerdicts(*g.workflow, early, gamma))
          << "seed " << seed << " gamma " << gamma;
      EXPECT_LE(early.num_function_choices, full.num_function_choices);
    }
    ++checked;
  }
  EXPECT_GE(checked, 10);
}

TEST(WorkflowWorldsEquivalenceTest, MinOutSizesMatchOutSetMaps) {
  // Batch ground truth reads per-module minimum OUT sizes straight off the
  // walk's seen marks (WalkWorkflowWorlds) instead of materialized OUT
  // sets. On the random corpora above, free and with a fixed module, at 1
  // and 4 threads and Γ from 0 to 4, they must equal MinOutSize over the
  // maps EnumerateWorkflowWorlds builds whenever the walk did not stop
  // early.
  int compared = 0;
  for (bool with_fixed : {false, true}) {
    for (uint64_t seed = 0; seed < 40; ++seed) {
      Rng rng(with_fixed ? (100 + seed) * 131 + 7 : (1 + seed) * 77 + 3);
      GeneratedWorkflow g = MakeRandomWorkflow(
          SmallOptions(with_fixed || seed % 2 == 0 ? 3 : 2), &rng);
      std::vector<int> fixed;
      if (with_fixed) {
        fixed.push_back(static_cast<int>(rng.NextBelow(
            static_cast<uint64_t>(g.workflow->num_modules()))));
        g.workflow->mutable_module(fixed[0])->set_public(true);
      }
      const Bitset64 visible = RandomVisible(*g.workflow, &rng, 0.5);
      auto tables = BuildWorkflowTables(*g.workflow);
      for (int64_t gamma = 0; gamma <= 4; ++gamma) {
        for (int threads : {1, 4}) {
          WorkflowEnumerationOptions opts;
          opts.gamma = gamma;
          opts.num_threads = threads;
          opts.min_parallel_candidates = 0;
          opts.collect_distinct_relations = false;
          const WorkflowWorlds maps =
              EnumerateWorkflowWorlds(*tables, visible, fixed, opts);
          std::vector<int64_t> min_out;
          const WorkflowWorlds walk =
              WalkWorkflowWorlds(*tables, visible, fixed, opts, &min_out);
          const std::string where = "seed " + std::to_string(seed) +
                                    " gamma " + std::to_string(gamma) +
                                    " threads " + std::to_string(threads);
          ASSERT_TRUE(maps.status.ok()) << where;
          ASSERT_TRUE(walk.status.ok()) << where;
          EXPECT_TRUE(walk.out_sets.empty()) << where;
          ASSERT_EQ(min_out.size(), maps.out_sets.size()) << where;
          EXPECT_EQ(walk.early_stopped, maps.early_stopped) << where;
          if (maps.early_stopped) continue;
          EXPECT_EQ(walk.num_function_choices, maps.num_function_choices)
              << where;
          for (size_t i = 0; i < min_out.size(); ++i) {
            EXPECT_EQ(min_out[i], maps.MinOutSize(static_cast<int>(i)))
                << where << " module " << i;
          }
          ++compared;
        }
      }
    }
  }
  EXPECT_GE(compared, 400);
}

TEST(WorkflowWorldsEquivalenceTest, ProbeThatGivesUpLeavesNoTrace) {
  // Under Γ the walk first runs a Γ-directed probe. When the probe ends
  // without the short-circuit firing, the complete walk starts over, and a
  // run that does not stop early must then equal the Γ = 0 full run in
  // every field: nothing the probe counted may leak into the result. Two
  // output bits per module give feasible lists up to 4 wide, so the probe
  // runs at every Γ here.
  RandomWorkflowOptions options = SmallOptions(2);
  options.max_outputs = 2;
  int not_stopped = 0;
  for (uint64_t seed = 700; seed < 740; ++seed) {
    Rng rng(seed * 53 + 9);
    options.num_modules = seed % 2 == 0 ? 2 : 3;
    GeneratedWorkflow g = MakeRandomWorkflow(options, &rng);
    Bitset64 visible = RandomVisible(*g.workflow, &rng, 0.5);
    auto tables = BuildWorkflowTables(*g.workflow);
    WorkflowEnumerationOptions full_opts;
    full_opts.max_candidates = int64_t{1} << 33;
    full_opts.min_parallel_candidates = 0;
    const WorkflowWorlds full =
        EnumerateWorkflowWorlds(*tables, visible, {}, full_opts);
    ASSERT_TRUE(full.status.ok()) << "seed " << seed;
    for (int64_t gamma = 1; gamma <= 4; ++gamma) {
      for (int threads : {1, 4}) {
        WorkflowEnumerationOptions opts = full_opts;
        opts.gamma = gamma;
        opts.num_threads = threads;
        const WorkflowWorlds r =
            EnumerateWorkflowWorlds(*tables, visible, {}, opts);
        if (r.early_stopped) continue;
        ++not_stopped;
        EXPECT_EQ(r.num_function_choices, full.num_function_choices)
            << "seed " << seed << " gamma " << gamma << " threads " << threads;
        EXPECT_EQ(r.num_distinct_relations, full.num_distinct_relations)
            << "seed " << seed << " gamma " << gamma << " threads " << threads;
        EXPECT_EQ(r.out_sets, full.out_sets)
            << "seed " << seed << " gamma " << gamma << " threads " << threads;
        EXPECT_EQ(r.pruned_candidates, full.pruned_candidates)
            << "seed " << seed << " gamma " << gamma << " threads " << threads;
        EXPECT_EQ(r.status.code(), full.status.code())
            << "seed " << seed << " gamma " << gamma << " threads " << threads;
      }
    }
  }
  EXPECT_GE(not_stopped, 20);
}

TEST(WorkflowWorldsEquivalenceTest, ProbeCutsFig1AllHiddenWalk) {
  // fig1 with a3..a7 hidden at Γ = 2: a plain depth-first walk exhausts
  // the subtree under the first branch code and stops only after 131,104
  // function choices. The Γ-directed probe varies the shallowest slot
  // still short of Γ after each leaf and stops far sooner. It is one
  // walker at any thread count, so its count does not depend on threads.
  Fig1Workflow fig1 = MakeFig1Workflow();
  Bitset64 hidden(fig1.catalog->size());
  for (int a : {fig1.a3, fig1.a4, fig1.a5, fig1.a6, fig1.a7}) hidden.Set(a);
  auto tables = BuildWorkflowTables(*fig1.workflow);
  WorkflowEnumerationOptions opts;
  opts.gamma = 2;
  opts.collect_distinct_relations = false;
  opts.num_threads = 1;
  const WorkflowWorlds one =
      EnumerateWorkflowWorlds(*tables, hidden.Complement(), {}, opts);
  ASSERT_TRUE(one.status.ok());
  EXPECT_TRUE(one.early_stopped);
  EXPECT_GT(one.num_function_choices, 0);
  EXPECT_LT(one.num_function_choices, 131104);
  opts.num_threads = 4;
  opts.min_parallel_candidates = 0;
  const WorkflowWorlds four =
      EnumerateWorkflowWorlds(*tables, hidden.Complement(), {}, opts);
  EXPECT_TRUE(four.early_stopped);
  EXPECT_EQ(four.num_function_choices, one.num_function_choices);
}

TEST(WorkflowWorldsEquivalenceTest, AllModulesFixedSingleWorld) {
  Prop2Chain chain = MakeProp2Chain(1);
  Bitset64 visible = Bitset64::Of(3, {0, 2});
  WorkflowWorlds naive =
      EnumerateWorkflowWorldsNaive(*chain.workflow, visible, {0, 1});
  WorkflowWorlds fast =
      EnumerateWorkflowWorlds(*chain.workflow, visible, {0, 1});
  ExpectIdentical(naive, fast, 0);
  EXPECT_EQ(fast.num_function_choices, 1);
  EXPECT_EQ(fast.num_distinct_relations, 1);
}

}  // namespace
}  // namespace provview
