// Experiment E1 — possible-worlds semantics (Figure 2, Definitions 1/2,
// Example 2/3) and Proposition 2's doubly-exponential world-count gap.
//
// Reproduces:
//   (a) the worked numbers of the running example: 64 worlds for m1 under
//       V = {a1,a3,a5}, |OUT| = 4 for every input, Γ = 3 when only inputs
//       are hidden;
//   (b) Proposition 2: on the identity→negation chain of one-one modules,
//       |Worlds(R1,V)| = Γ^(2^k) while |Worlds(R,V)| = (Γ!)^(2^k / Γ) —
//       the ratio grows doubly exponentially in k — yet per-input OUT
//       sets (the actual privacy guarantee) are identical.
//   (c) the pruned/interned engine vs. the naive |Range|^N
//       odometer: identical worlds and OUT sets, >= 5x faster on the
//       largest configurations (the point of the optimized hot path).
//   (g) batch ground truth per audit target at 1 thread and at hardware
//       threads, and the one walk that dominates it (fig1, a3..a7 hidden),
//       then the fixed cost of one walk (fig1, nothing hidden) and of its
//       feasible-set fixpoint — report-only, no gate key;
//   (h) the fixpoint and the walk on a 2^17-execution log — report-only,
//       checked against the known count of consistent worlds.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <iostream>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/combinatorics.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "common/task_graph.h"
#include "generators/families.h"
#include "module/module_library.h"
#include "privacy/feasible_sets.h"
#include "privacy/possible_worlds.h"
#include "privacy/safe_subset_search.h"
#include "privacy/standalone_privacy.h"
#include "privacy/workflow_privacy.h"
#include "workflow/fig1_workflow.h"
#include "workflow/workflow.h"

using namespace provview;

namespace {

void RunningExampleTable() {
  PrintBanner("E1a: Figure-1 module m1 — views, worlds and OUT sets");
  Fig1Workflow fig = MakeFig1Workflow();
  const Module& m1 = fig.workflow->module(fig.m1_index);
  Relation rel = m1.FullRelation();

  struct Case {
    const char* label;
    std::vector<int> visible;
    const char* paper;
  };
  std::vector<Case> cases = {
      {"V={a1,a3,a5} (Ex. 2/3)", {fig.a1, fig.a3, fig.a5}, "Gamma=4, 64 worlds"},
      {"V={a1,a2,a3} (Ex. 3)", {fig.a1, fig.a2, fig.a3}, "Gamma=4"},
      {"V={a3,a4,a5} (Ex. 3)", {fig.a3, fig.a4, fig.a5}, "Gamma=3"},
      {"V=all", {0, 1, 2, 3, 4}, "Gamma=1"},
      {"V=empty", {}, "Gamma=8"},
  };
  TablePrinter t({"view", "Gamma (Alg 2)", "worlds", "min|OUT| (brute)",
                  "paper"});
  for (const Case& c : cases) {
    Bitset64 v = Bitset64::Of(7, c.visible);
    StandaloneWorlds worlds =
        EnumerateStandaloneWorlds(rel, m1.inputs(), m1.outputs(), v);
    t.NewRow()
        .AddCell(c.label)
        .AddCell(MaxStandaloneGamma(rel, m1.inputs(), m1.outputs(), v))
        .AddCell(worlds.num_worlds)
        .AddCell(worlds.MinOutSize())
        .AddCell(c.paper);
  }
  t.Print();
}

void Prop2Table() {
  PrintBanner(
      "E1b: Proposition 2 — world counts on the one-one chain (Gamma=2)");
  TablePrinter t({"k", "standalone worlds", "closed form G^(2^k)",
                  "workflow worlds", "closed form (G!)^(2^k/G)",
                  "ratio", "min|OUT| standalone", "min|OUT| workflow"});
  const int64_t gamma = 2;
  for (int k = 1; k <= 2; ++k) {
    Prop2Chain chain = MakeProp2Chain(k);
    const Module& m1 = chain.workflow->module(0);
    // Hide log2(gamma) = 1 intermediate attribute (an output of m1).
    Bitset64 hidden(3 * k);
    hidden.Set(k);  // first middle attribute
    Bitset64 visible = hidden.Complement();
    StandaloneWorlds s = EnumerateStandaloneWorlds(
        m1.FullRelation(), m1.inputs(), m1.outputs(), visible);
    WorkflowWorlds w = EnumerateWorkflowWorlds(*chain.workflow, visible, {});
    int64_t sa_closed = SaturatingPow(gamma, 1 << k);
    int64_t wf_closed = SaturatingPow(2 /* = Gamma! */, (1 << k) / 2);
    t.NewRow()
        .AddCell(k)
        .AddCell(s.num_worlds)
        .AddCell(sa_closed)
        .AddCell(w.num_distinct_relations)
        .AddCell(wf_closed)
        .AddCell(static_cast<double>(s.num_worlds) /
                     static_cast<double>(w.num_distinct_relations),
                 1)
        .AddCell(s.MinOutSize())
        .AddCell(w.MinOutSize(0));
  }
  // Beyond enumeration reach, the closed forms show the doubly-exponential
  // growth the proposition proves.
  for (int k = 3; k <= 5; ++k) {
    int64_t sa_closed = SaturatingPow(gamma, 1 << k);
    int64_t wf_closed = SaturatingPow(2, (1 << k) / 2);
    t.NewRow()
        .AddCell(std::to_string(k) + "*")
        .AddCell("-")
        .AddCell(sa_closed)
        .AddCell("-")
        .AddCell(wf_closed)
        .AddCell(static_cast<double>(sa_closed) /
                     static_cast<double>(wf_closed),
                 1)
        .AddCell("2")
        .AddCell("2");
  }
  t.Print();
  std::cout << "  (* closed form only; rows verified by enumeration for "
               "k <= 2. Privacy — min|OUT| — is identical in both world "
               "families, as Lemma 1 proves.)\n";
}

// --- E1c: naive odometer vs. pruned/interned engine. ---

struct SpeedupCase {
  const char* label;
  int ki, ko;
  std::vector<int> out_doms;  // domain size per output
  uint64_t seed;
};

// Wall time of `fn` (min of `reps` runs), in milliseconds.
template <typename Fn>
double TimeMs(int reps, const Fn& fn) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    fn();
    best = std::min(best, sw.ElapsedMillis());
  }
  return best;
}

// Timer for the close A/B races (E1f seq vs sharded). On a single-core host
// both variants run the same single-threaded code, so any wall-clock
// difference is preemption by neighboring processes — the process-CPU clock
// is the honest measure of the work. Multi-core hosts keep wall time: there
// the race measures parallel overlap, which CPU time would hide.
double RaceClockMs() {
  if (std::thread::hardware_concurrency() > 1) {
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return ts.tv_sec * 1e3 + ts.tv_nsec / 1e6;
  }
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return ts.tv_sec * 1e3 + ts.tv_nsec / 1e6;
}

template <typename Fn>
double RaceTimeMs(const Fn& fn) {
  const double t0 = RaceClockMs();
  fn();
  return RaceClockMs() - t0;
}

void SpeedupTable() {
  PrintBanner("E1c: pruned+interned engine vs naive |Range|^N odometer");
  // Random modules; one input and one output hidden (the interesting regime:
  // partial visibility). The last rows are the largest configurations the
  // naive engine can still walk in reasonable time.
  std::vector<SpeedupCase> cases = {
      {"ki=3 ko=2 bool", 3, 2, {2, 2}, 42},
      {"ki=4 ko=1 bool", 4, 1, {2}, 7},
      {"ki=3 ko=2 dom(3,2)", 3, 2, {3, 2}, 13},
      {"ki=3 ko=2 dom(3,3)", 3, 2, {3, 3}, 99},
  };
  TablePrinter t({"config", "naive cand", "pruned cand", "worlds",
                  "naive ms", "opt ms", "speedup"});
  double min_speedup = 1e100;
  for (const SpeedupCase& c : cases) {
    auto catalog = std::make_shared<AttributeCatalog>();
    std::vector<AttrId> in, out;
    for (int i = 0; i < c.ki; ++i) {
      in.push_back(catalog->Add("i" + std::to_string(i)));
    }
    for (int o = 0; o < c.ko; ++o) {
      out.push_back(catalog->Add("o" + std::to_string(o),
                                 c.out_doms[static_cast<size_t>(o)]));
    }
    Rng rng(c.seed);
    ModulePtr m = MakeRandomFunction("m", catalog, in, out, &rng);
    Relation rel = m->FullRelation();
    Bitset64 visible = Bitset64::All(catalog->size());
    visible.Reset(in[0]);   // hide one input
    visible.Reset(out[0]);  // and one output

    const int64_t naive_budget = int64_t{1} << 32;
    StandaloneWorlds naive, fast;
    // One rep is plenty once the naive walk takes seconds.
    const int naive_reps = SaturatingPow(m->RangeSize(), 1 << c.ki) > 2000000
                               ? 1
                               : 3;
    double naive_ms = TimeMs(naive_reps, [&] {
      naive = EnumerateStandaloneWorldsNaive(rel, m->inputs(), m->outputs(),
                                             visible, naive_budget);
    });
    EnumerationOptions opts;
    opts.max_candidates = naive_budget;
    double opt_ms = TimeMs(3, [&] {
      fast = EnumerateStandaloneWorlds(rel, m->inputs(), m->outputs(),
                                       visible, opts);
    });
    PV_CHECK_MSG(naive.num_worlds == fast.num_worlds &&
                     naive.out_sets == fast.out_sets,
                 "optimized engine diverged from naive on " << c.label);
    double speedup = naive_ms / std::max(opt_ms, 1e-6);
    min_speedup = std::min(min_speedup, speedup);
    t.NewRow()
        .AddCell(c.label)
        .AddCell(fast.naive_candidates)
        .AddCell(fast.pruned_candidates)
        .AddCell(fast.num_worlds)
        .AddCell(naive_ms, 2)
        .AddCell(opt_ms, 2)
        .AddCell(speedup, 1);
  }
  t.Print();
  std::cout << "  min speedup " << min_speedup
            << "x (acceptance target: >= 5x on the largest configs; "
               "worlds and OUT sets verified identical per row)\n";
}

// --- E1d: naive joint odometer vs. pruned workflow engine. ---

struct WorkflowCase {
  std::string label;
  const Workflow* workflow = nullptr;
  Bitset64 visible;
  std::vector<int> fixed_modules;
};

void WorkflowSpeedupTable() {
  PrintBanner(
      "E1d: pruned workflow engine vs naive joint odometer "
      "(E-family instances)");
  Rng rng(2024);
  // The E-family workloads: Proposition 2's identity→negation chain and
  // both Example-7 public-module chains, at the largest size (k = 2, joint
  // space 4^4 x 4^4 = 65536) the naive reference can still walk.
  Prop2Chain prop2 = MakeProp2Chain(2);
  Bitset64 prop2_visible = Bitset64::Of(6, {2}).Complement();  // hide y0

  Example7Chain e7_in = MakeExample7Chain(2, &rng);
  Bitset64 e7_in_visible(e7_in.catalog->size());
  {
    Bitset64 hidden(e7_in.catalog->size());
    for (AttrId id : e7_in.workflow->module(e7_in.bijection_index).inputs()) {
      hidden.Set(id);
    }
    e7_in_visible = hidden.Complement();
  }

  Example7OutputChain e7_out = MakeExample7OutputChain(2, &rng);
  Bitset64 e7_out_visible(e7_out.catalog->size());
  {
    Bitset64 hidden(e7_out.catalog->size());
    for (AttrId id :
         e7_out.workflow->module(e7_out.bijection_index).outputs()) {
      hidden.Set(id);
    }
    e7_out_visible = hidden.Complement();
  }

  std::vector<WorkflowCase> cases;
  cases.push_back({"Prop2 chain k=2, hide y0", prop2.workflow.get(),
                   prop2_visible, {}});
  cases.push_back({"Ex7 const->bij k=2, hide mid, free", e7_in.workflow.get(),
                   e7_in_visible, {}});
  cases.push_back({"Ex7 bij->inv k=2, hide mid, free", e7_out.workflow.get(),
                   e7_out_visible, {}});

  TablePrinter t({"config", "naive cand", "pruned cand", "fn choices",
                  "naive ms", "opt ms", "speedup"});
  double min_speedup = 1e100;
  for (const WorkflowCase& c : cases) {
    const int64_t budget = int64_t{1} << 32;
    WorkflowWorlds naive, fast;
    double naive_ms = TimeMs(1, [&] {
      naive = EnumerateWorkflowWorldsNaive(*c.workflow, c.visible,
                                           c.fixed_modules, budget);
    });
    std::shared_ptr<const WorkflowTables> tables =
        BuildWorkflowTables(*c.workflow);
    WorkflowEnumerationOptions opts;
    opts.max_candidates = budget;
    double opt_ms = TimeMs(3, [&] {
      fast = EnumerateWorkflowWorlds(*tables, c.visible, c.fixed_modules,
                                     opts);
    });
    PV_CHECK_MSG(naive.num_function_choices == fast.num_function_choices &&
                     naive.num_distinct_relations ==
                         fast.num_distinct_relations &&
                     naive.out_sets == fast.out_sets,
                 "workflow engine diverged from naive on " << c.label);
    double speedup = naive_ms / std::max(opt_ms, 1e-6);
    min_speedup = std::min(min_speedup, speedup);
    t.NewRow()
        .AddCell(c.label)
        .AddCell(fast.naive_candidates)
        .AddCell(fast.pruned_candidates)
        .AddCell(fast.num_function_choices)
        .AddCell(naive_ms, 2)
        .AddCell(opt_ms, 2)
        .AddCell(speedup, 1);
  }
  t.Print();
  std::cout << "  workflow min speedup " << min_speedup
            << "x (acceptance target: >= 20x on the E-family instances; "
               "function choices, distinct relations and OUT sets verified "
               "identical per row)\n";
}

// --- E1e: streaming certification past the 2^22 materialization wall. ---

// PODS_BENCH_SHORT=1 shrinks the streamed spaces (CI smoke); the full run
// uses >2^22-row instances the eager path refuses outright.
bool ShortMode() { return std::getenv("PODS_BENCH_SHORT") != nullptr; }

// --- E1f: sharded subset-lattice search. ---

void ShardedSubsetSearchTable() {
  PrintBanner("E1f: sharded subset-lattice search scaling");
  // k = 24 attributes (12 in / 12 out, 4096-row domain) in the full run —
  // past the old k <= 20 wall; short mode stays at k = 20 for CI smoke.
  const int half = ShortMode() ? 10 : 12;
  auto catalog = std::make_shared<AttributeCatalog>();
  std::vector<AttrId> in, out;
  for (int i = 0; i < half; ++i) {
    in.push_back(catalog->Add("i" + std::to_string(i)));
  }
  for (int o = 0; o < half; ++o) {
    out.push_back(catalog->Add("o" + std::to_string(o)));
  }
  Rng rng(3);
  ModulePtr m = MakeRandomFunction("wide", catalog, in, out, &rng);
  const int64_t gamma = 4;

  SafeSearchStats seq_stats, sharded_stats;
  SubsetSearchOptions seq, sharded;
  seq.num_threads = 1;
  sharded.num_threads = 0;  // auto: use whatever cores the host has
  std::vector<Bitset64> a, b;
  // Interleaved min-of-N: alternating the two variants and keeping each
  // one's best round factors out drift (thermal, page cache, neighbors), so
  // on a single-core host — where both runs are the same sequential walk —
  // the ratio lands at ~1.0 instead of reporting scheduling noise.
  const int rounds = ShortMode() ? 1 : 3;
  {
    // Untimed warmup: first-touch costs (relation materialization, page
    // cache, allocator arenas) must not be billed to the first variant.
    SafeSearchStats s;
    a = MinimalSafeHiddenSets(*m, gamma, &s, seq);
  }
  double seq_ms = std::numeric_limits<double>::infinity();
  double sharded_ms = std::numeric_limits<double>::infinity();
  for (int round = 0; round < rounds; ++round) {
    seq_ms = std::min(seq_ms, RaceTimeMs([&] {
                        SafeSearchStats s;
                        a = MinimalSafeHiddenSets(*m, gamma, &s, seq);
                        seq_stats = s;
                      }));
    sharded_ms = std::min(sharded_ms, RaceTimeMs([&] {
                            SafeSearchStats s;
                            b = MinimalSafeHiddenSets(*m, gamma, &s,
                                                      sharded);
                            sharded_stats = s;
                          }));
  }
  PV_CHECK_MSG(a == b, "sharded subset search diverged from sequential");
  PV_CHECK_MSG(seq_stats.subsets_examined == sharded_stats.subsets_examined,
               "sharded search examined a different lattice");
  const double speedup = seq_ms / std::max(sharded_ms, 1e-6);
  std::cout << "  k=" << 2 * half << " gamma=" << gamma << ": "
            << seq_stats.subsets_examined << " subsets examined, "
            << a.size() << " minimal safe sets, "
            << seq_stats.checker_calls << " checker calls (seq)\n";
  // Two-decimal speedup: min-of-N interleaved timing converges the two
  // variants to the same floor on single-core hosts, and sub-percent timer
  // jitter must not read as a regression.
  char line[160];
  std::snprintf(line, sizeof(line),
                "E1f sharded subset search: k=%d minimal_sets=%zu "
                "seq_ms=%.1f sharded_ms=%.1f sharded_speedup=%.2f\n",
                2 * half, a.size(), seq_ms, sharded_ms, speedup);
  std::cout << line;
}

// --- E1g: batch ground truth on the batch's own executor. ---

struct AuditTarget {
  std::string name;
  CatalogPtr catalog;
  WorkflowPtr workflow;
  std::vector<Bitset64> masks;
};

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

// Per-target ground-truth batch time at 1 thread vs hardware threads (the
// worlds-audit shape: every tractable mask of fig1 / prop2-chain /
// example7-chain at Γ = 2, the chains built as podsd registers them) and
// the walks the batch ran (the rest are inferred by monotonicity), then
// the fig1 all-hidden walk — the largest walk of the batch. Report-only:
// check_regression.py reads no key from this row, but the walk must repeat
// its early-stopped counts run after run.
void BatchGroundTruthTable() {
  PrintBanner("E1g: batch ground truth, 1 thread vs hardware threads");
  constexpr int64_t kAuditGamma = 2;
  std::vector<AuditTarget> targets;
  {
    Fig1Workflow fig = MakeFig1Workflow();
    AuditTarget t{"fig1", fig.catalog, std::move(fig.workflow), {}};
    t.masks = SubsetMasks(t.catalog->size(),
                          {fig.a3, fig.a4, fig.a5, fig.a6, fig.a7});
    targets.push_back(std::move(t));
  }
  {
    Prop2Chain chain = MakeProp2Chain(/*k=*/2);
    targets.push_back({"prop2-chain", chain.catalog, std::move(chain.workflow),
                       {}});
  }
  {
    Rng rng(0x706f6475u);  // the seed podsd's built-in registry uses
    Example7Chain chain = MakeExample7Chain(/*k=*/2, &rng);
    targets.push_back({"example7-chain", chain.catalog,
                       std::move(chain.workflow), {}});
  }
  for (size_t i = 1; i < targets.size(); ++i) {
    std::vector<int> all(static_cast<size_t>(targets[i].catalog->size()));
    std::iota(all.begin(), all.end(), 0);
    targets[i].masks = SubsetMasks(targets[i].catalog->size(), all);
  }

  const int hw = DefaultThreads();
  const int reps = ShortMode() ? 3 : 40;
  // The hardware-threads side runs on one caller-owned executor, as podsd
  // and perfbench do, so no batch pays for starting its own workers.
  std::unique_ptr<TaskGraphExecutor> executor =
      hw > 1 ? std::make_unique<TaskGraphExecutor>(hw - 1) : nullptr;
  TablePrinter t({"target", "masks", "walks", "gt private", "1-thread ms",
                  std::to_string(hw) + "-thread ms"});
  for (const AuditTarget& target : targets) {
    std::vector<WorkflowCertificationRequest> requests;
    for (const Bitset64& m : target.masks) {
      requests.push_back({m, kAuditGamma});
    }
    // Median of `reps` interleaved batches per thread count.
    std::vector<double> ms[2];
    std::vector<WorkflowBatchEntry> entries[2];
    int64_t walks[2] = {0, 0};
    for (int rep = 0; rep < reps; ++rep) {
      for (int side = 0; side < 2; ++side) {
        WorkflowBatchOptions opts;
        opts.with_ground_truth = true;
        opts.num_threads = side == 0 ? 1 : hw;
        opts.executor = side == 0 ? nullptr : executor.get();
        Stopwatch sw;
        WorkflowBatchResult r =
            CertifyWorkflowBatch(*target.workflow, requests, opts);
        ms[side].push_back(sw.ElapsedMillis());
        PV_CHECK_MSG(r.status.ok(), r.status.message());
        entries[side] = std::move(r.entries);
        walks[side] = r.ground_truth_walks;
      }
    }
    PV_CHECK_MSG(walks[0] == walks[1],
                 "walk count diverged across thread counts on " << target.name);
    int64_t gt_private = 0;
    for (size_t r = 0; r < requests.size(); ++r) {
      PV_CHECK_MSG(entries[0][r].ground_truth_private ==
                           entries[1][r].ground_truth_private &&
                       entries[0][r].certificate.module_gammas ==
                           entries[1][r].certificate.module_gammas,
                   "batch diverged across thread counts on " << target.name);
      gt_private += entries[0][r].ground_truth_private ? 1 : 0;
    }
    for (std::vector<double>& v : ms) std::sort(v.begin(), v.end());
    t.NewRow()
        .AddCell(target.name)
        .AddCell(static_cast<int64_t>(requests.size()))
        .AddCell(walks[0])
        .AddCell(gt_private)
        .AddCell(ms[0][ms[0].size() / 2], 3)
        .AddCell(ms[1][ms[1].size() / 2], 3);
  }
  t.Print();

  // The largest walk: fig1 with a3..a7 hidden. A plain depth-first walk
  // exhausts the subtree under the first branch code (131,104 function
  // choices) before it meets a second one; the Γ-directed probe varies the
  // shallowest slot still short of Γ after each leaf. A walk is one walker,
  // so even its early-stopped count repeats exactly.
  const AuditTarget& fig1 = targets[0];
  const Bitset64 visible = fig1.masks.back().Complement();
  std::shared_ptr<const WorkflowTables> tables =
      BuildWorkflowTables(*fig1.workflow);
  WorkflowEnumerationOptions opts;
  opts.gamma = kAuditGamma;
  opts.collect_distinct_relations = false;
  WorkflowWorlds worlds;
  const double walk_ms = TimeMs(reps, [&] {
    worlds = EnumerateWorkflowWorlds(*tables, visible, {}, opts);
  });
  PV_CHECK_MSG(worlds.status.ok(), worlds.status.message());
  for (int run = 0; run < 3; ++run) {
    const WorkflowWorlds again =
        EnumerateWorkflowWorlds(*tables, visible, {}, opts);
    PV_CHECK_MSG(again.num_function_choices == worlds.num_function_choices &&
                     again.early_stopped == worlds.early_stopped,
                 "fig1 all-hidden walk did not repeat: "
                     << again.num_function_choices << " function choices vs "
                     << worlds.num_function_choices);
  }
  TablePrinter w({"fn choices", "early stop", "walk ms"});
  w.NewRow()
      .AddCell(worlds.num_function_choices)
      .AddCell(worlds.early_stopped ? "yes" : "no")
      .AddCell(walk_ms, 3);
  w.Print();
  std::cout << "  fig1 walk with a3..a7 hidden at Gamma=" << kAuditGamma
            << "; batch ms are medians of " << reps
            << " interleaved runs, walk ms the best of " << reps << "\n";
}

// The fixed cost of one ground-truth walk: fig1 with nothing hidden, where
// the fixpoint forces every module and the pruned space is 1, so the walk
// is all setup. Median µs at 1 thread of the walk as batch ground truth
// runs it (WalkWorkflowWorlds), of the same walk with its OUT-set maps
// (EnumerateWorkflowWorlds), and of AnalyzeFeasibleSets alone on the same
// mask. The batch's verdict on that mask must not change at hardware
// threads. Report-only.
void WalkFixedCostTable() {
  PrintBanner(
      "E1g: fixed cost of one ground-truth walk (fig1, nothing hidden)");
  constexpr int64_t kAuditGamma = 2;
  const Fig1Workflow fig1 = MakeFig1Workflow();
  const std::shared_ptr<const WorkflowTables> tables =
      BuildWorkflowTables(*fig1.workflow);
  const Bitset64 visible = Bitset64::All(fig1.catalog->size());
  const int reps = ShortMode() ? 1000 : 4000;
  WorkflowEnumerationOptions opts;
  opts.gamma = kAuditGamma;
  opts.collect_distinct_relations = false;
  // The batch's verdict: the short-circuit fired, or every private module's
  // smallest OUT set reaches Γ.
  auto is_private = [&](const WorkflowWorlds& worlds,
                        const std::vector<int64_t>& min_out) {
    PV_CHECK_MSG(worlds.status.ok(), worlds.status.message());
    bool verdict = true;
    for (int i : fig1.workflow->PrivateModuleIndices()) {
      verdict = verdict && min_out[static_cast<size_t>(i)] >= kAuditGamma;
    }
    return worlds.early_stopped || verdict;
  };
  std::vector<double> fixpoint_us, walk_us, maps_us;
  WorkflowWorlds walk;
  std::vector<int64_t> min_out;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch fixpoint_sw;
    const FeasibleSetAnalysis analysis =
        AnalyzeFeasibleSets(*tables, visible, {});
    fixpoint_us.push_back(fixpoint_sw.ElapsedMillis() * 1e3);
    Stopwatch walk_sw;
    walk = WalkWorkflowWorlds(*tables, visible, {}, opts, &min_out);
    walk_us.push_back(walk_sw.ElapsedMillis() * 1e3);
    Stopwatch maps_sw;
    const WorkflowWorlds maps =
        EnumerateWorkflowWorlds(*tables, visible, {}, opts);
    maps_us.push_back(maps_sw.ElapsedMillis() * 1e3);
  }
  PV_CHECK_MSG(walk.pruned_candidates == 1,
               "fig1 with nothing hidden should prune to one candidate, got "
                   << walk.pruned_candidates);
  for (int threads : {1, DefaultThreads()}) {
    WorkflowBatchOptions batch_opts;
    batch_opts.num_threads = threads;
    batch_opts.with_ground_truth = true;
    const WorkflowBatchResult batch = CertifyWorkflowBatch(
        *fig1.workflow, {{Bitset64(fig1.catalog->size()), kAuditGamma}},
        batch_opts);
    PV_CHECK_MSG(batch.status.ok(), batch.status.message());
    PV_CHECK_MSG(batch.entries[0].ground_truth_private ==
                     is_private(walk, min_out),
                 "fig1 batch verdict diverged at " << threads << " threads");
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  TablePrinter t({"fixpoint us", "walk us", "walk + OUT maps us",
                  "pruned space", "private"});
  t.NewRow()
      .AddCell(median(fixpoint_us), 2)
      .AddCell(median(walk_us), 2)
      .AddCell(median(maps_us), 2)
      .AddCell(walk.pruned_candidates)
      .AddCell(is_private(walk, min_out) ? "yes" : "no");
  t.Print();
  char line[160];
  std::snprintf(line, sizeof(line),
                "E1g walk fixed cost: fixpoint_us=%.2f walk_us=%.2f "
                "maps_walk_us=%.2f (medians of %d, 1 thread)\n",
                median(fixpoint_us), median(walk_us), median(maps_us), reps);
  std::cout << line;
}

// The fixpoint on a deep log: 2^17 executions (17 boolean initial inputs)
// and one free module negating x0, with x1..x16 feeding a fixed public
// parity and y hidden. Every execution reaches one of the free module's two
// slots, so the determined-slot test scans the whole log; all four
// functions of the free module stay consistent. Best of the runs, 1
// thread. Report-only.
void DeepLogFixpointTable() {
  PrintBanner("E1h: feasible-set fixpoint and walk on a 2^17-execution log");
  auto catalog = std::make_shared<AttributeCatalog>();
  std::vector<AttrId> x;
  for (int i = 0; i < 17; ++i) {
    x.push_back(catalog->Add("x" + std::to_string(i)));
  }
  const AttrId y = catalog->Add("y");
  const AttrId z = catalog->Add("z");
  Workflow wf(catalog);
  wf.AddModule(MakeNegation("free", catalog, {x[0]}, {y}));
  ModulePtr parity = MakeParity(
      "parity", catalog, std::vector<AttrId>(x.begin() + 1, x.end()), z);
  parity->set_public(true);
  wf.AddModule(std::move(parity));
  PV_CHECK(wf.Validate().ok());
  const std::shared_ptr<const WorkflowTables> tables = BuildWorkflowTables(wf);
  PV_CHECK_MSG(tables->status.ok(), tables->status.message());
  Bitset64 hidden(catalog->size());
  hidden.Set(y);
  const Bitset64 visible = hidden.Complement();
  const std::vector<int> fixed = {1};
  const int reps = ShortMode() ? 1 : 3;
  const double fixpoint_ms =
      TimeMs(reps, [&] { (void)AnalyzeFeasibleSets(*tables, visible, fixed); });
  WorkflowEnumerationOptions opts;
  opts.collect_distinct_relations = false;
  WorkflowWorlds worlds;
  const double walk_ms = TimeMs(reps, [&] {
    worlds = EnumerateWorkflowWorlds(*tables, visible, fixed, opts);
  });
  PV_CHECK_MSG(worlds.status.ok(), worlds.status.message());
  PV_CHECK_MSG(worlds.num_function_choices == 4,
               "deep-log walk found " << worlds.num_function_choices
                                      << " consistent functions, expected 4");
  TablePrinter t({"executions", "fn choices", "fixpoint ms", "walk ms"});
  t.NewRow()
      .AddCell(tables->num_execs)
      .AddCell(worlds.num_function_choices)
      .AddCell(fixpoint_ms, 1)
      .AddCell(walk_ms, 1);
  t.Print();
  std::cout << "E1h deep log: executions=" << tables->num_execs
            << " fixpoint_ms=" << fixpoint_ms << " walk_ms=" << walk_ms
            << " (best of " << reps << ", 1 thread)\n";
}

void StreamingStandaloneTable() {
  PrintBanner(
      "E1e: streaming certification past the 2^22 materialization wall");
  // A module with num_in boolean inputs: |Dom| = 2^num_in rows. In the full
  // run num_in = 23, one row past what FullRelation / the eager Algorithm-2
  // path will materialize (the 2^22 guard); the streaming supplier derives
  // rows from the function in blocks and certifies anyway.
  const int num_in = ShortMode() ? 19 : 23;
  auto catalog = std::make_shared<AttributeCatalog>();
  std::vector<AttrId> in, out;
  for (int i = 0; i < num_in; ++i) {
    in.push_back(catalog->Add("i" + std::to_string(i)));
  }
  out.push_back(catalog->Add("o0", 4));
  out.push_back(catalog->Add("o1"));
  auto m = std::make_unique<LambdaModule>(
      "wide", catalog, in, out, [num_in](const Tuple& x) {
        int32_t sum = 0, parity = 0;
        for (int i = 0; i < num_in; ++i) {
          sum += x[static_cast<size_t>(i)];
          if (i < num_in / 2) parity ^= x[static_cast<size_t>(i)];
        }
        return Tuple{sum & 3, parity};
      });
  // Hide the first half of the inputs and output o1: the adversary sees a
  // 2^(num_in - num_in/2) * 4 projection of a 2^num_in-row relation.
  Bitset64 visible = Bitset64::All(catalog->size());
  for (int i = 0; i < num_in / 2; ++i) visible.Reset(in[static_cast<size_t>(i)]);
  visible.Reset(out[1]);

  const int64_t dom = m->DomainSize();
  const bool past_wall = dom > Module::kDefaultMaterializeRows;
  // Force the streaming path in short mode (where the shrunken domain would
  // materialize); the full run exercises the default threshold for real.
  const int64_t threshold = past_wall ? Module::kDefaultMaterializeRows : 0;
  Stopwatch sw;
  const int64_t gamma = MaxStandaloneGamma(*m, visible, threshold);
  const double stream_ms = sw.ElapsedMillis();
  PV_CHECK_MSG(gamma >= 1, "streaming certification returned no privacy");
  std::cout << "  module domain " << dom << " rows ("
            << (past_wall ? "past" : "below") << " the 2^22 eager wall"
            << (past_wall ? ": FullRelation would refuse" : ", short mode")
            << ")\n"
            << "  streaming Algorithm 2: Gamma = " << gamma << " in "
            << stream_ms << " ms, memory bounded by the visible projection\n";
  std::cout << "E1e standalone: rows=" << dom << " gamma=" << gamma
            << " stream_ms=" << stream_ms << "\n";
}

}  // namespace

int main() {
  Stopwatch sw;
  RunningExampleTable();
  Prop2Table();
  SpeedupTable();
  WorkflowSpeedupTable();
  StreamingStandaloneTable();
  ShardedSubsetSearchTable();
  BatchGroundTruthTable();
  WalkFixedCostTable();
  DeepLogFixpointTable();
  std::cout << "\n[bench_possible_worlds done in " << sw.ElapsedSeconds()
            << "s]\n";
  return 0;
}
