// Experiment E2 — standalone Secure-View complexity (Section 3).
//
// Reproduces, as measured scaling laws, the paper's complexity landscape:
//   - Theorem 1: deciding safety requires reading Θ(N) rows — we count
//     data-supplier calls while materializing the relation;
//   - §3.2: the Algorithm-2 safety check runs in poly(N) after the
//     relation is read (our implementation: one pass + grouping);
//   - Theorem 3 / §3.2: minimum-cost search enumerates 2^k subsets — the
//     measured checker-call count grows exponentially in k (with the
//     Proposition-1 dominance pruning visible as a constant-factor saver).
//
// Implemented with google-benchmark (wall-clock) plus a closing table of
// search statistics.
#include <benchmark/benchmark.h>

#include <iostream>

#include "common/combinatorics.h"
#include "common/table_printer.h"
#include "module/module_library.h"
#include "module/table_module.h"
#include "privacy/lower_bounds.h"
#include "privacy/possible_worlds.h"
#include "privacy/safe_subset_search.h"
#include "privacy/standalone_privacy.h"

namespace provview {
namespace {

// A random module with ki boolean inputs and ko boolean outputs.
struct BenchModule {
  CatalogPtr catalog;
  ModulePtr module;
  Relation relation;
};

BenchModule MakeBenchModule(int ki, int ko, uint64_t seed) {
  BenchModule bm;
  bm.catalog = std::make_shared<AttributeCatalog>();
  std::vector<AttrId> in, out;
  for (int i = 0; i < ki; ++i) in.push_back(bm.catalog->Add("i" + std::to_string(i)));
  for (int o = 0; o < ko; ++o) out.push_back(bm.catalog->Add("o" + std::to_string(o)));
  Rng rng(seed);
  bm.module = MakeRandomFunction("m", bm.catalog, in, out, &rng);
  bm.relation = bm.module->FullRelation();
  return bm;
}

// --- Algorithm-2 safety check: time vs relation size N = 2^{ki}. ---
void BM_Algorithm2Check(benchmark::State& state) {
  const int ki = static_cast<int>(state.range(0));
  BenchModule bm = MakeBenchModule(ki, 3, 42);
  Bitset64 visible = Bitset64::All(bm.catalog->size());
  visible.Reset(ki);      // hide one output
  visible.Reset(0);       // and one input
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsStandaloneSafe(
        bm.relation, bm.module->inputs(), bm.module->outputs(), visible, 2));
  }
  state.SetComplexityN(int64_t{1} << ki);
  state.counters["N_rows"] = static_cast<double>(int64_t{1} << ki);
}
BENCHMARK(BM_Algorithm2Check)->DenseRange(4, 12, 2)->Complexity();

// --- Min-cost subset search: time vs k = |I| + |O| (exponential). ---
void BM_MinCostSearch(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const int ki = k / 2;
  BenchModule bm = MakeBenchModule(ki, k - ki, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MinCostSafeHiddenSet(
        bm.relation, bm.module->inputs(), bm.module->outputs(), 2));
  }
  state.counters["k"] = k;
}
BENCHMARK(BM_MinCostSearch)->DenseRange(4, 12, 2);

// --- Brute-force world walk: naive |Range|^N odometer vs pruned engine. ---
// Same module and view; the pruned/interned walk visits ∏|feasible_i|
// candidates with O(1) incremental updates instead of |Range|^N set
// comparisons. The Γ short-circuit is off so both do the full count.
void BM_WorldWalkNaive(benchmark::State& state) {
  const int ki = static_cast<int>(state.range(0));
  BenchModule bm = MakeBenchModule(ki, 2, 42);
  Bitset64 visible = Bitset64::All(bm.catalog->size());
  visible.Reset(0);
  visible.Reset(ki);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EnumerateStandaloneWorldsNaive(
        bm.relation, bm.module->inputs(), bm.module->outputs(), visible,
        int64_t{1} << 32));
  }
}
BENCHMARK(BM_WorldWalkNaive)->DenseRange(2, 3, 1)
    ->Unit(benchmark::kMillisecond);

void BM_WorldWalkPruned(benchmark::State& state) {
  const int ki = static_cast<int>(state.range(0));
  BenchModule bm = MakeBenchModule(ki, 2, 42);
  Bitset64 visible = Bitset64::All(bm.catalog->size());
  visible.Reset(0);
  visible.Reset(ki);
  EnumerationOptions opts;
  opts.max_candidates = int64_t{1} << 32;
  for (auto _ : state) {
    benchmark::DoNotOptimize(EnumerateStandaloneWorlds(
        bm.relation, bm.module->inputs(), bm.module->outputs(), visible,
        opts));
  }
}
BENCHMARK(BM_WorldWalkPruned)->DenseRange(2, 3, 1)
    ->Unit(benchmark::kMillisecond);

// --- Γ short-circuit: safety verdict without the full walk. ---
void BM_BruteSafetyShortCircuit(benchmark::State& state) {
  const int ki = static_cast<int>(state.range(0));
  BenchModule bm = MakeBenchModule(ki, 2, 42);
  Bitset64 visible = Bitset64::All(bm.catalog->size());
  visible.Reset(0);
  visible.Reset(ki);
  EnumerationOptions opts;
  opts.max_candidates = int64_t{1} << 32;
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsStandaloneSafeByEnumeration(
        bm.relation, bm.module->inputs(), bm.module->outputs(), visible, 2,
        opts));
  }
}
BENCHMARK(BM_BruteSafetyShortCircuit)->DenseRange(2, 3, 1)
    ->Unit(benchmark::kMillisecond);

// --- Cardinality-frontier computation (the §4.2 list builder). ---
void BM_CardinalityFrontier(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const int ki = k / 2;
  BenchModule bm = MakeBenchModule(ki, k - ki, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MinimalSafeCardinalityPairs(
        bm.relation, bm.module->inputs(), bm.module->outputs(), 2));
  }
}
BENCHMARK(BM_CardinalityFrontier)->DenseRange(4, 10, 2);

// Closing tables: Theorem-1 supplier reads and Theorem-3 subset blowup.
void PrintScalingTables() {
  PrintBanner("E2a: Theorem 1 — data-supplier calls to materialize R");
  TablePrinter t1({"|I|", "N = 2^|I|", "supplier calls", "calls / N"});
  for (int ki = 4; ki <= 12; ki += 2) {
    auto catalog = std::make_shared<AttributeCatalog>();
    std::vector<AttrId> in, out;
    for (int i = 0; i < ki; ++i) in.push_back(catalog->Add("i" + std::to_string(i)));
    out.push_back(catalog->Add("o0"));
    Rng rng(3);
    ModulePtr base = MakeRandomFunction("m", catalog, in, out, &rng);
    ModulePtr table = TableModule::Materialize(*base);
    auto* tm = static_cast<TableModule*>(table.get());
    tm->ResetSupplierCalls();
    Relation rel = tm->FullRelation();  // the "read everything" step
    t1.NewRow()
        .AddCell(ki)
        .AddCell(int64_t{1} << ki)
        .AddCell(tm->supplier_calls())
        .AddCell(static_cast<double>(tm->supplier_calls()) /
                     static_cast<double>(int64_t{1} << ki),
                 2);
  }
  t1.Print();

  PrintBanner(
      "E2b: Theorem 3 / §3.2 — subset-search volume grows as 2^k");
  TablePrinter t2({"k", "subsets 2^k", "examined", "checker calls",
                   "cache hits", "skipped (%)"});
  for (int k = 4; k <= 14; k += 2) {
    const int ki = k / 2;
    BenchModule bm = MakeBenchModule(ki, k - ki, 13);
    SafeSearchStats stats;
    MinimalSafeHiddenSets(bm.relation, bm.module->inputs(),
                          bm.module->outputs(), 2, &stats);
    t2.NewRow()
        .AddCell(k)
        .AddCell(int64_t{1} << k)
        .AddCell(stats.subsets_examined)
        .AddCell(stats.checker_calls)
        .AddCell(stats.cache_hits)
        .AddCell(100.0 *
                     (1.0 - static_cast<double>(stats.checker_calls) /
                                static_cast<double>(stats.subsets_examined)),
                 1);
  }
  t2.Print();
  std::cout << "  (skipped = Prop.-1 dominance pruning + memo cache; random "
               "boolean modules have no redundant attributes, so hits "
               "concentrate in E2e's redundant-schema workload.)\n";

  // --- Memo cache on redundant schemas: distinct hidden sets, one verdict. ---
  PrintBanner(
      "E2e: safety-memo canonicalization — redundant attribute schemas");
  TablePrinter t5({"redundant attrs", "k", "examined", "checker calls",
                   "memo hits", "hit rate (%)"});
  for (int redundant = 0; redundant <= 4; redundant += 2) {
    auto catalog = std::make_shared<AttributeCatalog>();
    std::vector<AttrId> in, out;
    in.push_back(catalog->Add("i0"));
    in.push_back(catalog->Add("i1"));
    // Domain-1 inputs: real schemas carry flags and metadata columns that
    // cannot distinguish worlds; the signature level collapses every hidden
    // set that differs only in them.
    for (int r = 0; r < redundant / 2; ++r) {
      in.push_back(catalog->Add("pad" + std::to_string(r), 1));
    }
    out.push_back(catalog->Add("o0"));
    out.push_back(catalog->Add("o1"));
    // Duplicated outputs (mirrors of o0): visible sets exchanging o0 for a
    // mirror induce the same grouping of R but carry distinct signatures,
    // so each pays its own row pass.
    for (int r = 0; r < redundant / 2; ++r) {
      out.push_back(catalog->Add("dup" + std::to_string(r)));
    }
    auto module = std::make_unique<LambdaModule>(
        "m", catalog, in, out, [in, out](const Tuple& x) {
          Tuple y(out.size(), 0);
          y[0] = x[0] ^ x[1];
          y[1] = x[0] & x[1];
          for (size_t j = 2; j < out.size(); ++j) y[j] = y[0];
          return y;
        });
    Relation rel = module->FullRelation();
    SafeSearchStats stats;
    MinimalSafeHiddenSets(rel, module->inputs(), module->outputs(), 2,
                          &stats);
    t5.NewRow()
        .AddCell(redundant)
        .AddCell(static_cast<int64_t>(in.size() + out.size()))
        .AddCell(stats.subsets_examined)
        .AddCell(stats.checker_calls)
        .AddCell(stats.cache_hits)
        .AddCell(100.0 * stats.HitRate(), 1);
  }
  t5.Print();
  std::cout << "  (domain-1 pads double the subset space but collapse "
               "through the signature memo ('memo hits'); a mirrored output "
               "induces the grouping of o0 under its own signature, so each "
               "mirror pays one row pass: checker calls go 5 / 6 / 7.)\n";

  // --- Appendix-A gadgets checked against Algorithm 2. ---
  PrintBanner("E2c: Theorem-1 set-disjointness gadget (safety <=> A∩B ≠ ∅)");
  TablePrinter t3({"universe N", "|A|", "|B|", "intersect", "safe (Alg 2)",
                   "agree"});
  Rng rng(17);
  for (int universe : {4, 8, 16, 32}) {
    for (int trial = 0; trial < 2; ++trial) {
      std::vector<int> a, b;
      for (int i = 0; i < universe; ++i) {
        if (rng.NextBernoulli(0.3)) a.push_back(i);
        if (rng.NextBernoulli(0.3)) b.push_back(i);
      }
      bool intersect = false;
      for (int i : a) {
        if (std::find(b.begin(), b.end(), i) != b.end()) intersect = true;
      }
      DisjointnessGadget g = MakeDisjointnessGadget(universe, a, b);
      bool safe = IsStandaloneSafe(g.relation, g.module->inputs(),
                                   g.module->outputs(), g.view, 2);
      t3.NewRow()
          .AddCell(universe)
          .AddCell(static_cast<int64_t>(a.size()))
          .AddCell(static_cast<int64_t>(b.size()))
          .AddCell(intersect ? "yes" : "no")
          .AddCell(safe ? "yes" : "no")
          .AddCell(safe == intersect ? "yes" : "NO");
    }
  }
  t3.Print();

  PrintBanner(
      "E2d: Theorem-3 adversary pair (l=8, A={0..3}) — safe visible sets");
  TablePrinter t4({"|V|", "safe for m1", "safe for m2", "subsets of A",
                   "note"});
  AdversaryPair pair = MakeAdversaryPair(8, {0, 1, 2, 3});
  for (int size = 0; size <= 4; ++size) {
    int safe1 = 0, safe2 = 0, in_a = 0;
    Bitset64 a_set = Bitset64::Of(8, pair.special_set);
    for (const Bitset64& combo : SubsetsOfSize(8, size)) {
      if (AdversaryVisibleInputsSafe(*pair.m1, combo.ToVector())) ++safe1;
      if (AdversaryVisibleInputsSafe(*pair.m2, combo.ToVector())) ++safe2;
      if (combo.IsSubsetOf(a_set)) ++in_a;
    }
    t4.NewRow()
        .AddCell(size)
        .AddCell(safe1)
        .AddCell(safe2)
        .AddCell(in_a)
        .AddCell(size < 2 ? "(P1): all safe"
                          : "(P2): m1 none; m2 exactly the subsets of A");
  }
  t4.Print();
  std::cout << "  (m2's extra safe sets are invisible to any algorithm "
               "probing fewer than ~C(l, l/2)/C(3l/4, l/4) subsets — the "
               "2^Ω(k) oracle lower bound of Theorem 3.)\n";
}

}  // namespace
}  // namespace provview

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  provview::PrintScalingTables();
  return 0;
}
