// Experiment E11 — performance envelope of the LP/ILP substrate (S6) that
// Theorems 5/6 and Appendix C.4 rely on: the bounded-variable dense simplex
// (cold solves) and branch-and-bound (a cold root, then dual re-solves of
// the root tableau per node), on randomly generated covering programs
// shaped like the Secure-View encodings.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "lp/branch_and_bound.h"
#include "secureview/ilp_encoding.h"
#include "generators/requirement_gen.h"

namespace provview {
namespace {

LinearProgram RandomCoveringLp(int num_vars, int num_rows, uint64_t seed) {
  Rng rng(seed);
  LinearProgram lp;
  for (int v = 0; v < num_vars; ++v) {
    lp.AddUnitVariable(1.0 + rng.NextDouble() * 9.0);
  }
  for (int c = 0; c < num_rows; ++c) {
    std::vector<std::pair<int, double>> terms;
    int nnz = 2 + static_cast<int>(rng.NextBelow(4));
    for (int j : rng.SampleWithoutReplacement(num_vars, nnz)) {
      terms.emplace_back(j, 1.0);
    }
    lp.AddConstraint(std::move(terms), ConstraintSense::kGe, 1.0);
  }
  return lp;
}

void BM_SimplexCoveringLp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  LinearProgram lp = RandomCoveringLp(n, n, 5);
  for (auto _ : state) {
    LpSolution s = SolveLp(lp);
    benchmark::DoNotOptimize(s.objective);
  }
  state.counters["vars"] = n;
}
BENCHMARK(BM_SimplexCoveringLp)->RangeMultiplier(2)->Range(16, 256);

void BM_BranchAndBoundCover(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  LinearProgram lp = RandomCoveringLp(n, n, 11);
  std::vector<int> vars;
  for (int v = 0; v < n; ++v) vars.push_back(v);
  for (auto _ : state) {
    BnbResult r = SolveIlp(lp, vars);
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_BranchAndBoundCover)->RangeMultiplier(2)->Range(8, 64);

void BM_Figure3EncodingSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(static_cast<uint64_t>(n));
  RandomInstanceOptions opt;
  opt.kind = ConstraintKind::kCardinality;
  opt.num_modules = n;
  SecureViewInstance inst = MakeRandomInstance(opt, &rng);
  SvEncoding enc = EncodeSecureView(inst);
  for (auto _ : state) {
    LpSolution s = SolveLp(enc.lp);
    benchmark::DoNotOptimize(s.objective);
  }
  state.counters["lp_vars"] = enc.lp.num_vars();
  state.counters["lp_rows"] = enc.lp.num_constraints();
}
BENCHMARK(BM_Figure3EncodingSolve)->DenseRange(4, 20, 4);

}  // namespace
}  // namespace provview

BENCHMARK_MAIN();
