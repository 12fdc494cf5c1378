// E10: the optimizer — the wave branch-and-bound with its whole pruning
// stack (dual re-solves from the root tableau, best-bound order,
// greedy/rounding warm start, combinatorial safety oracle), sequentially
// and in parallel, on the hundred-module layered-DAG workflow family the
// generator grows for this experiment. Cover-based approximations ride
// along so the gap they leave on the table is recorded next to the timings.
//
// Summary lines, recorded by run_benches.sh into
// BENCH_possible_worlds.json. A short-mode run (PODS_BENCH_SHORT=1) on a
// 4-core Xeon host, so threads=4:
//
//   E10 optimizer: instances=3 modules=60 attrs=153 threads=4
//   E10 optimizer: pruned_ms=7.9 parallel_ms=6.0
//   E10 optimizer: bnb_parallel_speedup_x=1.31
//   E10 optimizer: greedy_ratio=1.181 rounding_ratio=1.183
//       threshold_ratio=1.183 exact_cost=118.76
//
// The speedup is noisy on that host: two consecutive short-mode runs read
// 1.31 and 1.15.
//
//   * bnb_parallel_speedup_x — single thread over hardware threads:
//                              wave-engine scaling.
//   * *_ratio                — approximation cost over the exact optimum.
//
// Approximation ratios are minima over the instances (the conservative
// trajectory number, like every other bench here). The sequential and
// parallel runs are PV_CHECKed to the SAME optimum bit-for-bit (the wave
// engine's determinism contract). Wall-clock timing (CLOCK_MONOTONIC), not
// process CPU: parallel speedup is precisely the thing CPU time cannot
// see. PODS_BENCH_SHORT=1 shrinks the family for CI smoke runs.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/task_graph.h"
#include "generators/random_workflow.h"
#include "secureview/feasibility.h"
#include "secureview/from_workflow.h"
#include "secureview/solvers.h"

namespace provview {
namespace {

bool ShortMode() { return std::getenv("PODS_BENCH_SHORT") != nullptr; }

double WallMs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return ts.tv_sec * 1e3 + ts.tv_nsec / 1e6;
}

struct RaceRow {
  double pruned_ms = 0, parallel_ms = 0;
  double exact_cost = 0;
  double greedy_ratio = 0, rounding_ratio = 0, threshold_ratio = 0;
};

RandomWorkflowOptions FamilyOptions(int num_modules, int num_layers) {
  // The E10 family: hundred-module layered DAGs with enough attribute
  // sharing (gamma_bound 3, reuse 0.8) that requirement options overlap
  // across modules — the LP relaxation goes fractional and the solve is
  // about tree size, not about one lucky integral root.
  RandomWorkflowOptions wopt;
  wopt.num_modules = num_modules;
  wopt.num_layers = num_layers;
  wopt.min_inputs = 2;
  wopt.max_inputs = 3;
  wopt.max_outputs = 2;
  wopt.gamma_bound = 3;
  wopt.reuse_probability = 0.8;
  return wopt;
}

RaceRow RaceOne(uint64_t seed, int num_modules, int num_layers, int threads) {
  Rng rng(seed);
  RandomWorkflowOptions wopt = FamilyOptions(num_modules, num_layers);
  GeneratedWorkflow gen = MakeRandomWorkflow(wopt, &rng);
  SecureViewInstance inst =
      InstanceFromWorkflow(*gen.workflow, /*gamma=*/2, ConstraintKind::kSet);

  RaceRow row;

  // Full stack, single thread. Wave width 4 on BOTH pruned rows so the
  // parallel row differs from this one in num_threads alone — the
  // thread-scaling ratio is not polluted by speculation-width effects.
  ExactOptions pruned_opt;
  pruned_opt.bnb.num_threads = 1;
  pruned_opt.bnb.wave_width = 4;
  double t0 = WallMs();
  SvResult pruned = SolveExact(inst, pruned_opt);
  row.pruned_ms = WallMs() - t0;
  PV_CHECK_MSG(pruned.status.ok(), "pruned exact solve failed");
  PV_CHECK_MSG(IsFeasible(inst, pruned.solution), "pruned solution infeasible");
  row.exact_cost = pruned.cost;

  // Same stack at hardware threads: must land on the identical optimum.
  ExactOptions par_opt = pruned_opt;
  par_opt.bnb.num_threads = threads;
  t0 = WallMs();
  SvResult par = SolveExact(inst, par_opt);
  row.parallel_ms = WallMs() - t0;
  PV_CHECK_MSG(par.status.ok(), "parallel exact solve failed");
  PV_CHECK_MSG(par.cost == pruned.cost,
               "parallel wave engine diverged from sequential optimum");

  // The cover-based approximations on the same instance.
  SvResult greedy = SolveGreedyPerModule(inst);
  PV_CHECK_MSG(greedy.status.ok() && IsFeasible(inst, greedy.solution),
               "greedy failed");
  RoundingOptions ropt;
  ropt.seed = seed;
  SvResult rounding = SolveByLpRounding(inst, ropt);
  PV_CHECK_MSG(rounding.status.ok() && IsFeasible(inst, rounding.solution),
               "rounding failed");
  SvResult thresh = SolveByThresholdRounding(inst);
  PV_CHECK_MSG(thresh.status.ok() && IsFeasible(inst, thresh.solution),
               "threshold rounding failed");
  const double denom = std::max(pruned.cost, 1e-9);
  row.greedy_ratio = greedy.cost / denom;
  row.rounding_ratio = rounding.cost / denom;
  row.threshold_ratio = thresh.cost / denom;

  std::printf(
      "E10 row: seed=%llu modules=%d attrs=%d pruned_ms=%.1f "
      "parallel_ms=%.1f cost=%.2f\n",
      static_cast<unsigned long long>(seed), num_modules, inst.num_attrs,
      row.pruned_ms, row.parallel_ms, row.exact_cost);
  return row;
}

void OptimizerRace() {
  const int num_modules = ShortMode() ? 60 : 100;
  const int num_layers = ShortMode() ? 4 : 6;
  const int instances = 3;
  const int threads = std::max(2, DefaultThreads());

  // The speedup is computed over the family's TOTAL wall clock (one
  // shallow seed must not mask the scaling on the deep ones);
  // approximation ratios stay per-instance minima, the conservative gap
  // number.
  double pruned_total = 0, parallel_total = 0;
  double greedy_ratio = std::numeric_limits<double>::infinity();
  double rounding_ratio = std::numeric_limits<double>::infinity();
  double threshold_ratio = std::numeric_limits<double>::infinity();
  double exact_cost = 0;
  int attrs = 0;
  for (int i = 0; i < instances; ++i) {
    RaceRow row = RaceOne(0xe10u + static_cast<uint64_t>(i) * 142, num_modules,
                          num_layers, threads);
    pruned_total += row.pruned_ms;
    parallel_total += row.parallel_ms;
    greedy_ratio = std::min(greedy_ratio, row.greedy_ratio);
    rounding_ratio = std::min(rounding_ratio, row.rounding_ratio);
    threshold_ratio = std::min(threshold_ratio, row.threshold_ratio);
    exact_cost = row.exact_cost;
  }
  const double parallel_speedup =
      pruned_total / std::max(parallel_total, 1e-3);
  {
    // attrs of the first instance, for the header line.
    Rng rng(0xe10u);
    RandomWorkflowOptions wopt = FamilyOptions(num_modules, num_layers);
    attrs = MakeRandomWorkflow(wopt, &rng).catalog->size();
  }

  std::printf("E10 optimizer: instances=%d modules=%d attrs=%d threads=%d\n",
              instances, num_modules, attrs, threads);
  std::printf("E10 optimizer: pruned_ms=%.1f parallel_ms=%.1f\n",
              pruned_total, parallel_total);
  std::printf("E10 optimizer: bnb_parallel_speedup_x=%.2f\n",
              parallel_speedup);
  std::printf(
      "E10 optimizer: greedy_ratio=%.3f rounding_ratio=%.3f "
      "threshold_ratio=%.3f exact_cost=%.2f\n",
      greedy_ratio, rounding_ratio, threshold_ratio, exact_cost);
}

}  // namespace
}  // namespace provview

int main() {
  provview::OptimizerRace();
  return 0;
}
