// Secure-View solvers:
//   SolveExact           — branch-and-bound on the ILP encoding (the OPT
//                          that approximation ratios are measured against).
//   SolveBruteForce      — subset enumeration, for cross-checking on tiny
//                          instances.
//   SolveByLpRounding    — Algorithm 1 (Theorem 5): randomized rounding of
//                          the LP relaxation with the B_i^min repair step;
//                          O(log n)-approximation for cardinality
//                          constraints in all-private workflows.
//   SolveByThresholdRounding — Appendix B.5.1 / C.4: deterministic
//                          rounding at 1/ℓ_max; ℓ_max-approximation for set
//                          constraints (also with privatization costs).
//   SolveGreedyPerModule — union of per-module cheapest options; the
//                          (γ+1)-approximation of Theorem 7.
//   SolveGreedyCoverage  — global cost-effectiveness greedy baseline.
#ifndef PROVVIEW_SECUREVIEW_SOLVERS_H_
#define PROVVIEW_SECUREVIEW_SOLVERS_H_

#include <cstdint>

#include "common/exec_control.h"
#include "lp/branch_and_bound.h"
#include "secureview/instance.h"

namespace provview {

/// Common result shape. `lower_bound` is a proven lower bound on OPT when
/// the solver produces one (exact: OPT itself; LP-based: the relaxation
/// objective), else 0. `gap` = cost - lower_bound: 0 means proven optimal,
/// and a deadlined / node-budgeted SolveExact reports the finite gap its
/// incumbent was proven to be within.
struct SvResult {
  Status status;
  SecureViewSolution solution;
  double cost = 0.0;
  double lower_bound = 0.0;
  double gap = 0.0;
  int64_t work = 0;  ///< solver-specific effort (nodes / iterations / trials)
};

/// Knobs for the exact solver beyond the raw branch-and-bound ones.
struct ExactOptions {
  BnbOptions bnb;
  /// Seed the incumbent with the better of SolveGreedyPerModule and an
  /// Algorithm-1 rounding of the search's own root relaxation (solved once,
  /// shared with the branch-and-bound): B&B prunes against a real upper
  /// bound from node one, and a deadline trip always has a feasible
  /// solution to return.
  bool warm_start = true;
  /// Rounding trials for the warm start's rounding leg; 0 skips that leg
  /// (greedy only).
  int warm_rounding_trials = 3;
  /// Attributes pinned visible (x_a := 0) before the search — sound when
  /// hiding them can never help (they appear in no requirement option;
  /// see UselessAttrs / SolveExactForWorkflow). A warm candidate hiding a
  /// pinned attribute is dropped; an entry outside [0, num_attrs) is
  /// InvalidArgument.
  std::vector<int> fix_visible;
};

/// Attributes that appear in no requirement option of any private module:
/// hiding one only adds cost (and possibly privatizations), so pinning
/// them visible preserves the exact optimum.
std::vector<int> UselessAttrs(const SecureViewInstance& inst);

/// Exact optimum via branch-and-bound on the ILP encoding, with warm-start
/// pruning per `options`. Unless `options.bnb.oracle` is set, the
/// combinatorial fathoming oracle (bnb_oracle.h) closes safe / doomed
/// subtrees without simplex work. A tripped deadline / node budget returns
/// the typed status WITH the best feasible solution found and the proven
/// optimality gap.
SvResult SolveExact(const SecureViewInstance& inst,
                    const ExactOptions& options = {});

/// Raw engine entry point: no warm start, `options` passed through.
SvResult SolveExact(const SecureViewInstance& inst, const BnbOptions& options);

/// Most requirement-relevant attributes SolveBruteForce enumerates.
inline constexpr int kMaxBruteForceAttrs = 22;

/// Exact optimum via enumeration of all subsets of requirement-relevant
/// attributes (≤ kMaxBruteForceAttrs of them; more is InvalidArgument).
/// `control` is polled between blocks of masks.
SvResult SolveBruteForce(const SecureViewInstance& inst,
                         const ExecControl* control = nullptr);

/// Options for the Algorithm-1 randomized rounding.
struct RoundingOptions {
  double scale = 2.0;   ///< c in Pr[hide b] = min{1, c · x_b · ln n}
  int trials = 7;       ///< independent rounding trials; best kept
  uint64_t seed = 42;
  SimplexOptions simplex;
  /// Deadline/cancel token; also installed into the simplex when its own
  /// control is unset.
  const ExecControl* control = nullptr;
};

/// Algorithm 1: LP relaxation + randomized rounding + per-module repair.
/// Works for both constraint kinds (the paper analyzes the cardinality
/// case). Always returns a feasible solution; `lower_bound` is the LP
/// optimum.
SvResult SolveByLpRounding(const SecureViewInstance& inst,
                           const RoundingOptions& options = {});

/// Deterministic threshold rounding at 1/ℓ_max (set constraints; Theorem 6
/// and Appendix C.4). A cardinality instance is InvalidArgument.
SvResult SolveByThresholdRounding(const SecureViewInstance& inst,
                                  const SimplexOptions& options = {});

/// Union of per-module cheapest options — the (γ+1)-approximation of
/// Theorem 7 (and Example 5's "standalone union" behavior under workflow
/// bridging). `control` is polled once per module.
SvResult SolveGreedyPerModule(const SecureViewInstance& inst,
                              const ExecControl* control = nullptr);

/// Global greedy: repeatedly commits the cheapest per-module satisfying
/// addition with the best (marginal cost / newly satisfied modules) ratio.
/// `control` is polled once per committed addition.
SvResult SolveGreedyCoverage(const SecureViewInstance& inst,
                             const ExecControl* control = nullptr);

}  // namespace provview

#endif  // PROVVIEW_SECUREVIEW_SOLVERS_H_
