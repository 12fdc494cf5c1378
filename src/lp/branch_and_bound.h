// Branch-and-bound integer solver on top of the simplex relaxation. Used
// to compute the exact Secure-View optimum that the approximation ratios of
// Theorems 5/6/7 are measured against, and to solve reduction source
// problems (set cover, vertex cover, label cover) exactly on small
// instances.
//
// The engine is a deterministic *wave* search (docs/optimizer.md):
//
//   * Open nodes live in a best-bound priority queue. Each round pops up
//     to wave_width nodes, resolves their relaxations — oracle fathoming
//     first, then the simplex — and only then merges the outcomes back
//     sequentially in pop order: incumbent updates, pruning, child
//     creation.
//   * The wave's composition and every per-node decision depend only on
//     state fixed at the start of the wave (the open queue and the
//     incumbent), never on which worker resolved a node first — so
//     sharding the resolve phase over a TaskGraphExecutor keeps BnbResult
//     (status, x, objective, bounds, node accounting) byte-identical at
//     any thread count, including 1.
//   * The root relaxation is solved cold once — by SolveIlp, or by a
//     caller that needs it anyway and hands it in — and its optimal tableau
//     kept read-only (SolvedLp). Every other node re-solves it under the
//     node's box with dual simplex pivots (ResolveLp) in its bucket's
//     buffer, which receives the root's O(rows + cols) basis state and one
//     eta column per pivot but shares the tableau itself — a few pivots
//     instead of a cold solve, and always from the root's state, so a
//     node's outcome never depends on which node its bucket solved before.
//   * Branching picks the fractional variable with the largest
//     objective-coefficient × fractionality score, which drives the child
//     bounds apart fastest on weighted covering LPs.
//   * A warm-start objective (from any feasible solution the caller
//     already has) prunes from the first node; an oracle hook lets domain
//     layers fathom or even resolve whole subtrees without touching the
//     simplex (see MakeSecureViewBnbOracle in secureview/solvers.h).
//   * A cooperative ExecControl is polled at node boundaries and inside
//     the simplex; tripping returns the typed status WITH the current
//     incumbent and the proven optimality gap instead of discarding work.
#ifndef PROVVIEW_LP_BRANCH_AND_BOUND_H_
#define PROVVIEW_LP_BRANCH_AND_BOUND_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/exec_control.h"
#include "lp/linear_program.h"
#include "lp/simplex.h"

namespace provview {

class TaskGraphExecutor;

/// Verdict of a node oracle over one branch-and-bound box.
struct BnbNodeCut {
  /// The box provably contains no feasible integral point.
  bool infeasible = false;
  /// Proven lower bound on every feasible integral point in the box
  /// (-inf when the oracle has nothing to say).
  double lower_bound = -std::numeric_limits<double>::infinity();
  /// The box's optimum is known exactly: `x` / `objective` describe it and
  /// the subtree needs no further exploration.
  bool resolved = false;
  std::vector<double> x;
  double objective = std::numeric_limits<double>::infinity();
};

/// Domain fathoming hook: called once per node with the node's effective
/// variable bounds (base LP bounds tightened by the branching path). Must
/// be a pure function of (lb, ub) — it may be invoked from several worker
/// threads of one solve concurrently — and must be sound: fathoming or
/// bounding a box that still contains the optimum breaks exactness.
using BnbOracle = std::function<BnbNodeCut(const std::vector<double>& lb,
                                           const std::vector<double>& ub)>;

/// Branch-and-bound knobs.
struct BnbOptions {
  SimplexOptions simplex;
  int max_nodes = 200000;     ///< node budget; kTimeout past it
  double int_tol = 1e-6;      ///< integrality tolerance
  double obj_eps = 1e-7;      ///< pruning slack

  /// Nodes resolved per wave. Fixed independently of num_threads so the
  /// search tree — and therefore BnbResult — is a function of the options
  /// alone, never of the worker count.
  int wave_width = 16;
  /// Workers for the wave resolve phase; <= 1 resolves inline.
  int num_threads = 1;
  /// Optional shared executor (e.g. the daemon's); when null and
  /// num_threads > 1 the solve owns a temporary one.
  TaskGraphExecutor* executor = nullptr;
  /// Cooperative deadline / cancellation / memory token. Polled at node
  /// boundaries and inside the simplex; a trip surfaces as
  /// DEADLINE_EXCEEDED / RESOURCE_EXHAUSTED with the incumbent and gap.
  const ExecControl* control = nullptr;
  /// Objective of a feasible solution the caller already holds (+inf =
  /// none). Prunes like an incumbent from node one; when the search proves
  /// nothing beats it, SolveIlp returns OK with this objective and an
  /// EMPTY x — the caller's solution is optimal.
  double warm_objective = std::numeric_limits<double>::infinity();
  /// Domain fathoming / bounding hook (may be empty).
  BnbOracle oracle;
};

/// ILP outcome. `x` holds the incumbent (rounded on integer variables);
/// empty when the warm-start solution was never beaten (its objective is
/// still reported) or when no feasible point was found.
struct BnbResult {
  Status status;
  std::vector<double> x;
  double objective = 0.0;
  /// Proven global lower bound: the objective itself when status is OK,
  /// otherwise the smallest bound among open (unexplored) subtrees — what
  /// a kTimeout / DEADLINE_EXCEEDED return has actually established.
  double lower_bound = -std::numeric_limits<double>::infinity();
  /// objective - lower_bound (0 when proven optimal; +inf when no bound
  /// was established before the trip).
  double gap = 0.0;
  int nodes_explored = 0;   ///< nodes popped into waves
  int64_t lp_solves = 0;    ///< simplex relaxations actually run
  /// Dual simplex pivots over all node solves: the root's cold solve plus
  /// every other node's re-solve.
  int64_t lp_iterations = 0;
  int64_t oracle_fathoms = 0;  ///< nodes closed by the oracle alone
};

/// Minimizes `lp` with the variables in `integer_vars` restricted to
/// integers. Cold-solves the root relaxation under `options.simplex` (with
/// `options.control` installed when the simplex has none) and runs the
/// overload below on it.
BnbResult SolveIlp(const LinearProgram& lp, const std::vector<int>& integer_vars,
                   const BnbOptions& options = {});

/// As above, over a root relaxation the caller already solved: `root` must
/// be SolvedLp(lp, ...) of this very `lp`, bounds included. It is only
/// read, from every worker of the solve. The result is the one the
/// overload above returns when `root` was solved under the same simplex
/// options; `lp_solves` and `lp_iterations` count the root only when the
/// root node reaches its LP step. A root that is Infeasible proves the ILP
/// infeasible; any other non-OK root (a tripped control, an iteration
/// budget) is returned as that typed status with the incumbent and gap.
BnbResult SolveIlp(const LinearProgram& lp, const std::vector<int>& integer_vars,
                   const SolvedLp& root, const BnbOptions& options = {});

}  // namespace provview

#endif  // PROVVIEW_LP_BRANCH_AND_BOUND_H_
