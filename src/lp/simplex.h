// Bounded-variable simplex on a dense, flat row-major tableau, sized for
// the relaxations produced by the Secure-View encoders (up to a few
// thousand variables/constraints).
//
//   * Every variable is boxed (LinearProgram requires finite bounds), and
//     bounds are implicit: a nonbasic variable sits at its lower or its
//     upper bound. There are no `x <= u` rows.
//   * Every row gets one slack column, and a cold solve starts from the
//     slack basis with each structural variable at the bound its cost
//     prefers. That basis is dual feasible, so one loop, the dual simplex,
//     solves cold LPs and re-solves alike: each pivot repairs a basic
//     variable outside its bounds, and an unrepairable one proves the LP
//     infeasible.
//   * A cold solve pivots in place on the tableau it owns (the transformed
//     rhs B^-1 b included). Its optimal tableau (SolvedLp) then stays
//     read-only and can be re-solved under tighter variable bounds
//     (ResolveLp) in a few pivots instead of a cold solve. A re-solve
//     shares that tableau and keeps only O(rows + cols) state of its own
//     plus one eta column per pivot (the product form of the inverse): its
//     pivot row and entering column are formed from root rows and columns
//     through those etas, and no tableau is copied.
//   * Dantzig pricing (the most violated row leaves), with Bland's rule
//     after a run of non-improving pivots to guarantee termination.
#ifndef PROVVIEW_LP_SIMPLEX_H_
#define PROVVIEW_LP_SIMPLEX_H_

#include <memory>
#include <vector>

#include "common/exec_control.h"
#include "lp/linear_program.h"

namespace provview {

/// Tuning knobs for the dual simplex loop (cold solves and re-solves).
struct SimplexOptions {
  double eps = 1e-9;           ///< pivot / feasibility tolerance
  int max_iterations = 500000; ///< pivots per solve
  /// Switch from Dantzig pricing to Bland's rule after this many
  /// consecutive non-improving iterations (anti-cycling).
  int bland_threshold = 2000;
  /// Cooperative deadline/cancel token, polled every kControlStride pivots;
  /// a tripped control surfaces as its typed Status (DEADLINE_EXCEEDED /
  /// RESOURCE_EXHAUSTED) instead of an unbounded pivot loop.
  const ExecControl* control = nullptr;
};

/// Solves `lp` to optimality (minimization). Statuses: OK (optimal),
/// Infeasible, Timeout (iteration budget exhausted), or a tripped control's
/// status. `iterations` counts the dual pivots.
LpSolution SolveLp(const LinearProgram& lp, const SimplexOptions& options = {});

namespace lp_internal {
struct LpState;  // defined in simplex.cc
}  // namespace lp_internal

/// An optimal basis of an LP, kept so the same LP can be re-solved under
/// tighter variable bounds by ResolveLp. It holds the final tableau of the
/// cold solve it descends from by shared ownership, so that tableau lives
/// as long as any state that references it, plus its own basis, bounds,
/// basic values, reduced costs and eta file (empty after a cold solve).
/// Opaque and move-only; a default-constructed SolvedLp is an empty work
/// buffer.
class SolvedLp {
 public:
  SolvedLp();
  /// Solves `lp` cold, exactly as SolveLp does, and keeps the tableau.
  explicit SolvedLp(const LinearProgram& lp,
                    const SimplexOptions& options = {});
  SolvedLp(SolvedLp&& other) noexcept;
  SolvedLp& operator=(SolvedLp&& other) noexcept;
  ~SolvedLp();

  /// Outcome of the solve that produced this state. Only an OK state can
  /// be re-solved.
  const LpSolution& solution() const { return solution_; }

 private:
  friend const LpSolution& ResolveLp(const SolvedLp& solved,
                                     const std::vector<double>& lb,
                                     const std::vector<double>& ub,
                                     const SimplexOptions& options,
                                     SolvedLp* work);
  std::unique_ptr<lp_internal::LpState> state_;
  LpSolution solution_;
};

/// Re-solves `solved`'s LP with every variable v boxed to [lb[v], ub[v]],
/// which must lie within the bounds `solved` was solved under. Copies
/// `solved`'s O(rows + cols) basis state and eta file into `work` (never
/// the shared tableau), moves the basic values by each nonbasic variable's
/// bound shift, and runs dual simplex pivots there, each appending one eta
/// to `work`. So `solved` itself is only read (several threads may re-solve
/// one SolvedLp at once, each into its own `work`) and the result depends
/// on `solved` and the box alone, never on what `work` held before; `work`
/// may be `&solved`, which equals re-solving a copy. Returns
/// work->solution(): statuses as SolveLp, with Infeasible for an empty or
/// infeasible box and InvalidArgument for a box outside the bounds or a
/// `solved` that is not OK. `iterations` counts the dual pivots. On OK,
/// `work` holds the re-solved basis and can itself be re-solved under a
/// tighter box.
const LpSolution& ResolveLp(const SolvedLp& solved,
                            const std::vector<double>& lb,
                            const std::vector<double>& ub,
                            const SimplexOptions& options, SolvedLp* work);

}  // namespace provview

#endif  // PROVVIEW_LP_SIMPLEX_H_
