// Linear-program model consumed by the simplex solver and the
// branch-and-bound ILP solver. The paper's approximation algorithms
// (Theorem 5's Figure-3 relaxation, Theorem 6's set-constraint relaxation,
// and Appendix C.4's privatization relaxation) are all built on this.
#ifndef PROVVIEW_LP_LINEAR_PROGRAM_H_
#define PROVVIEW_LP_LINEAR_PROGRAM_H_

#include <cmath>
#include <string>
#include <vector>

#include "common/status.h"

namespace provview {

/// Direction of a linear constraint.
enum class ConstraintSense { kLe, kGe, kEq };

/// One linear constraint: Σ coeff_j · x_{var_j}  (sense)  rhs.
struct LpConstraint {
  std::vector<std::pair<int, double>> terms;  ///< (variable index, coeff)
  ConstraintSense sense = ConstraintSense::kLe;
  double rhs = 0.0;
};

/// Minimization LP with per-variable bounds. Variables are created with
/// AddVariable and referenced by index.
class LinearProgram {
 public:
  /// Adds a variable with bounds [lb, ub] and objective coefficient `obj`.
  /// Returns its index. Both bounds must be finite: the simplex starts from
  /// every variable at the bound its cost prefers.
  int AddVariable(double lb, double ub, double obj,
                  std::string name = std::string());

  /// Adds a [0, 1] variable (the shape every relaxation here uses).
  int AddUnitVariable(double obj, std::string name = std::string()) {
    return AddVariable(0.0, 1.0, obj, std::move(name));
  }

  /// Adds a constraint; variable indices must already exist. Duplicate
  /// variable entries in `terms` are allowed (coefficients accumulate).
  void AddConstraint(std::vector<std::pair<int, double>> terms,
                     ConstraintSense sense, double rhs);

  /// Overwrites a variable's bounds in place (e.g. pinning an attribute
  /// visible before a solve). Both bounds must stay finite; lb > ub is
  /// allowed and makes the LP an empty box, which the simplex reports as
  /// Infeasible. Branch-and-bound never edits the LP: its nodes' boxes go to
  /// ResolveLp.
  void SetVarBounds(int var, double lb, double ub) {
    PV_CHECK_MSG(std::isfinite(lb), "lower bound must be finite");
    PV_CHECK_MSG(std::isfinite(ub), "upper bound must be finite");
    lb_[Check(var)] = lb;
    ub_[Check(var)] = ub;
  }

  int num_vars() const { return static_cast<int>(obj_.size()); }
  int num_constraints() const { return static_cast<int>(constraints_.size()); }

  double objective_coeff(int var) const { return obj_[Check(var)]; }
  double lower_bound(int var) const { return lb_[Check(var)]; }
  double upper_bound(int var) const { return ub_[Check(var)]; }
  const std::string& var_name(int var) const { return names_[Check(var)]; }
  const std::vector<LpConstraint>& constraints() const { return constraints_; }

  /// Objective value of an assignment (no feasibility check).
  double Objective(const std::vector<double>& x) const;

  /// Max constraint/bound violation of an assignment.
  double MaxViolation(const std::vector<double>& x) const;

 private:
  size_t Check(int var) const {
    PV_CHECK_MSG(var >= 0 && var < num_vars(), "bad variable index " << var);
    return static_cast<size_t>(var);
  }
  std::vector<double> obj_, lb_, ub_;
  std::vector<std::string> names_;
  std::vector<LpConstraint> constraints_;
};

/// Solver outcome. `status` is OK, Infeasible, Timeout, or a tripped
/// control's status.
struct LpSolution {
  Status status;
  std::vector<double> x;
  double objective = 0.0;
  int iterations = 0;
};

}  // namespace provview

#endif  // PROVVIEW_LP_LINEAR_PROGRAM_H_
