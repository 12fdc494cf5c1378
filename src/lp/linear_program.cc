#include "lp/linear_program.h"

#include <algorithm>
#include <cmath>

namespace provview {

int LinearProgram::AddVariable(double lb, double ub, double obj,
                               std::string name) {
  PV_CHECK_MSG(std::isfinite(lb), "lower bound must be finite");
  PV_CHECK_MSG(std::isfinite(ub), "upper bound must be finite");
  PV_CHECK_MSG(ub >= lb, "upper bound below lower bound");
  obj_.push_back(obj);
  lb_.push_back(lb);
  ub_.push_back(ub);
  if (name.empty()) name = "x" + std::to_string(num_vars() - 1);
  names_.push_back(std::move(name));
  return num_vars() - 1;
}

void LinearProgram::AddConstraint(std::vector<std::pair<int, double>> terms,
                                  ConstraintSense sense, double rhs) {
  for (const auto& [var, coeff] : terms) {
    (void)coeff;
    Check(var);
  }
  constraints_.push_back(LpConstraint{std::move(terms), sense, rhs});
}

double LinearProgram::Objective(const std::vector<double>& x) const {
  PV_CHECK(static_cast<int>(x.size()) == num_vars());
  double total = 0.0;
  for (int v = 0; v < num_vars(); ++v) {
    total += obj_[static_cast<size_t>(v)] * x[static_cast<size_t>(v)];
  }
  return total;
}

double LinearProgram::MaxViolation(const std::vector<double>& x) const {
  PV_CHECK(static_cast<int>(x.size()) == num_vars());
  double worst = 0.0;
  for (int v = 0; v < num_vars(); ++v) {
    worst = std::max(worst, lb_[static_cast<size_t>(v)] -
                                x[static_cast<size_t>(v)]);
    worst = std::max(worst, x[static_cast<size_t>(v)] -
                                ub_[static_cast<size_t>(v)]);
  }
  for (const LpConstraint& c : constraints_) {
    double lhs = 0.0;
    for (const auto& [var, coeff] : c.terms) {
      lhs += coeff * x[static_cast<size_t>(var)];
    }
    switch (c.sense) {
      case ConstraintSense::kLe:
        worst = std::max(worst, lhs - c.rhs);
        break;
      case ConstraintSense::kGe:
        worst = std::max(worst, c.rhs - lhs);
        break;
      case ConstraintSense::kEq:
        worst = std::max(worst, std::abs(lhs - c.rhs));
        break;
    }
  }
  return worst;
}

}  // namespace provview
