#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace provview {

namespace lp_internal {

// Dense tableau B^-1 [A | S | b] over m rows, flat and row-major. Columns:
// [0, n) structural variables, [n, n + m) one slack per row (bounds
// [0, inf), or [0, 0] on = rows; a >= row is negated into a <= row, so
// every slack has coefficient +1), then the transformed rhs.
struct Tableau {
  int n = 0;      // structural variables
  int m = 0;      // rows
  int cols = 0;   // n + m priced columns
  int width = 0;  // cols + 1: the last column is B^-1 b
  std::vector<double> tab;       // m x width
  std::vector<double> d;         // reduced cost of each column
  std::vector<double> cost;      // objective coefficient of each structural
  std::vector<double> lb, ub;    // bounds of each column
  std::vector<int> basis;        // basic variable of each row
  std::vector<int> row_of;       // basis row of each column, -1 if nonbasic
  std::vector<uint8_t> at_upper; // nonbasic column sits at its upper bound
  std::vector<double> xb;        // value of each row's basic variable

  double* row(int i) { return tab.data() + static_cast<size_t>(i) * width; }
  const double* row(int i) const {
    return tab.data() + static_cast<size_t>(i) * width;
  }
  // Value of a nonbasic column.
  double value(int j) const {
    return at_upper[static_cast<size_t>(j)] ? ub[static_cast<size_t>(j)]
                                            : lb[static_cast<size_t>(j)];
  }
};

}  // namespace lp_internal

namespace {

using lp_internal::Tableau;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Pivots between deadline polls: each pivot is already O(rows·cols), so a
// small stride keeps service-mode LP solves responsive without measurable
// overhead.
constexpr int kControlStride = 16;

class Simplex {
 public:
  Simplex(Tableau* t, const SimplexOptions& options, LpSolution* solution)
      : t_(*t), opt_(options), sol_(*solution) {}

  // Builds the slack-basis tableau of `lp` with every structural variable
  // at the bound its cost prefers. Every variable is boxed, so that basis
  // is dual feasible and the dual simplex solves the LP from it.
  void SolveCold(const LinearProgram& lp) {
    if (opt_.control != nullptr && opt_.control->ExpiredNow()) {
      sol_.status = opt_.control->Check();
      return;
    }
    for (int v = 0; v < lp.num_vars(); ++v) {
      if (lp.lower_bound(v) > lp.upper_bound(v)) {
        sol_.status = Status::Infeasible("empty variable box");
        return;
      }
    }
    Build(lp);
    SolveFromBasis();
  }

  // Installs the box [lb, ub] on the structural variables of an optimal
  // tableau and restores primal feasibility with dual pivots. The basis
  // stays dual feasible: every nonbasic variable keeps the bound it sits
  // at, and only that bound's value moves.
  void Resolve(const std::vector<double>& lb, const std::vector<double>& ub) {
    for (int v = 0; v < t_.n; ++v) {
      t_.lb[static_cast<size_t>(v)] = lb[static_cast<size_t>(v)];
      t_.ub[static_cast<size_t>(v)] = ub[static_cast<size_t>(v)];
    }
    SolveFromBasis();
  }

 private:
  // Fills the tableau at the slack basis, each row scaled so its slack has
  // coefficient +1, with every structural variable nonbasic at its lower
  // bound, or at its upper bound when its cost is negative.
  void Build(const LinearProgram& lp) {
    const int n = lp.num_vars();
    const int m = lp.num_constraints();
    t_.n = n;
    t_.m = m;
    t_.cols = n + m;
    t_.width = t_.cols + 1;
    t_.tab.assign(static_cast<size_t>(m) * static_cast<size_t>(t_.width), 0.0);
    t_.d.assign(static_cast<size_t>(t_.cols), 0.0);
    t_.cost.resize(static_cast<size_t>(n));
    t_.lb.assign(static_cast<size_t>(t_.cols), 0.0);
    t_.ub.assign(static_cast<size_t>(t_.cols), kInf);
    t_.at_upper.assign(static_cast<size_t>(t_.cols), 0);
    for (int v = 0; v < n; ++v) {
      const double c = lp.objective_coeff(v);
      t_.cost[static_cast<size_t>(v)] = c;
      t_.d[static_cast<size_t>(v)] = c;
      t_.lb[static_cast<size_t>(v)] = lp.lower_bound(v);
      t_.ub[static_cast<size_t>(v)] = lp.upper_bound(v);
      t_.at_upper[static_cast<size_t>(v)] = c < 0.0 ? 1 : 0;
    }
    t_.basis.resize(static_cast<size_t>(m));
    t_.row_of.assign(static_cast<size_t>(t_.cols), -1);
    t_.xb.resize(static_cast<size_t>(m));
    for (int i = 0; i < m; ++i) {
      const LpConstraint& c = lp.constraints()[static_cast<size_t>(i)];
      const int slack = n + i;
      const double sign = c.sense == ConstraintSense::kGe ? -1.0 : 1.0;
      double* r = t_.row(i);
      for (const auto& [var, coeff] : c.terms) r[var] += sign * coeff;
      r[slack] = 1.0;
      r[t_.cols] = sign * c.rhs;
      if (c.sense == ConstraintSense::kEq) {
        t_.ub[static_cast<size_t>(slack)] = 0.0;
      }
      t_.basis[static_cast<size_t>(i)] = slack;
      t_.row_of[static_cast<size_t>(slack)] = i;
    }
  }

  // Sets the basic values from the transformed rhs, x_B = B^-1 b -
  // B^-1 N x_N, then runs dual pivots to optimality. Most nonbasic
  // variables sit at zero, so only the others are summed.
  void SolveFromBasis() {
    nz_.clear();
    for (int j = 0; j < t_.cols; ++j) {
      if (t_.row_of[static_cast<size_t>(j)] < 0 && t_.value(j) != 0.0) {
        nz_.push_back(j);
      }
    }
    for (int i = 0; i < t_.m; ++i) {
      const double* r = t_.row(i);
      double v = r[t_.cols];
      for (int j : nz_) v -= r[j] * t_.value(j);
      t_.xb[static_cast<size_t>(i)] = v;
    }
    Status st = Dual();
    if (st.ok()) {
      Extract();
    } else {
      sol_.status = std::move(st);
    }
  }

  // Iteration budget and deadline, checked before every pivot.
  Status Poll() const {
    if (sol_.iterations >= opt_.max_iterations) {
      return Status::Timeout("simplex iteration budget exhausted");
    }
    if (opt_.control != nullptr && sol_.iterations % kControlStride == 0 &&
        opt_.control->ExpiredNow()) {
      return opt_.control->Check();
    }
    return Status::OK();
  }

  // Dual simplex from a dual-feasible basis: repairs the most violated
  // basic bound (Bland: the smallest violated basic variable) per pivot.
  Status Dual() {
    int stall = 0;
    while (true) {
      Status st = Poll();
      if (!st.ok()) return st;
      const bool bland = stall >= opt_.bland_threshold;
      int r = -1;
      double worst = opt_.eps;
      for (int i = 0; i < t_.m; ++i) {
        const int b = t_.basis[static_cast<size_t>(i)];
        const double x = t_.xb[static_cast<size_t>(i)];
        const double violation = std::max(t_.lb[static_cast<size_t>(b)] - x,
                                          x - t_.ub[static_cast<size_t>(b)]);
        if (violation <= opt_.eps) continue;
        if (bland ? r < 0 || b < t_.basis[static_cast<size_t>(r)]
                  : violation > worst) {
          r = i;
          worst = violation;
        }
      }
      if (r < 0) return Status::OK();  // primal feasible: optimal

      const int left = t_.basis[static_cast<size_t>(r)];
      const bool raise =
          t_.xb[static_cast<size_t>(r)] < t_.lb[static_cast<size_t>(left)];
      const double target = raise ? t_.lb[static_cast<size_t>(left)]
                                  : t_.ub[static_cast<size_t>(left)];
      // Entering column: among the nonbasic variables whose move pushes the
      // leaving one toward `target`, the smallest |d_j / alpha_j| keeps
      // every reduced cost's sign. Ties: the largest pivot (Bland: the
      // first column).
      const double* prow = t_.row(r);
      int enter = -1;
      double best_ratio = kInf;
      double best_alpha = 0.0;
      for (int j = 0; j < t_.cols; ++j) {
        if (t_.row_of[static_cast<size_t>(j)] >= 0 ||
            t_.lb[static_cast<size_t>(j)] == t_.ub[static_cast<size_t>(j)]) {
          continue;
        }
        const double alpha = prow[j];
        if (std::abs(alpha) <= opt_.eps) continue;
        const double dir = t_.at_upper[static_cast<size_t>(j)] ? -1.0 : 1.0;
        // x_r moves by -alpha * dir per unit the entering variable moves.
        const double move = -alpha * dir;
        if (raise ? move <= 0 : move >= 0) continue;
        const double ratio =
            std::max(0.0, dir * t_.d[static_cast<size_t>(j)]) / std::abs(alpha);
        if (ratio < best_ratio - opt_.eps ||
            (!bland && ratio <= best_ratio + opt_.eps &&
             std::abs(alpha) > std::abs(best_alpha))) {
          enter = j;
          best_ratio = ratio;
          best_alpha = alpha;
        }
      }
      if (enter < 0) {
        return Status::Infeasible("dual simplex: a bound cannot be met");
      }

      const double dx = (t_.xb[static_cast<size_t>(r)] - target) / best_alpha;
      const double entering_value = t_.value(enter) + dx;
      for (int i = 0; i < t_.m; ++i) {
        t_.xb[static_cast<size_t>(i)] -= dx * t_.row(i)[enter];
      }
      if (t_.d[static_cast<size_t>(enter)] * dx > opt_.eps) {
        stall = 0;
      } else {
        ++stall;
      }
      Pivot(r, enter);
      t_.xb[static_cast<size_t>(r)] = entering_value;
      t_.at_upper[static_cast<size_t>(left)] = raise ? 0 : 1;
      ++sol_.iterations;
    }
  }

  // Makes column `enter` basic in row `r`. Only the pivot row's nonzero
  // columns change, so the elimination walks that index list.
  void Pivot(int r, int enter) {
    double* prow = t_.row(r);
    const double inv = 1.0 / prow[enter];
    nz_.clear();
    for (int k = 0; k < t_.width; ++k) {
      if (prow[k] != 0.0) {
        prow[k] *= inv;
        nz_.push_back(k);
      }
    }
    prow[enter] = 1.0;  // exact
    for (int i = 0; i < t_.m; ++i) {
      if (i == r) continue;
      double* row = t_.row(i);
      const double f = row[enter];
      if (f == 0.0) continue;
      for (int k : nz_) row[k] -= f * prow[k];
      row[enter] = 0.0;
    }
    const double f = t_.d[static_cast<size_t>(enter)];
    if (f != 0.0) {
      for (int k : nz_) {
        if (k < t_.cols) t_.d[static_cast<size_t>(k)] -= f * prow[k];
      }
      t_.d[static_cast<size_t>(enter)] = 0.0;
    }
    t_.row_of[static_cast<size_t>(t_.basis[static_cast<size_t>(r)])] = -1;
    t_.basis[static_cast<size_t>(r)] = enter;
    t_.row_of[static_cast<size_t>(enter)] = r;
  }

  // Structural values (basic ones clamped into their box against pivoting
  // dust) and their objective.
  void Extract() {
    sol_.x.assign(static_cast<size_t>(t_.n), 0.0);
    sol_.objective = 0.0;
    for (int v = 0; v < t_.n; ++v) {
      const int r = t_.row_of[static_cast<size_t>(v)];
      double x = t_.value(v);
      if (r >= 0) {
        x = std::min(std::max(t_.xb[static_cast<size_t>(r)],
                              t_.lb[static_cast<size_t>(v)]),
                     t_.ub[static_cast<size_t>(v)]);
      }
      sol_.x[static_cast<size_t>(v)] = x;
      sol_.objective += t_.cost[static_cast<size_t>(v)] * x;
    }
    sol_.status = Status::OK();
  }

  Tableau& t_;
  const SimplexOptions& opt_;
  LpSolution& sol_;
  std::vector<int> nz_;  // pivot-row nonzeros / nonzero nonbasic columns
};

}  // namespace

LpSolution SolveLp(const LinearProgram& lp, const SimplexOptions& options) {
  LpSolution solution;
  Tableau tableau;
  Simplex(&tableau, options, &solution).SolveCold(lp);
  return solution;
}

SolvedLp::SolvedLp() = default;

SolvedLp::SolvedLp(const LinearProgram& lp, const SimplexOptions& options)
    : tableau_(std::make_unique<Tableau>()) {
  Simplex(tableau_.get(), options, &solution_).SolveCold(lp);
}

SolvedLp::SolvedLp(SolvedLp&& other) noexcept = default;
SolvedLp& SolvedLp::operator=(SolvedLp&& other) noexcept = default;
SolvedLp::~SolvedLp() = default;

const LpSolution& ResolveLp(const SolvedLp& solved,
                            const std::vector<double>& lb,
                            const std::vector<double>& ub,
                            const SimplexOptions& options, SolvedLp* work) {
  LpSolution& solution = work->solution_;
  solution.x.clear();
  solution.objective = 0.0;
  solution.iterations = 0;
  if (solved.tableau_ == nullptr || !solved.solution_.status.ok()) {
    solution.status = Status::InvalidArgument("re-solve needs an optimal LP");
    return solution;
  }
  const Tableau& root = *solved.tableau_;
  if (lb.size() != static_cast<size_t>(root.n) ||
      ub.size() != static_cast<size_t>(root.n)) {
    solution.status = Status::InvalidArgument("box size differs from the LP");
    return solution;
  }
  for (size_t v = 0; v < lb.size(); ++v) {
    if (lb[v] < root.lb[v] || ub[v] > root.ub[v]) {
      solution.status =
          Status::InvalidArgument("box must lie within the solved bounds");
      return solution;
    }
  }
  for (size_t v = 0; v < lb.size(); ++v) {
    if (lb[v] > ub[v]) {
      solution.status = Status::Infeasible("empty variable box");
      return solution;
    }
  }
  if (work->tableau_ == nullptr) {
    work->tableau_ = std::make_unique<Tableau>(root);
  } else {
    *work->tableau_ = root;  // vector assignment keeps the buffers
  }
  Simplex(work->tableau_.get(), options, &solution).Resolve(lb, ub);
  return solution;
}

}  // namespace provview
