#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

namespace provview {

namespace lp_internal {

// Dense tableau B^-1 [A | S | b] over m rows, flat and row-major, at the
// basis B a cold solve ended in. Columns: [0, n) structural variables,
// [n, n + m) one slack per row (bounds [0, inf), or [0, 0] on = rows; a >=
// row is negated into a <= row, so every slack has coefficient +1), then
// the transformed rhs. A cold solve eliminates in place on the tableau it
// owns; once it returns, the tableau is read-only and shared by every state
// re-solved from it.
struct Tableau {
  int n = 0;      // structural variables
  int m = 0;      // rows
  int cols = 0;   // n + m priced columns
  int width = 0;  // cols + 1: the last column is B^-1 b
  std::vector<double> tab;   // m x width
  std::vector<double> cost;  // objective coefficient of each structural

  double* row(int i) { return tab.data() + static_cast<size_t>(i) * width; }
  const double* row(int i) const {
    return tab.data() + static_cast<size_t>(i) * width;
  }
};

// A basis over a shared root tableau: the root's own basis followed by k
// pivots kept as an eta file (the product form of the inverse). The current
// inverse is E_k ... E_1 times the root's B^-1, where E_t is the identity
// with column eta_row[t] replaced by eta column t. A cold solve's state has
// no etas. Everything but the root is O(m + n), plus m doubles per eta.
struct LpState {
  std::shared_ptr<const Tableau> root;
  std::vector<double> d;         // reduced cost of each column
  std::vector<double> lb, ub;    // bounds of each column
  std::vector<int> basis;        // basic variable of each row
  std::vector<int> row_of;       // basis row of each column, -1 if nonbasic
  std::vector<uint8_t> at_upper; // nonbasic column sits at its upper bound
  std::vector<double> xb;        // value of each row's basic variable
  std::vector<double> eta;       // k x m, flat: eta column t at t * m
  std::vector<int> eta_row;      // pivot row of each eta

  // Value of a nonbasic column.
  double value(int j) const {
    return at_upper[static_cast<size_t>(j)] ? ub[static_cast<size_t>(j)]
                                            : lb[static_cast<size_t>(j)];
  }
};

}  // namespace lp_internal

namespace {

using lp_internal::LpState;
using lp_internal::Tableau;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Pivots between deadline polls: each pivot is already O(rows·cols), so a
// small stride keeps service-mode LP solves responsive without measurable
// overhead.
constexpr int kControlStride = 16;

class Simplex {
 public:
  Simplex(LpState* state, const SimplexOptions& options, LpSolution* solution)
      : s_(*state), opt_(options), sol_(*solution) {}

  // Builds the slack-basis tableau of `lp` with every structural variable
  // at the bound its cost prefers. Every variable is boxed, so that basis
  // is dual feasible and the dual simplex solves the LP from it, pivoting
  // in place on the tableau this state then owns.
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
    auto tableau = std::make_shared<Tableau>();
    cold_ = tableau.get();
    s_.root = std::move(tableau);
    Build(lp);
    // x_B = B^-1 b - B^-1 N x_N. Most nonbasic variables sit at zero, so
    // only the others are summed.
    nz_.clear();
    for (int j = 0; j < cold_->cols; ++j) {
      if (s_.row_of[static_cast<size_t>(j)] < 0 && s_.value(j) != 0.0) {
        nz_.push_back(j);
      }
    }
    for (int i = 0; i < cold_->m; ++i) {
      const double* r = cold_->row(i);
      double v = r[cold_->cols];
      for (int j : nz_) v -= r[j] * s_.value(j);
      s_.xb[static_cast<size_t>(i)] = v;
    }
    Finish(Dual());
  }

  // Installs the box [lb, ub] on the structural variables of an optimal
  // state and restores primal feasibility with dual pivots. The basis
  // stays dual feasible: every nonbasic variable keeps the bound it sits
  // at, and only that bound's value moves, so the basic values move by
  // that variable's column times the shift.
  void Resolve(const std::vector<double>& lb, const std::vector<double>& ub) {
    for (int v = 0; v < s_.root->n; ++v) {
      const size_t k = static_cast<size_t>(v);
      const double before = s_.value(v);
      s_.lb[k] = lb[k];
      s_.ub[k] = ub[k];
      const double shift = s_.value(v) - before;
      if (s_.row_of[k] >= 0 || shift == 0.0) continue;
      Column(v);
      for (size_t i = 0; i < s_.xb.size(); ++i) s_.xb[i] -= shift * col_[i];
    }
    Finish(Dual());
  }

 private:
  // Fills the tableau at the slack basis, each row scaled so its slack has
  // coefficient +1, with every structural variable nonbasic at its lower
  // bound, or at its upper bound when its cost is negative.
  void Build(const LinearProgram& lp) {
    Tableau& t = *cold_;
    const int n = lp.num_vars();
    const int m = lp.num_constraints();
    t.n = n;
    t.m = m;
    t.cols = n + m;
    t.width = t.cols + 1;
    t.tab.assign(static_cast<size_t>(m) * static_cast<size_t>(t.width), 0.0);
    t.cost.resize(static_cast<size_t>(n));
    s_.d.assign(static_cast<size_t>(t.cols), 0.0);
    s_.lb.assign(static_cast<size_t>(t.cols), 0.0);
    s_.ub.assign(static_cast<size_t>(t.cols), kInf);
    s_.at_upper.assign(static_cast<size_t>(t.cols), 0);
    for (int v = 0; v < n; ++v) {
      const double c = lp.objective_coeff(v);
      t.cost[static_cast<size_t>(v)] = c;
      s_.d[static_cast<size_t>(v)] = c;
      s_.lb[static_cast<size_t>(v)] = lp.lower_bound(v);
      s_.ub[static_cast<size_t>(v)] = lp.upper_bound(v);
      s_.at_upper[static_cast<size_t>(v)] = c < 0.0 ? 1 : 0;
    }
    s_.basis.resize(static_cast<size_t>(m));
    s_.row_of.assign(static_cast<size_t>(t.cols), -1);
    s_.xb.resize(static_cast<size_t>(m));
    s_.eta.clear();
    s_.eta_row.clear();
    for (int i = 0; i < m; ++i) {
      const LpConstraint& c = lp.constraints()[static_cast<size_t>(i)];
      const int slack = n + i;
      const double sign = c.sense == ConstraintSense::kGe ? -1.0 : 1.0;
      double* r = t.row(i);
      for (const auto& [var, coeff] : c.terms) r[var] += sign * coeff;
      r[slack] = 1.0;
      r[t.cols] = sign * c.rhs;
      if (c.sense == ConstraintSense::kEq) {
        s_.ub[static_cast<size_t>(slack)] = 0.0;
      }
      s_.basis[static_cast<size_t>(i)] = slack;
      s_.row_of[static_cast<size_t>(slack)] = i;
    }
  }

  // The solution on OK, else the failed loop's status.
  void Finish(Status st) {
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
    const int m = s_.root->m;
    int stall = 0;
    while (true) {
      Status st = Poll();
      if (!st.ok()) return st;
      const bool bland = stall >= opt_.bland_threshold;
      int r = -1;
      double worst = opt_.eps;
      for (int i = 0; i < m; ++i) {
        const int b = s_.basis[static_cast<size_t>(i)];
        const double x = s_.xb[static_cast<size_t>(i)];
        const double violation = std::max(s_.lb[static_cast<size_t>(b)] - x,
                                          x - s_.ub[static_cast<size_t>(b)]);
        if (violation <= opt_.eps) continue;
        if (bland ? r < 0 || b < s_.basis[static_cast<size_t>(r)]
                  : violation > worst) {
          r = i;
          worst = violation;
        }
      }
      if (r < 0) return Status::OK();  // primal feasible: optimal

      const int left = s_.basis[static_cast<size_t>(r)];
      const bool raise =
          s_.xb[static_cast<size_t>(r)] < s_.lb[static_cast<size_t>(left)];
      const double target = raise ? s_.lb[static_cast<size_t>(left)]
                                  : s_.ub[static_cast<size_t>(left)];
      // Entering column: among the nonbasic variables whose move pushes the
      // leaving one toward `target`, the smallest |d_j / alpha_j| keeps
      // every reduced cost's sign. Ties: the largest pivot (Bland: the
      // first column).
      const double* prow = PivotRow(r);
      int enter = -1;
      double best_ratio = kInf;
      double best_alpha = 0.0;
      for (int j : nz_) {
        if (s_.row_of[static_cast<size_t>(j)] >= 0 ||
            s_.lb[static_cast<size_t>(j)] == s_.ub[static_cast<size_t>(j)]) {
          continue;
        }
        const double alpha = prow[j];
        if (std::abs(alpha) <= opt_.eps) continue;
        const double dir = s_.at_upper[static_cast<size_t>(j)] ? -1.0 : 1.0;
        // x_r moves by -alpha * dir per unit the entering variable moves.
        const double move = -alpha * dir;
        if (raise ? move <= 0 : move >= 0) continue;
        const double ratio =
            std::max(0.0, dir * s_.d[static_cast<size_t>(j)]) / std::abs(alpha);
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

      Column(enter);
      const double dx = (s_.xb[static_cast<size_t>(r)] - target) / best_alpha;
      const double entering_value = s_.value(enter) + dx;
      for (int i = 0; i < m; ++i) {
        s_.xb[static_cast<size_t>(i)] -= dx * col_[static_cast<size_t>(i)];
      }
      if (s_.d[static_cast<size_t>(enter)] * dx > opt_.eps) {
        stall = 0;
      } else {
        ++stall;
      }
      if (cold_ != nullptr) {
        Eliminate(r, enter);
      } else {
        AppendEta(r, enter, prow);
      }
      s_.row_of[static_cast<size_t>(left)] = -1;
      s_.basis[static_cast<size_t>(r)] = enter;
      s_.row_of[static_cast<size_t>(enter)] = r;
      s_.xb[static_cast<size_t>(r)] = entering_value;
      s_.at_upper[static_cast<size_t>(left)] = raise ? 0 : 1;
      ++sol_.iterations;
    }
  }

  // Row r of the current tableau over the priced columns. Pivot rows are
  // sparse, so its nonzero columns are listed in nz_, in ascending order:
  // the ratio test and the pricing walk only those.
  const double* PivotRow(int r) {
    const double* row = cold_ != nullptr ? cold_->row(r) : EtaRow(r);
    nz_.clear();
    for (int j = 0; j < s_.root->cols; ++j) {
      if (row[j] != 0.0) nz_.push_back(j);
    }
    return row;
  }

  // e_r^T E_k ... E_1 T over the priced columns, where T is the root
  // tableau. Applying the etas last to first to e_r^T changes only each
  // eta's own row entry, so rho = e_r^T E_k ... E_1 has at most k + 1
  // nonzeros, and the row is that many root rows summed.
  const double* EtaRow(int r) {
    const Tableau& t = *s_.root;
    rho_.assign(static_cast<size_t>(t.m), 0.0);
    rho_[static_cast<size_t>(r)] = 1.0;
    rho_rows_.assign(1, r);
    for (size_t k = s_.eta_row.size(); k-- > 0;) {
      const double* e = s_.eta.data() + k * static_cast<size_t>(t.m);
      const int p = s_.eta_row[k];
      double dot = 0.0;
      for (int i : rho_rows_) dot += rho_[static_cast<size_t>(i)] * e[i];
      if (std::find(rho_rows_.begin(), rho_rows_.end(), p) ==
          rho_rows_.end()) {
        rho_rows_.push_back(p);
      }
      rho_[static_cast<size_t>(p)] = dot;
    }
    if (rho_rows_.size() == 1 && rho_[static_cast<size_t>(r)] == 1.0) {
      return t.row(r);
    }
    row_.assign(static_cast<size_t>(t.cols), 0.0);
    for (int i : rho_rows_) {
      const double w = rho_[static_cast<size_t>(i)];
      if (w == 0.0) continue;
      const double* src = t.row(i);
      for (int j = 0; j < t.cols; ++j) row_[static_cast<size_t>(j)] += w * src[j];
    }
    return row_.data();
  }

  // Column j of the current tableau into col_: the root column put
  // through the etas, first to last (a cold solve has none).
  void Column(int j) {
    const Tableau& t = *s_.root;
    col_.resize(static_cast<size_t>(t.m));
    for (int i = 0; i < t.m; ++i) col_[static_cast<size_t>(i)] = t.row(i)[j];
    for (size_t k = 0; k < s_.eta_row.size(); ++k) {
      const double* e = s_.eta.data() + k * static_cast<size_t>(t.m);
      const size_t p = static_cast<size_t>(s_.eta_row[k]);
      const double vp = col_[p];
      if (vp == 0.0) continue;
      col_[p] = 0.0;
      for (size_t i = 0; i < col_.size(); ++i) col_[i] += e[i] * vp;
    }
  }

  // Cold solves: makes column `enter` basic in row `r` by elimination on
  // the owned tableau. Only the pivot row's nonzero columns (nz_, plus the
  // rhs) change, so the elimination walks that index list.
  void Eliminate(int r, int enter) {
    Tableau& t = *cold_;
    double* prow = t.row(r);
    const double inv = 1.0 / prow[enter];
    if (prow[t.cols] != 0.0) nz_.push_back(t.cols);
    for (int k : nz_) prow[k] *= inv;
    prow[enter] = 1.0;  // exact
    for (int i = 0; i < t.m; ++i) {
      if (i == r) continue;
      double* row = t.row(i);
      const double f = row[enter];
      if (f == 0.0) continue;
      for (int k : nz_) row[k] -= f * prow[k];
      row[enter] = 0.0;
    }
    const double f = s_.d[static_cast<size_t>(enter)];
    if (f != 0.0) {
      for (int k : nz_) {
        if (k < t.cols) s_.d[static_cast<size_t>(k)] -= f * prow[k];
      }
      s_.d[static_cast<size_t>(enter)] = 0.0;
    }
  }

  // Re-solves: makes column `enter` (in col_) basic in row `r` by appending
  // its eta, and prices out `enter` with the pre-pivot row `prow`. In that
  // row, the leaving column is 1 and every other basic column 0, so only
  // the nonbasic columns are updated, not the basic ones' pivoting dust.
  void AppendEta(int r, int enter, const double* prow) {
    const size_t m = col_.size();
    const double f = s_.d[static_cast<size_t>(enter)];
    if (f != 0.0) {
      const double inv = 1.0 / prow[enter];
      for (int j : nz_) {
        if (s_.row_of[static_cast<size_t>(j)] < 0) {
          s_.d[static_cast<size_t>(j)] -= f * (prow[j] * inv);
        }
      }
      s_.d[static_cast<size_t>(s_.basis[static_cast<size_t>(r)])] = -f * inv;
      s_.d[static_cast<size_t>(enter)] = 0.0;
    }
    const double inv = 1.0 / col_[static_cast<size_t>(r)];
    const size_t base = s_.eta.size();
    s_.eta.resize(base + m);
    for (size_t i = 0; i < m; ++i) s_.eta[base + i] = -col_[i] * inv;
    s_.eta[base + static_cast<size_t>(r)] = inv;
    s_.eta_row.push_back(r);
  }

  // Structural values (basic ones clamped into their box against pivoting
  // dust) and their objective.
  void Extract() {
    const Tableau& t = *s_.root;
    sol_.x.assign(static_cast<size_t>(t.n), 0.0);
    sol_.objective = 0.0;
    for (int v = 0; v < t.n; ++v) {
      const int r = s_.row_of[static_cast<size_t>(v)];
      double x = s_.value(v);
      if (r >= 0) {
        x = std::min(std::max(s_.xb[static_cast<size_t>(r)],
                              s_.lb[static_cast<size_t>(v)]),
                     s_.ub[static_cast<size_t>(v)]);
      }
      sol_.x[static_cast<size_t>(v)] = x;
      sol_.objective += t.cost[static_cast<size_t>(v)] * x;
    }
    sol_.status = Status::OK();
  }

  LpState& s_;
  Tableau* cold_ = nullptr;  // the tableau a cold solve owns and pivots
  const SimplexOptions& opt_;
  LpSolution& sol_;
  std::vector<int> nz_;         // pivot-row nonzeros / nonzero nonbasics
  std::vector<double> col_;     // the entering column
  std::vector<double> rho_;     // e_r^T E_k ... E_1, dense over rows
  std::vector<int> rho_rows_;   // rho_'s possibly nonzero rows
  std::vector<double> row_;     // a re-solve's pivot row
};

}  // namespace

LpSolution SolveLp(const LinearProgram& lp, const SimplexOptions& options) {
  LpSolution solution;
  LpState state;
  Simplex(&state, options, &solution).SolveCold(lp);
  return solution;
}

SolvedLp::SolvedLp() = default;

SolvedLp::SolvedLp(const LinearProgram& lp, const SimplexOptions& options)
    : state_(std::make_unique<LpState>()) {
  Simplex(state_.get(), options, &solution_).SolveCold(lp);
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
  if (solved.state_ == nullptr || !solved.solution_.status.ok()) {
    solution.status = Status::InvalidArgument("re-solve needs an optimal LP");
    return solution;
  }
  const LpState& source = *solved.state_;
  const size_t n = static_cast<size_t>(source.root->n);
  if (lb.size() != n || ub.size() != n) {
    solution.status = Status::InvalidArgument("box size differs from the LP");
    return solution;
  }
  for (size_t v = 0; v < n; ++v) {
    if (lb[v] < source.lb[v] || ub[v] > source.ub[v]) {
      solution.status =
          Status::InvalidArgument("box must lie within the solved bounds");
      return solution;
    }
  }
  for (size_t v = 0; v < n; ++v) {
    if (lb[v] > ub[v]) {
      solution.status = Status::Infeasible("empty variable box");
      return solution;
    }
  }
  if (work->state_ == nullptr) {
    work->state_ = std::make_unique<LpState>(source);
  } else if (work != &solved) {
    *work->state_ = source;  // vector assignment keeps the buffers
  }
  Simplex(work->state_.get(), options, &solution).Resolve(lb, ub);
  return solution;
}

}  // namespace provview
