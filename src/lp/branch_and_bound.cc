#include "lp/branch_and_bound.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <utility>

#include "common/task_graph.h"

namespace provview {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// One open subtree: the branching path as (var, lb, ub) tightenings over
// the base LP, the parent relaxation objective (its proven lower bound),
// and a deterministic creation id used for tie-breaking so the traversal
// order never depends on scheduling.
struct Node {
  std::vector<std::tuple<int, double, double>> bounds;
  double bound = -kInf;
  int64_t id = 0;
};

// Best-bound ordering: smallest bound first, then oldest id. std::*_heap
// keeps the *largest* element first, so the comparator is reversed.
struct WorseThan {
  bool operator()(const Node& a, const Node& b) const {
    if (a.bound != b.bound) return a.bound > b.bound;
    return a.id > b.id;
  }
};

// What resolving one node established. Produced (possibly concurrently)
// during a wave's resolve phase from state frozen at the wave boundary;
// consumed sequentially in pop order by the merge phase.
struct Outcome {
  enum Kind {
    kClosed,     // pruned / infeasible: subtree contains nothing better
    kCandidate,  // integral point (or oracle-resolved box optimum)
    kBranch,     // fractional relaxation: split on branch_var
    kError,      // solver failure / tripped control
  };
  Kind kind = Kind::kClosed;
  bool done = false;          // resolve ran to completion (vs. skipped)
  bool lp_solved = false;
  int64_t lp_iterations = 0;  // simplex pivots of this node's solve
  bool oracle_closed = false;
  std::vector<double> x;      // kCandidate
  double objective = kInf;    // kCandidate
  int branch_var = -1;        // kBranch
  double branch_val = 0.0;    // kBranch
  double relax_obj = 0.0;     // kBranch
  Status error;               // kError
};

class Engine {
 public:
  Engine(const LinearProgram& lp, const std::vector<int>& integer_vars,
         const SolvedLp& root, const BnbOptions& options)
      : lp_(lp), ivars_(integer_vars), root_(root), opt_(options) {
    simplex_ = opt_.simplex;
    if (simplex_.control == nullptr) simplex_.control = opt_.control;
    base_lb_.resize(static_cast<size_t>(lp.num_vars()));
    base_ub_.resize(static_cast<size_t>(lp.num_vars()));
    for (int v = 0; v < lp.num_vars(); ++v) {
      base_lb_[static_cast<size_t>(v)] = lp.lower_bound(v);
      base_ub_[static_cast<size_t>(v)] = lp.upper_bound(v);
    }
  }

  BnbResult Run() {
    best_obj_ = opt_.warm_objective;
    Push(Node{{}, -kInf, next_id_++});

    const int buckets =
        std::max(1, std::min(opt_.num_threads, std::max(1, opt_.wave_width)));
    work_.resize(static_cast<size_t>(buckets));
    const EngineExecutor executor(opt_.executor, buckets);

    std::vector<Node> wave;
    std::vector<Outcome> outcomes;
    while (!open_.empty()) {
      if (opt_.control != nullptr && opt_.control->ExpiredNow()) {
        return Finish(opt_.control->Check(), /*unmerged=*/{});
      }
      // ---- Pop a wave. The wave's width never depends on num_threads, so
      // the explored tree is a function of the options alone. ----
      wave.clear();
      while (!open_.empty() &&
             static_cast<int>(wave.size()) < std::max(1, opt_.wave_width)) {
        if (result_.nodes_explored >= opt_.max_nodes) {
          // Nodes already popped into this partial wave are unexplored:
          // hand them to Finish so their bounds stay in the gap.
          return Finish(Status::Timeout("node budget exhausted"), wave);
        }
        wave.push_back(Pop());
        ++result_.nodes_explored;
      }

      // ---- Resolve phase: pure function of (node, wave-start incumbent).
      // Safe to shard: no resolve reads anything a concurrent resolve
      // writes. ----
      const double frozen_best = best_obj_;
      outcomes.assign(wave.size(), Outcome{});
      Status wave_status = Status::OK();
      if (buckets <= 1 || wave.size() <= 1) {
        for (size_t i = 0; i < wave.size(); ++i) {
          Resolve(wave[i], frozen_best, /*bucket=*/0, &outcomes[i]);
        }
      } else {
        TaskGraph graph;
        for (int b = 0; b < buckets; ++b) {
          graph.Add([this, b, buckets, frozen_best, &wave, &outcomes] {
            for (size_t i = static_cast<size_t>(b); i < wave.size();
                 i += static_cast<size_t>(buckets)) {
              Resolve(wave[i], frozen_best, b, &outcomes[i]);
            }
          });
        }
        wave_status = graph.Run(executor.get(), opt_.control);
      }

      // ---- Merge phase: sequential, in pop order. The only place the
      // incumbent and the open queue change. ----
      for (size_t i = 0; i < wave.size(); ++i) {
        Outcome& out = outcomes[i];
        if (!out.done) {
          // The resolve was skipped (tripped control) or died: this
          // subtree — and everything after it in the wave — is still open.
          Status st = !wave_status.ok()
                          ? wave_status
                          : (opt_.control != nullptr
                                 ? opt_.control->Check()
                                 : Status::Internal("wave resolve skipped"));
          if (st.ok()) st = Status::Internal("wave resolve skipped");
          return Finish(st, {wave.begin() + static_cast<long>(i), wave.end()});
        }
        result_.lp_solves += out.lp_solved ? 1 : 0;
        result_.lp_iterations += out.lp_iterations;
        result_.oracle_fathoms += out.oracle_closed ? 1 : 0;
        switch (out.kind) {
          case Outcome::kClosed:
            break;
          case Outcome::kError:
            // The failed node's own subtree is unexplored too: keep it in
            // the open set for the lower-bound computation.
            return Finish(out.error,
                          {wave.begin() + static_cast<long>(i), wave.end()});
          case Outcome::kCandidate:
            if (out.objective < best_obj_) {
              best_obj_ = out.objective;
              result_.x = std::move(out.x);
            }
            break;
          case Outcome::kBranch: {
            // Re-check against the merged incumbent: an earlier node of
            // this wave may have improved it since the resolve froze.
            if (out.relax_obj >= best_obj_ - opt_.obj_eps) break;
            const Node& node = wave[i];
            const double val = out.branch_val;
            Node down{node.bounds, out.relax_obj, 0};
            down.bounds.emplace_back(out.branch_var, -kInf, std::floor(val));
            Node up{node.bounds, out.relax_obj, 0};
            up.bounds.emplace_back(out.branch_var, std::ceil(val), kInf);
            // Explore the branch closer to the fractional value first: it
            // gets the smaller id, the best-bound tie-break.
            bool down_first = val - std::floor(val) <= 0.5;
            Node& first = down_first ? down : up;
            Node& second = down_first ? up : down;
            first.id = next_id_++;
            second.id = next_id_++;
            Push(std::move(first));
            Push(std::move(second));
            break;
          }
        }
      }
    }
    return Finish(Status::OK(), /*unmerged=*/{});
  }

 private:
  void Push(Node node) {
    open_.push_back(std::move(node));
    std::push_heap(open_.begin(), open_.end(), WorseThan{});
  }

  Node Pop() {
    std::pop_heap(open_.begin(), open_.end(), WorseThan{});
    Node node = std::move(open_.back());
    open_.pop_back();
    return node;
  }

  // Resolves one node against the wave-start incumbent `frozen_best`.
  // Reads only immutable engine state (root_ included) plus its own
  // bucket's re-solve buffer.
  void Resolve(const Node& node, double frozen_best, int bucket,
               Outcome* out) {
    out->done = true;  // overwritten fields below; kind defaults to closed
    if (node.bound >= frozen_best - opt_.obj_eps) return;  // cannot beat it

    // Effective box: base bounds tightened along the branching path.
    std::vector<double> lb = base_lb_;
    std::vector<double> ub = base_ub_;
    for (const auto& [var, blb, bub] : node.bounds) {
      double& lo = lb[static_cast<size_t>(var)];
      double& hi = ub[static_cast<size_t>(var)];
      lo = std::max(lo, blb);
      hi = std::min(hi, bub);
      if (lo > hi) return;  // empty box: closed without any solve
    }

    if (opt_.oracle) {
      BnbNodeCut cut = opt_.oracle(lb, ub);
      if (cut.infeasible) {
        out->oracle_closed = true;
        return;
      }
      if (cut.resolved) {
        out->oracle_closed = true;
        if (cut.objective >= frozen_best - opt_.obj_eps) return;
        out->kind = Outcome::kCandidate;
        out->x = std::move(cut.x);
        out->objective = cut.objective;
        return;
      }
      if (cut.lower_bound >= frozen_best - opt_.obj_eps) {
        out->oracle_closed = true;
        return;
      }
    }

    // The root node takes the caller's cold-solved root as is; every other
    // node re-solves it, in its bucket's buffer, under the node's box with
    // dual pivots. A node never starts from whatever its bucket solved
    // last, so its outcome depends on the node alone.
    const LpSolution& relax =
        node.bounds.empty()
            ? root_.solution()
            : ResolveLp(root_, lb, ub, simplex_,
                        &work_[static_cast<size_t>(bucket)]);
    out->lp_solved = true;
    out->lp_iterations = relax.iterations;
    if (relax.status.code() == StatusCode::kInfeasible) return;
    if (!relax.status.ok()) {
      out->kind = Outcome::kError;
      out->error = relax.status;
      return;
    }
    if (relax.objective >= frozen_best - opt_.obj_eps) return;

    // Branching variable: fractionality weighted by the objective
    // coefficient (fixing an expensive variable moves the child bounds
    // furthest). Deterministic: first maximum in variable order.
    int branch_var = -1;
    double best_score = -1.0;
    for (int v : ivars_) {
      double value = relax.x[static_cast<size_t>(v)];
      double frac = value - std::floor(value);
      double dist = std::min(frac, 1.0 - frac);
      if (dist <= opt_.int_tol) continue;
      const double score =
          dist * std::max(std::abs(lp_.objective_coeff(v)), 1e-3);
      if (score > best_score) {
        best_score = score;
        branch_var = v;
      }
    }
    if (branch_var < 0) {
      // Integral: candidate incumbent. Round integer vars exactly.
      std::vector<double> x = relax.x;
      for (int v : ivars_) {
        x[static_cast<size_t>(v)] = std::round(x[static_cast<size_t>(v)]);
      }
      out->kind = Outcome::kCandidate;
      out->objective = lp_.Objective(x);
      out->x = std::move(x);
      return;
    }
    out->kind = Outcome::kBranch;
    out->branch_var = branch_var;
    out->branch_val = relax.x[static_cast<size_t>(branch_var)];
    out->relax_obj = relax.objective;
  }

  // Assembles the result: incumbent, proven lower bound over everything
  // still open (the queue plus any wave nodes the stop left unmerged), and
  // the gap. `stop` is OK only when the search ran to completion.
  BnbResult Finish(Status stop, std::vector<Node> unmerged) {
    const bool have = std::isfinite(best_obj_);
    result_.objective = best_obj_;
    if (stop.ok()) {
      result_.status = have ? Status::OK()
                            : Status::Infeasible("no integral solution");
      result_.lower_bound = best_obj_;  // +inf when proven infeasible
      result_.gap = 0.0;
      return std::move(result_);
    }
    double open_lb = kInf;
    for (const Node& n : open_) open_lb = std::min(open_lb, n.bound);
    for (const Node& n : unmerged) open_lb = std::min(open_lb, n.bound);
    // optimum = min(incumbent, best open subtree) >= min of their bounds.
    result_.lower_bound = open_lb == kInf ? best_obj_
                                          : std::min(best_obj_, open_lb);
    result_.gap = best_obj_ - result_.lower_bound;  // inf - (-inf) -> inf
    if (!std::isfinite(result_.gap)) result_.gap = kInf;
    result_.status = std::move(stop);
    return std::move(result_);
  }

  const LinearProgram& lp_;
  const std::vector<int>& ivars_;
  const SolvedLp& root_;  // optimal root tableau, read-only
  const BnbOptions& opt_;
  SimplexOptions simplex_;

  std::vector<double> base_lb_, base_ub_;
  // Re-solve buffer, one per bucket: a node's basis state and eta file
  // over the root's shared tableau.
  std::vector<SolvedLp> work_;
  std::vector<Node> open_;  // best-bound heap
  int64_t next_id_ = 0;
  double best_obj_ = kInf;
  BnbResult result_;
};

}  // namespace

BnbResult SolveIlp(const LinearProgram& lp,
                   const std::vector<int>& integer_vars,
                   const BnbOptions& options) {
  SimplexOptions simplex = options.simplex;
  if (simplex.control == nullptr) simplex.control = options.control;
  return SolveIlp(lp, integer_vars, SolvedLp(lp, simplex), options);
}

BnbResult SolveIlp(const LinearProgram& lp,
                   const std::vector<int>& integer_vars, const SolvedLp& root,
                   const BnbOptions& options) {
  return Engine(lp, integer_vars, root, options).Run();
}

}  // namespace provview
