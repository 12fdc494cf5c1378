#include "secureview/solvers.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>

#include "common/rng.h"
#include "secureview/bnb_oracle.h"
#include "secureview/feasibility.h"
#include "secureview/ilp_encoding.h"

namespace provview {

namespace {

SvResult MakeResult(const SecureViewInstance& inst,
                    SecureViewSolution solution) {
  SvResult result;
  result.cost = solution.TotalCost(inst);
  result.gap = result.cost;  // nothing proven: gap is the whole cost
  result.solution = std::move(solution);
  result.status = Status::OK();
  return result;
}

// Shared tail of both SolveExact overloads: decode the engine outcome,
// falling back to `warm` (the warm-start solution, if any) when the engine
// never beat it, and convert the engine's bound into a usable gap.
SvResult FinishExact(const SecureViewInstance& inst, const SvEncoding& enc,
                     BnbResult ilp, const SecureViewSolution* warm) {
  SvResult result;
  result.work = ilp.nodes_explored;
  result.status = ilp.status;
  if (!ilp.x.empty()) {
    result.solution = DecodeSolution(inst, enc, ilp.x);
  } else if (warm != nullptr && std::isfinite(ilp.objective)) {
    // Empty x with a finite objective: the warm solution was never beaten.
    result.solution = *warm;
  } else {
    // No feasible point at all (infeasible instance, or a trip before the
    // first incumbent).
    result.gap = std::numeric_limits<double>::infinity();
    return result;
  }
  PV_CHECK_MSG(IsFeasible(inst, result.solution),
               "exact ILP produced infeasible Secure-View solution");
  result.cost = result.solution.TotalCost(inst);
  if (ilp.status.ok()) {
    result.lower_bound = result.cost;
    result.gap = 0.0;
  } else {
    // Attribute and privatization costs are nonnegative, so 0 is always a
    // valid floor: the reported gap stays finite whenever an incumbent
    // exists, which is what makes a deadlined solve actionable.
    result.lower_bound = std::max(0.0, ilp.lower_bound);
    result.gap = result.cost - result.lower_bound;
  }
  return result;
}

// Steps 2–3 of Algorithm 1 over an optimal relaxation `lp` of `enc`: the
// rounding trials and their repair. `lower_bound` is the relaxation
// objective. Shared by SolveByLpRounding and SolveExact's warm start, which
// rounds the root it hands to the branch-and-bound.
SvResult RoundLpSolution(const SecureViewInstance& inst, const SvEncoding& enc,
                         const LpSolution& lp, const RoundingOptions& options) {
  SvResult result;
  result.lower_bound = lp.objective;

  const int n = std::max(2, inst.num_modules());
  const double log_n = std::log(static_cast<double>(n));
  Rng rng(options.seed);

  double best = std::numeric_limits<double>::infinity();
  SecureViewSolution best_sol;
  for (int trial = 0; trial < options.trials; ++trial) {
    if (options.control != nullptr && trial > 0 &&
        options.control->ExpiredNow()) {
      break;  // keep the best trial finished so far
    }
    // Step 2 of Algorithm 1: independent rounding with probability
    // min{1, scale · x_b · ln n}.
    Bitset64 hidden(inst.num_attrs);
    for (int b = 0; b < inst.num_attrs; ++b) {
      double xb = lp.x[static_cast<size_t>(enc.x_var[static_cast<size_t>(b)])];
      if (rng.NextBernoulli(std::min(1.0, options.scale * xb * log_n))) {
        hidden.Set(b);
      }
    }
    // Step 3: repair every unsatisfied module with its cheapest addition.
    for (int i : UnsatisfiedModules(inst, hidden)) {
      hidden |= CheapestSatisfyingAddition(inst, i, hidden);
      ++result.work;
    }
    SecureViewSolution sol = CompleteSolution(inst, hidden);
    PV_CHECK(IsFeasible(inst, sol));
    double cost = sol.TotalCost(inst);
    if (cost < best) {
      best = cost;
      best_sol = std::move(sol);
    }
  }
  result.solution = std::move(best_sol);
  result.cost = best;
  result.gap = best - result.lower_bound;
  result.status = Status::OK();
  return result;
}

}  // namespace

std::vector<int> UselessAttrs(const SecureViewInstance& inst) {
  std::vector<bool> used(static_cast<size_t>(inst.num_attrs), false);
  for (const SvModule& m : inst.modules) {
    if (m.is_public) continue;
    if (inst.kind == ConstraintKind::kSet) {
      for (const SetOption& o : m.set_options) {
        for (int a : o.hidden_inputs) used[static_cast<size_t>(a)] = true;
        for (int a : o.hidden_outputs) used[static_cast<size_t>(a)] = true;
      }
    } else {
      // Any input (output) may be picked to meet a positive alpha (beta).
      for (const CardOption& o : m.card_options) {
        if (o.alpha > 0) {
          for (int a : m.inputs) used[static_cast<size_t>(a)] = true;
        }
        if (o.beta > 0) {
          for (int a : m.outputs) used[static_cast<size_t>(a)] = true;
        }
      }
    }
  }
  std::vector<int> useless;
  for (int a = 0; a < inst.num_attrs; ++a) {
    if (!used[static_cast<size_t>(a)]) useless.push_back(a);
  }
  return useless;
}

SvResult SolveExact(const SecureViewInstance& inst,
                    const ExactOptions& options) {
  Bitset64 pinned(inst.num_attrs);
  for (int a : options.fix_visible) {
    if (a < 0 || a >= inst.num_attrs) {
      SvResult bad;
      bad.status = Status::InvalidArgument(
          "fixed attribute " + std::to_string(a) + " outside [0, " +
          std::to_string(inst.num_attrs) + ")");
      bad.gap = std::numeric_limits<double>::infinity();
      return bad;
    }
    pinned.Set(a);
  }
  SvEncoding enc = EncodeSecureView(inst);
  for (int a : options.fix_visible) {
    enc.lp.SetVarBounds(enc.x_var[static_cast<size_t>(a)], 0.0, 0.0);
  }
  BnbOptions bnb = options.bnb;
  if (!bnb.oracle) bnb.oracle = MakeSecureViewBnbOracle(&inst, &enc);
  // One cold solve of the pinned root relaxation serves both the rounding
  // leg of the warm start and the branch-and-bound's root node.
  SimplexOptions simplex = bnb.simplex;
  if (simplex.control == nullptr) simplex.control = bnb.control;
  const SolvedLp root(enc.lp, simplex);
  SecureViewSolution warm_sol;
  bool have_warm = false;
  if (options.warm_start) {
    // The greedy leg ignores `fix_visible`, and the rounding leg honours it
    // only in its rounding step (a pinned x_b is 0), not in its repair: a
    // candidate hiding a pinned attribute lies outside the search box, so
    // it may neither seed the incumbent nor bound the search.
    auto usable = [&pinned](const SvResult& r) {
      return r.status.ok() && !r.solution.hidden.Intersects(pinned);
    };
    // The greedy leg runs uncontrolled on purpose: it is linear in the
    // instance, and it is what guarantees a deadline-doomed solve still
    // returns a feasible incumbent (with gap = cost) instead of nothing.
    SvResult greedy = SolveGreedyPerModule(inst);
    if (usable(greedy)) {
      warm_sol = std::move(greedy.solution);
      bnb.warm_objective = std::min(bnb.warm_objective, greedy.cost);
      have_warm = true;
    }
    if (options.warm_rounding_trials > 0 && root.solution().status.ok()) {
      RoundingOptions ropt;
      ropt.trials = options.warm_rounding_trials;
      ropt.control = bnb.control;
      SvResult rounded = RoundLpSolution(inst, enc, root.solution(), ropt);
      if (usable(rounded) &&
          (!have_warm || rounded.cost < bnb.warm_objective)) {
        warm_sol = std::move(rounded.solution);
        bnb.warm_objective = rounded.cost;
        have_warm = true;
      }
    }
  }
  BnbResult ilp = SolveIlp(enc.lp, enc.integer_vars, root, bnb);
  return FinishExact(inst, enc, std::move(ilp),
                     have_warm ? &warm_sol : nullptr);
}

SvResult SolveExact(const SecureViewInstance& inst, const BnbOptions& options) {
  SvEncoding enc = EncodeSecureView(inst);
  BnbResult ilp = SolveIlp(enc.lp, enc.integer_vars, options);
  return FinishExact(inst, enc, std::move(ilp), /*warm=*/nullptr);
}

SvResult SolveBruteForce(const SecureViewInstance& inst,
                         const ExecControl* control) {
  // Only attributes that appear in some requirement option can help
  // satisfy modules; all others only add cost or force privatization.
  std::set<int> relevant_set;
  for (const SvModule& m : inst.modules) {
    if (m.is_public) continue;
    if (inst.kind == ConstraintKind::kCardinality) {
      // Any of the module's attributes may be used to meet (α, β).
      for (const CardOption& o : m.card_options) {
        if (o.alpha > 0) {
          relevant_set.insert(m.inputs.begin(), m.inputs.end());
        }
        if (o.beta > 0) {
          relevant_set.insert(m.outputs.begin(), m.outputs.end());
        }
      }
    } else {
      for (const SetOption& o : m.set_options) {
        relevant_set.insert(o.hidden_inputs.begin(), o.hidden_inputs.end());
        relevant_set.insert(o.hidden_outputs.begin(), o.hidden_outputs.end());
      }
    }
  }
  std::vector<int> relevant(relevant_set.begin(), relevant_set.end());
  const int k = static_cast<int>(relevant.size());
  SvResult result;
  if (k > kMaxBruteForceAttrs) {
    result.status = Status::InvalidArgument(
        "brute force limited to " + std::to_string(kMaxBruteForceAttrs) +
        " relevant attributes, instance has " + std::to_string(k));
    result.gap = std::numeric_limits<double>::infinity();
    return result;
  }

  double best = std::numeric_limits<double>::infinity();
  const uint64_t total = uint64_t{1} << k;
  for (uint64_t mask = 0; mask < total; ++mask) {
    if (control != nullptr && (mask & 0xFFFu) == 0 && control->ExpiredNow()) {
      result.status = control->Check();
      result.cost = best;
      result.gap = std::numeric_limits<double>::infinity();
      return result;
    }
    Bitset64 hidden(inst.num_attrs);
    for (int i = 0; i < k; ++i) {
      if ((mask >> i) & 1u) hidden.Set(relevant[static_cast<size_t>(i)]);
    }
    if (!UnsatisfiedModules(inst, hidden).empty()) continue;
    SecureViewSolution sol = CompleteSolution(inst, hidden);
    double cost = sol.TotalCost(inst);
    if (cost < best) {
      best = cost;
      result.solution = std::move(sol);
    }
    ++result.work;
  }
  if (best == std::numeric_limits<double>::infinity()) {
    result.status = Status::Infeasible("no subset satisfies all modules");
    return result;
  }
  result.cost = best;
  result.lower_bound = best;
  result.gap = 0.0;
  result.status = Status::OK();
  return result;
}

SvResult SolveByLpRounding(const SecureViewInstance& inst,
                           const RoundingOptions& options) {
  SvEncoding enc = EncodeSecureView(inst);
  SimplexOptions simplex = options.simplex;
  if (simplex.control == nullptr) simplex.control = options.control;
  LpSolution lp = SolveLp(enc.lp, simplex);
  if (!lp.status.ok()) {
    SvResult result;
    result.status = lp.status;
    result.gap = std::numeric_limits<double>::infinity();  // no solution
    return result;
  }
  return RoundLpSolution(inst, enc, lp, options);
}

SvResult SolveByThresholdRounding(const SecureViewInstance& inst,
                                  const SimplexOptions& options) {
  SvResult result;
  if (inst.kind != ConstraintKind::kSet) {
    result.status = Status::InvalidArgument(
        "threshold rounding targets set constraints");
    result.gap = std::numeric_limits<double>::infinity();
    return result;
  }
  SvEncoding enc = EncodeSecureView(inst);
  LpSolution lp = SolveLp(enc.lp, options);
  if (!lp.status.ok()) {
    result.status = lp.status;
    result.gap = std::numeric_limits<double>::infinity();  // no solution
    return result;
  }
  result.lower_bound = lp.objective;
  const int lmax = std::max(1, inst.MaxListLength());
  const double threshold = 1.0 / static_cast<double>(lmax) - 1e-7;
  result.solution = DecodeSolution(inst, enc, lp.x, threshold);
  PV_CHECK_MSG(IsFeasible(inst, result.solution),
               "threshold rounding produced infeasible solution");
  result.cost = result.solution.TotalCost(inst);
  result.gap = result.cost - result.lower_bound;
  result.work = lp.iterations;
  result.status = Status::OK();
  return result;
}

SvResult SolveGreedyPerModule(const SecureViewInstance& inst,
                              const ExecControl* control) {
  Bitset64 hidden(inst.num_attrs);
  for (int i : inst.PrivateModules()) {
    if (control != nullptr && control->ExpiredNow()) {
      SvResult result;
      result.status = control->Check();
      return result;
    }
    // The cheapest satisfying addition from an empty context is exactly the
    // module's cheapest option.
    hidden |= CheapestSatisfyingAddition(inst, i, Bitset64(inst.num_attrs));
  }
  PV_CHECK(UnsatisfiedModules(inst, hidden).empty());
  return MakeResult(inst, CompleteSolution(inst, hidden));
}

SvResult SolveGreedyCoverage(const SecureViewInstance& inst,
                             const ExecControl* control) {
  Bitset64 hidden(inst.num_attrs);
  SvResult result;
  std::vector<int> unsatisfied = UnsatisfiedModules(inst, hidden);
  while (!unsatisfied.empty()) {
    if (control != nullptr && control->ExpiredNow()) {
      result.status = control->Check();
      return result;
    }
    double best_ratio = std::numeric_limits<double>::infinity();
    Bitset64 best_addition(inst.num_attrs);
    std::set<int> before(RequiredPrivatizations(inst, hidden).begin(),
                         RequiredPrivatizations(inst, hidden).end());
    // Candidate moves: for every unsatisfied module, the cheapest
    // completion of EACH of its options (a shared expensive attribute can
    // beat a private cheap one once its coverage is counted — Example 5).
    for (int i : unsatisfied) {
      for (int j = 0; j < NumOptions(inst, i); ++j) {
        Bitset64 addition = CheapestAdditionForOption(inst, i, j, hidden);
        // Marginal cost: new attributes + newly forced privatizations.
        Bitset64 merged = hidden | addition;
        double marginal = inst.AttrCost(addition);
        for (int p : RequiredPrivatizations(inst, merged)) {
          if (before.count(p) == 0) {
            marginal +=
                inst.modules[static_cast<size_t>(p)].privatization_cost;
          }
        }
        int gained = 0;
        for (int u : unsatisfied) {
          if (ModuleSatisfied(inst, u, merged)) ++gained;
        }
        PV_CHECK(gained >= 1);
        double ratio = marginal / static_cast<double>(gained);
        if (ratio < best_ratio) {
          best_ratio = ratio;
          best_addition = addition;
        }
      }
    }
    hidden |= best_addition;
    ++result.work;
    unsatisfied = UnsatisfiedModules(inst, hidden);
  }
  SvResult final_result = MakeResult(inst, CompleteSolution(inst, hidden));
  final_result.work = result.work;
  return final_result;
}

}  // namespace provview
