#include "secureview/bnb_oracle.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "secureview/feasibility.h"

namespace provview {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Cheapest cost of completing option `option` of module `module` from the
// forced hidden set h1, using only attributes outside the forced visible
// set h0. +inf when the box rules the option out.
double OptionCompletionCost(const SecureViewInstance& inst, int module,
                            int option, const Bitset64& h1,
                            const Bitset64& h0) {
  const SvModule& m = inst.modules[static_cast<size_t>(module)];
  if (inst.kind == ConstraintKind::kSet) {
    const SetOption& o = m.set_options[static_cast<size_t>(option)];
    double cost = 0.0;
    for (const auto* side : {&o.hidden_inputs, &o.hidden_outputs}) {
      for (int a : *side) {
        if (h0.Test(a)) return kInf;  // a required attr is forced visible
        if (!h1.Test(a)) cost += inst.attr_cost[static_cast<size_t>(a)];
      }
    }
    return cost;
  }
  // Cardinality: need alpha hidden inputs and beta hidden outputs; take
  // the cheapest eligible attributes (exact for a single option).
  const CardOption& o = m.card_options[static_cast<size_t>(option)];
  auto side_cost = [&](const std::vector<int>& attrs, int need) -> double {
    int have = 0;
    std::vector<double> candidates;
    for (int a : attrs) {
      if (h1.Test(a)) {
        ++have;
      } else if (!h0.Test(a)) {
        candidates.push_back(inst.attr_cost[static_cast<size_t>(a)]);
      }
    }
    int missing = need - have;
    if (missing <= 0) return 0.0;
    if (missing > static_cast<int>(candidates.size())) return kInf;
    std::nth_element(candidates.begin(),
                     candidates.begin() + (missing - 1), candidates.end());
    double cost = 0.0;
    for (int k = 0; k < missing; ++k) cost += candidates[static_cast<size_t>(k)];
    return cost;
  };
  double in_cost = side_cost(m.inputs, o.alpha);
  if (in_cost == kInf) return kInf;
  double out_cost = side_cost(m.outputs, o.beta);
  if (out_cost == kInf) return kInf;
  return in_cost + out_cost;
}

BnbNodeCut Evaluate(const SecureViewInstance& inst, const SvEncoding& enc,
                    const std::vector<double>& lb,
                    const std::vector<double>& ub) {
  BnbNodeCut cut;
  Bitset64 h1(inst.num_attrs);  // forced hidden
  Bitset64 h0(inst.num_attrs);  // forced visible
  for (int a = 0; a < inst.num_attrs; ++a) {
    int v = enc.x_var[static_cast<size_t>(a)];
    if (lb[static_cast<size_t>(v)] > 0.5) h1.Set(a);
    if (ub[static_cast<size_t>(v)] < 0.5) h0.Set(a);
  }
  Bitset64 potential = Bitset64::All(inst.num_attrs);
  for (int a : h0.ToVector()) potential.Reset(a);

  // Per unsatisfied module: its cheapest completion cost and its payment
  // universe — every attribute a completion of any option could still pay
  // for (outside the forced hidden set, whose cost is already in
  // forced_cost). Modules whose universes are pairwise DISJOINT cannot
  // share a single hidden attribute, so their cheapest completions SUM to
  // a valid lower bound — far stronger on wide layered workflows than the
  // max over modules (the packing's first pick), which is all that is
  // sound for overlapping universes.
  struct Unsat {
    int module;
    double cheapest;
    Bitset64 universe;
  };
  std::vector<Unsat> unsat;
  bool all_satisfied = true;
  for (int i = 0; i < inst.num_modules(); ++i) {
    const SvModule& m = inst.modules[static_cast<size_t>(i)];
    if (m.is_public) continue;
    if (ModuleSatisfied(inst, i, h1)) continue;
    all_satisfied = false;
    // Monotonicity: a module unsatisfiable by every non-forced-visible
    // attribute is unsatisfiable by any hidden set inside the box.
    if (!ModuleSatisfied(inst, i, potential)) {
      cut.infeasible = true;
      return cut;
    }
    Unsat u;
    u.module = i;
    u.cheapest = kInf;
    u.universe = Bitset64(inst.num_attrs);
    for (int j = 0; j < NumOptions(inst, i); ++j) {
      double c = OptionCompletionCost(inst, i, j, h1, h0);
      if (c == kInf) continue;
      u.cheapest = std::min(u.cheapest, c);
      if (inst.kind == ConstraintKind::kSet) {
        const SetOption& o = m.set_options[static_cast<size_t>(j)];
        for (const auto* side : {&o.hidden_inputs, &o.hidden_outputs}) {
          for (int a : *side) {
            if (!h1.Test(a)) u.universe.Set(a);
          }
        }
      }
    }
    if (u.cheapest == kInf) {
      cut.infeasible = true;
      return cut;
    }
    if (inst.kind == ConstraintKind::kCardinality) {
      // Any non-forced input/output may be picked to meet a count.
      for (const auto* side : {&m.inputs, &m.outputs}) {
        for (int a : *side) {
          if (!h1.Test(a) && !h0.Test(a)) u.universe.Set(a);
        }
      }
    }
    unsat.push_back(std::move(u));
  }
  // Greedy packing, most expensive module first (deterministic: stable
  // sort, ties by module index from construction order).
  std::stable_sort(unsat.begin(), unsat.end(),
                   [](const Unsat& a, const Unsat& b) {
                     return a.cheapest > b.cheapest;
                   });
  double packed_completion = 0.0;
  Bitset64 packed_attrs(inst.num_attrs);
  for (const Unsat& u : unsat) {
    if (u.universe.Intersects(packed_attrs)) continue;
    packed_completion += u.cheapest;
    packed_attrs |= u.universe;
  }

  // Privatizations forced by the box: a hidden attribute adjacent to a
  // public module forces its w (coupling w_i >= x_b), and the box may pin
  // w directly. A pinned-zero w clashing with a forced privatization makes
  // the box empty.
  double forced_cost = inst.AttrCost(h1);
  std::vector<bool> forced_w(static_cast<size_t>(inst.num_modules()), false);
  for (int i : RequiredPrivatizations(inst, h1)) {
    forced_w[static_cast<size_t>(i)] = true;
  }
  for (int i = 0; i < inst.num_modules(); ++i) {
    int w = enc.w_var[static_cast<size_t>(i)];
    if (w < 0) continue;
    if (forced_w[static_cast<size_t>(i)] && ub[static_cast<size_t>(w)] < 0.5) {
      cut.infeasible = true;
      return cut;
    }
    if (lb[static_cast<size_t>(w)] > 0.5) forced_w[static_cast<size_t>(i)] = true;
    if (forced_w[static_cast<size_t>(i)]) {
      forced_cost +=
          inst.modules[static_cast<size_t>(i)].privatization_cost;
    }
  }

  if (all_satisfied) {
    // Every point of the box pays at least the forced cost, and the forced
    // solution itself is globally feasible: the subtree is resolved.
    cut.resolved = true;
    cut.objective = forced_cost;
    cut.x.assign(static_cast<size_t>(enc.lp.num_vars()), 0.0);
    for (int a : h1.ToVector()) {
      cut.x[static_cast<size_t>(enc.x_var[static_cast<size_t>(a)])] = 1.0;
    }
    for (int i = 0; i < inst.num_modules(); ++i) {
      int w = enc.w_var[static_cast<size_t>(i)];
      if (w >= 0 && forced_w[static_cast<size_t>(i)]) {
        cut.x[static_cast<size_t>(w)] = 1.0;
      }
    }
    return cut;
  }
  cut.lower_bound = forced_cost + packed_completion;
  return cut;
}

}  // namespace

BnbOracle MakeSecureViewBnbOracle(const SecureViewInstance* inst,
                                  const SvEncoding* enc) {
  return [inst, enc](const std::vector<double>& lb,
                     const std::vector<double>& ub) {
    return Evaluate(*inst, *enc, lb, ub);
  };
}

}  // namespace provview
