#include "secureview/from_workflow.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "common/task_graph.h"
#include "privacy/safe_subset_search.h"
#include "privacy/workflow_privacy.h"

namespace provview {

SecureViewInstance InstanceFromWorkflow(const Workflow& workflow,
                                        int64_t gamma, ConstraintKind kind) {
  return InstanceFromWorkflow(
      workflow,
      std::vector<int64_t>(static_cast<size_t>(workflow.num_modules()),
                           gamma),
      kind);
}

SecureViewInstance InstanceFromWorkflow(const Workflow& workflow,
                                        const std::vector<int64_t>& gammas,
                                        ConstraintKind kind,
                                        TaskGraphExecutor* executor) {
  Result<SecureViewInstance> inst =
      DeriveInstanceFromWorkflow(workflow, gammas, kind, executor);
  PV_CHECK_MSG(inst.ok(), inst.status().ToString());
  return std::move(inst).value();
}

Result<SecureViewInstance> DeriveInstanceFromWorkflow(
    const Workflow& workflow, const std::vector<int64_t>& gammas,
    ConstraintKind kind, TaskGraphExecutor* executor) {
  if (static_cast<int>(gammas.size()) != workflow.num_modules()) {
    return Status::InvalidArgument("one gamma per module expected");
  }
  const AttributeCatalog& catalog = *workflow.catalog();
  SecureViewInstance inst;
  inst.kind = kind;
  inst.num_attrs = catalog.size();
  inst.attr_cost.reserve(static_cast<size_t>(catalog.size()));
  for (AttrId id = 0; id < catalog.size(); ++id) {
    inst.attr_cost.push_back(catalog.Cost(id));
  }
  // Derive every private module's requirement list in parallel: one task
  // per private module, each owning one SafetyMemo (its materialized
  // relation plus verdict cache) for the whole derivation.
  // Sequentially this shares nothing across modules and dominates instance
  // construction on real workflows.
  const int n = workflow.num_modules();
  std::vector<std::vector<SetOption>> set_options(static_cast<size_t>(n));
  std::vector<std::vector<CardOption>> card_options(static_cast<size_t>(n));
  // Set by module i's own task when no option of it reaches its Γ.
  std::vector<uint8_t> unreachable(static_cast<size_t>(n), 0);
  const std::vector<int> private_modules = workflow.PrivateModuleIndices();
  auto derive = [&](int i) {
    const Module& m = workflow.module(i);
    const int64_t gamma = gammas[static_cast<size_t>(i)];
    if (kind == ConstraintKind::kSet) {
      SafetyMemo memo(m);
      SafeSearchStats stats;
      std::vector<Bitset64> minimal = MinimalSafeHiddenSets(
          &memo, m.inputs(), m.outputs(), catalog.size(), gamma, &stats);
      if (minimal.empty()) unreachable[static_cast<size_t>(i)] = 1;
      std::set<AttrId> in_set(m.inputs().begin(), m.inputs().end());
      for (const Bitset64& hidden : minimal) {
        SetOption option;
        for (int a : hidden.ToVector()) {
          if (in_set.count(a) != 0) {
            option.hidden_inputs.push_back(a);
          } else {
            option.hidden_outputs.push_back(a);
          }
        }
        set_options[static_cast<size_t>(i)].push_back(std::move(option));
      }
    } else {
      std::vector<CardinalityPair> frontier =
          MinimalSafeCardinalityPairs(m, gamma);
      if (frontier.empty()) unreachable[static_cast<size_t>(i)] = 1;
      for (const CardinalityPair& p : frontier) {
        card_options[static_cast<size_t>(i)].push_back(
            CardOption{p.alpha, p.beta});
      }
    }
  };
  TaskGraph graph;
  for (int i : private_modules) graph.Add([&derive, i] { derive(i); });
  const EngineExecutor derivers(
      executor, static_cast<int>(std::min<size_t>(
                    static_cast<size_t>(DefaultThreads()),
                    private_modules.size())));
  (void)graph.Run(derivers.get());
  // The first failing module by index, whichever task finished first.
  for (int i = 0; i < n; ++i) {
    if (unreachable[static_cast<size_t>(i)] != 0) {
      return Status::Infeasible(
          "module " + workflow.module(i).name() + " cannot reach gamma " +
          std::to_string(gammas[static_cast<size_t>(i)]));
    }
  }

  for (int i = 0; i < n; ++i) {
    const Module& m = workflow.module(i);
    SvModule spec;
    spec.name = m.name();
    spec.inputs.assign(m.inputs().begin(), m.inputs().end());
    spec.outputs.assign(m.outputs().begin(), m.outputs().end());
    spec.is_public = m.is_public();
    spec.privatization_cost = m.is_public() ? m.privatization_cost() : 0.0;
    spec.set_options = std::move(set_options[static_cast<size_t>(i)]);
    spec.card_options = std::move(card_options[static_cast<size_t>(i)]);
    inst.modules.push_back(std::move(spec));
  }
  Status st = inst.Validate();
  if (!st.ok()) return st;
  return inst;
}

SecureViewSolution UnionOfStandaloneOptima(const Workflow& workflow,
                                           int64_t gamma) {
  std::vector<Bitset64> per_module;
  for (int i : workflow.PrivateModuleIndices()) {
    MinCostSafeResult r = MinCostSafeHiddenSet(workflow.module(i), gamma);
    PV_CHECK_MSG(r.found, "module " << workflow.module(i).name()
                                    << " cannot reach gamma " << gamma);
    per_module.push_back(r.hidden);
  }
  ComposedSolution composed =
      ComposeStandaloneSolutions(workflow, per_module);
  SecureViewSolution sol;
  sol.hidden = composed.hidden;
  sol.privatized = composed.privatized_modules;
  return sol;
}

bool VerifySolutionSemantics(const Workflow& workflow,
                             const SecureViewSolution& solution,
                             int64_t gamma) {
  PrivacyCertificate cert =
      CertifyWorkflowPrivacy(workflow, solution.hidden, gamma);
  if (!cert.certified) return false;
  std::set<int> privatized(solution.privatized.begin(),
                           solution.privatized.end());
  for (int i : cert.required_privatizations) {
    if (privatized.count(i) == 0) return false;
  }
  return true;
}

}  // namespace provview
