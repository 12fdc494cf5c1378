#include "secureview/workflow_exact.h"

#include <cmath>
#include <string>
#include <utility>

#include "privacy/feasible_sets.h"
#include "privacy/possible_worlds.h"
#include "privacy/safety_memo.h"
#include "secureview/bnb_oracle.h"
#include "secureview/from_workflow.h"
#include "secureview/ilp_encoding.h"

namespace provview {

WorkflowExactResult SolveExactForWorkflow(const Workflow& workflow,
                                          const WorkflowExactOptions& options) {
  WorkflowExactResult out;

  // One shared memo per private module, every one bound to its own
  // namespace of one verdict cache. Derivation fills the cache; the
  // memo-backed oracle (and any later call against the same cache) reads
  // it back.
  std::shared_ptr<VerdictCache> cache = options.cache;
  std::vector<std::shared_ptr<SafetyMemo>> memos;
  if (options.kind == ConstraintKind::kSet) {
    if (cache == nullptr) cache = std::make_shared<VerdictCache>();
    memos.resize(static_cast<size_t>(workflow.num_modules()));
    for (int i : workflow.PrivateModuleIndices()) {
      uint32_t ns = cache->RegisterNamespace(
          workflow.module(i).name() + "/exact");
      memos[static_cast<size_t>(i)] = std::make_shared<SafetyMemo>(
          workflow.module(i), Module::kDefaultMaterializeRows, cache, ns);
    }
  }

  std::vector<int64_t> gammas(static_cast<size_t>(workflow.num_modules()),
                              options.gamma);
  out.instance = InstanceFromWorkflow(workflow, gammas, options.kind, memos,
                                      options.exact.bnb.executor);

  ExactOptions exact = options.exact;
  if (options.fix_useless_attrs) {
    std::vector<int> useless = UselessAttrs(out.instance);
    exact.fix_visible.insert(exact.fix_visible.end(), useless.begin(),
                             useless.end());
    out.fixed_attrs = std::move(useless);
  }

  if (options.analyze_feasible_sets) {
    // A (no-op) control turns an over-budget execution space into a typed
    // status on the tables instead of an abort.
    ExecControl guard;
    WorkflowTablesOptions topts;
    topts.max_executions = options.analysis_max_executions;
    topts.materialize_threshold = options.analysis_max_executions;
    topts.control = &guard;
    std::shared_ptr<const WorkflowTables> tables =
        BuildWorkflowTables(workflow, topts);
    if (tables != nullptr && tables->status.ok() && tables->log_materialized) {
      FeasibleSetAnalysis analysis = AnalyzeFeasibleSets(
          *tables, Bitset64::All(workflow.num_attrs()), {});
      out.analysis_constant_attrs = 0;
      for (int a : workflow.used_attrs().ToVector()) {
        if (analysis.feasible_values[static_cast<size_t>(a)].size() == 1) {
          ++out.analysis_constant_attrs;
        }
      }
    }
  }

  // The memo-backed oracle routes node satisfaction checks through the
  // shared cache; SolveExact installs the plain instance-level oracle
  // itself otherwise (ExactOptions::oracle).
  SvEncoding oracle_enc;
  if (options.memo_oracle && options.kind == ConstraintKind::kSet &&
      !exact.bnb.oracle) {
    oracle_enc = EncodeSecureView(out.instance);
    for (int a : exact.fix_visible) {
      oracle_enc.lp.SetVarBounds(oracle_enc.x_var[static_cast<size_t>(a)],
                                 0.0, 0.0);
    }
    exact.bnb.oracle = MakeMemoBackedBnbOracle(&out.instance, &oracle_enc,
                                               memos, options.gamma);
  }

  out.result = SolveExact(out.instance, exact);

  // A usable solution exists when the solve completed, or when a trip
  // still carried a feasible incumbent (finite proven gap).
  const bool have_solution =
      out.result.status.ok() ||
      (!out.result.status.ok() && std::isfinite(out.result.gap));
  if (options.verify_semantics && have_solution) {
    out.semantics_verified = VerifySolutionSemantics(
        workflow, out.result.solution, options.gamma);
  }
  return out;
}

}  // namespace provview
