// End-to-end exact optimization of a workflow's min-cost secure view
// (docs/optimizer.md):
//
//   workflow --(per-module requirement derivation)--> SecureViewInstance
//            --(useless attributes pinned visible)--> SolveExact
//            --(Theorem 4/8 certification)--> verified SvResult
//
// Each private module's requirement list is derived by its own SafetyMemo
// (InstanceFromWorkflow); the B&B then fathoms nodes with the instance-level
// safety oracle over those lists, which are exactly the memos' minimal-safe
// antichains.
#ifndef PROVVIEW_SECUREVIEW_WORKFLOW_EXACT_H_
#define PROVVIEW_SECUREVIEW_WORKFLOW_EXACT_H_

#include <cstdint>
#include <vector>

#include "secureview/instance.h"
#include "secureview/solvers.h"
#include "workflow/workflow.h"

namespace provview {

struct WorkflowExactOptions {
  int64_t gamma = 2;
  ConstraintKind kind = ConstraintKind::kSet;
  /// Solver knobs (warm start, threads, executor, deadline live in here).
  /// The derivation runs on `exact.bnb.executor` too.
  ExactOptions exact;
  /// Certify the winning solution via the Theorem 4/8 sufficient condition.
  bool verify_semantics = true;
};

struct WorkflowExactResult {
  SvResult result;
  /// The derived instance (reusable for approximation-ratio comparisons).
  SecureViewInstance instance;
  /// Attributes pinned visible before the search: those no requirement
  /// option uses (sound: hiding one can only add cost).
  std::vector<int> fixed_attrs;
  /// True when the solution was certified Γ-private (Theorem 4/8).
  bool semantics_verified = false;
};

/// Derives the instance and solves it exactly with the full pruning stack.
/// A private module that cannot reach Γ returns Infeasible naming it (with
/// an empty instance and an infinite gap) instead of aborting.
WorkflowExactResult SolveExactForWorkflow(
    const Workflow& workflow, const WorkflowExactOptions& options = {});

}  // namespace provview

#endif  // PROVVIEW_SECUREVIEW_WORKFLOW_EXACT_H_
