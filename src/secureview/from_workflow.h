// Bridge from executable workflows to combinatorial Secure-View instances.
// For each private module the §3 standalone searches derive its requirement
// list from its actual functionality:
//   - set constraints: the antichain of minimal safe hidden subsets
//     (Theorem 4 makes any per-module choice compose into workflow privacy);
//   - cardinality constraints: the minimal safe (α, β) frontier.
// Public modules are carried over with their privatization costs
// (Theorem 8 / §5.2).
#ifndef PROVVIEW_SECUREVIEW_FROM_WORKFLOW_H_
#define PROVVIEW_SECUREVIEW_FROM_WORKFLOW_H_

#include <cstdint>
#include <vector>

#include "secureview/instance.h"
#include "workflow/workflow.h"

namespace provview {

class TaskGraphExecutor;

/// Builds the Secure-View instance of `workflow` for privacy target Γ.
/// Attribute indices coincide with catalog attribute ids. Every private
/// module must have at least one safe option (hiding all its attributes is
/// checked as a fallback); otherwise this aborts — such a module cannot be
/// made Γ-private at all. DeriveInstanceFromWorkflow reports that case as
/// a status instead.
SecureViewInstance InstanceFromWorkflow(const Workflow& workflow,
                                        int64_t gamma, ConstraintKind kind);

/// Heterogeneous privacy targets: one Γ_i per module index (entries for
/// public modules are ignored). The paper notes (§2.4) that all results
/// carry over unchanged to per-module requirements.
/// The per-module derivations are independent TaskGraph tasks, each owning
/// one SafetyMemo for its module. They run on `executor` when given (e.g.
/// the solve's B&B executor), else on a private executor sized to the
/// hardware; the instance is the same either way.
SecureViewInstance InstanceFromWorkflow(const Workflow& workflow,
                                        const std::vector<int64_t>& gammas,
                                        ConstraintKind kind,
                                        TaskGraphExecutor* executor = nullptr);

/// The derivation behind both InstanceFromWorkflow overloads, without the
/// abort: a private module with no option reaching its Γ_i is Infeasible,
/// naming the first such module by index; a `gammas` of the wrong length is
/// InvalidArgument.
Result<SecureViewInstance> DeriveInstanceFromWorkflow(
    const Workflow& workflow, const std::vector<int64_t>& gammas,
    ConstraintKind kind, TaskGraphExecutor* executor = nullptr);

/// The Example-5 baseline: each private module independently hides its own
/// minimum-cost standalone-safe subset; the workflow hides the union
/// (and privatizes the touched public modules). Theorem 4/8 guarantee
/// feasibility; Example 5 shows the cost can be Ω(n) · OPT.
SecureViewSolution UnionOfStandaloneOptima(const Workflow& workflow,
                                           int64_t gamma);

/// End-to-end check tying the optimizer back to the semantics: certifies
/// (via the Theorem 4/8 sufficient condition) that `solution` makes every
/// private module Γ-standalone-private and privatizes every public module
/// it must. Returns true iff certified.
bool VerifySolutionSemantics(const Workflow& workflow,
                             const SecureViewSolution& solution,
                             int64_t gamma);

}  // namespace provview

#endif  // PROVVIEW_SECUREVIEW_FROM_WORKFLOW_H_
