#include "secureview/workflow_exact.h"

#include <cmath>
#include <limits>
#include <utility>

#include "secureview/from_workflow.h"

namespace provview {

WorkflowExactResult SolveExactForWorkflow(const Workflow& workflow,
                                          const WorkflowExactOptions& options) {
  WorkflowExactResult out;
  std::vector<int64_t> gammas(static_cast<size_t>(workflow.num_modules()),
                              options.gamma);
  Result<SecureViewInstance> inst = DeriveInstanceFromWorkflow(
      workflow, gammas, options.kind, options.exact.bnb.executor);
  if (!inst.ok()) {
    out.result.status = inst.status();
    out.result.gap = std::numeric_limits<double>::infinity();  // no solution
    return out;
  }
  out.instance = std::move(inst).value();

  ExactOptions exact = options.exact;
  out.fixed_attrs = UselessAttrs(out.instance);
  exact.fix_visible.insert(exact.fix_visible.end(), out.fixed_attrs.begin(),
                           out.fixed_attrs.end());
  out.result = SolveExact(out.instance, exact);

  // A usable solution exists when the solve completed, or when a trip
  // still carried a feasible incumbent (finite proven gap).
  const bool have_solution =
      out.result.status.ok() || std::isfinite(out.result.gap);
  if (options.verify_semantics && have_solution) {
    out.semantics_verified = VerifySolutionSemantics(
        workflow, out.result.solution, options.gamma);
  }
  return out;
}

}  // namespace provview
