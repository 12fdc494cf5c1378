// Streaming access to a workflow's execution log: yields the provenance
// rows of executions [begin, end) of the initial-input odometer in blocks,
// without ever materializing the full log. BuildWorkflowTables fills its
// per-execution arrays through it in chunk-sized blocks (the tables keep
// the whole log, so max_executions bounds the scan), and each shard of a
// parallel scan owns its own supplier over a contiguous execution range
// while sharing one immutable ExecutionPlan.
#ifndef PROVVIEW_WORKFLOW_EXECUTION_SUPPLIER_H_
#define PROVVIEW_WORKFLOW_EXECUTION_SUPPLIER_H_

#include <memory>
#include <vector>

#include "relation/row_supplier.h"
#include "workflow/workflow.h"

namespace provview {

/// Immutable per-workflow execution tables shared by every supplier over
/// the same workflow: provenance schema, odometer radices, and per-module
/// lookup tables (small functions pre-tabulated once so a streamed
/// execution is a chain of table lookups; larger modules fall back to
/// Eval()). Build once via ExecutionSupplier::MakePlan and share across
/// shards — per-shard suppliers then carry only their odometer state.
/// Borrows the workflow.
struct ExecutionPlan {
  const Workflow* workflow = nullptr;
  Schema schema;                   // provenance schema
  std::vector<int> init_radices;
  int64_t total_execs = 0;

  struct ModuleTable {
    std::vector<int> in_pos;  // input positions in the prov row
    std::vector<int64_t> in_strides;
    std::vector<int> in_radices;
    std::vector<int> out_radices;
    std::vector<int32_t> fn;  // fn[in_code] = out_code; empty = Eval directly
  };
  std::vector<ModuleTable> modules;
};

/// RowSupplier over the provenance relation (schema: used attributes in
/// increasing id order, matching Workflow::ProvenanceSchema()). Executions
/// run in initial-input odometer order — byte-identical rows, in the same
/// order, as Workflow::ProvenanceRelation().
class ExecutionSupplier : public RowSupplier {
 public:
  /// Precomputes the shared plan (one full-domain sweep per small module).
  static std::shared_ptr<const ExecutionPlan> MakePlan(
      const Workflow& workflow);

  /// The plan without the per-module function sweeps: schema, radices,
  /// strides and positions only. Callers then run TabulateModule for every
  /// module before handing the plan to suppliers — possibly concurrently
  /// (distinct modules touch disjoint state), which is how the task-graph
  /// table build overlaps the sweeps.
  static std::shared_ptr<ExecutionPlan> MakePlanShell(const Workflow& workflow);

  /// Fills plan->modules[module_index].fn (the full-domain sweep) when the
  /// domain is small enough to pre-tabulate; larger modules keep Eval().
  /// Touches only that module's table.
  static void TabulateModule(ExecutionPlan* plan, int module_index);

  /// Streams executions [begin_exec, end_exec) of the odometer;
  /// end_exec = -1 means the whole space. Builds a private plan.
  explicit ExecutionSupplier(const Workflow& workflow, int64_t begin_exec = 0,
                             int64_t end_exec = -1);

  /// As above over a shared plan (the sharded-scan fast path).
  explicit ExecutionSupplier(std::shared_ptr<const ExecutionPlan> plan,
                             int64_t begin_exec = 0, int64_t end_exec = -1);

  const Schema& schema() const override { return plan_->schema; }
  int64_t total_rows() const override { return end_ - begin_; }
  void Reset() override;
  int64_t NextBlock(std::vector<Value>* block, int64_t max_rows) override;

  /// Derives module `mi`'s encoded input (little-endian mixed radix over its
  /// input attributes) from a provenance row of this supplier's schema.
  int64_t InputCodeOf(const Value* row, int mi) const;

 private:
  std::shared_ptr<const ExecutionPlan> plan_;
  int64_t begin_ = 0;
  int64_t end_ = 0;

  std::vector<Value> values_;  // attribute-id-indexed scratch
  Tuple init_;                 // current odometer digits
  int64_t next_ = 0;           // next execution index
};

}  // namespace provview

#endif  // PROVVIEW_WORKFLOW_EXECUTION_SUPPLIER_H_
