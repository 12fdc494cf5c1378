// Possible-worlds enumeration (Definitions 1, 4). This is the library's
// ground truth: it enumerates candidate relations explicitly and computes
// OUT sets from first principles, with no reliance on the paper's counting
// shortcuts.
//
// Two standalone enumerators are provided. EnumerateStandaloneWorldsNaive is
// the original odometer over the full |Range|^N function space, retained as
// the reference implementation the equivalence tests compare against.
// EnumerateStandaloneWorlds is the production engine: it interns visible
// projections to dense ids, prunes each input slot to the output codes whose
// visible projection actually occurs in the target view (shrinking the walk
// from |Range|^N to ∏_i |feasible_i|), maintains the projected multiset
// incrementally as the odometer advances one digit at a time, and optionally
// short-circuits once every input's OUT set has reached Γ. Both compute
// byte-identical num_worlds / out_sets on full runs.
#ifndef PROVVIEW_PRIVACY_POSSIBLE_WORLDS_H_
#define PROVVIEW_PRIVACY_POSSIBLE_WORLDS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/engine_config.h"
#include "common/exec_control.h"
#include "relation/row_supplier.h"
#include "workflow/workflow.h"

namespace provview {

/// Tuning knobs of the optimized standalone enumerator.
struct EnumerationOptions {
  /// Abort if the (pruned) candidate space exceeds this.
  int64_t max_candidates = 40000000;
  /// When > 0, stop enumerating as soon as every input's OUT set holds at
  /// least this many outputs — the Γ short-circuit used by the brute-force
  /// safety check. The returned num_worlds is then only a lower bound and
  /// `early_stopped` is set.
  int64_t gamma = 0;
  /// Optional deadline/cancellation/memory-budget token (service mode).
  /// When set, the walk polls it at chunk boundaries and a tripped control
  /// stops the enumeration with a typed `status` (DEADLINE_EXCEEDED /
  /// RESOURCE_EXHAUSTED) instead of aborting.
  const ExecControl* control = nullptr;
};

/// Result of enumerating Worlds(R, V) for a standalone module.
struct StandaloneWorlds {
  /// Number of candidate functions on π_I(R) consistent with the view.
  /// A lower bound if `early_stopped` is set.
  int64_t num_worlds = 0;
  /// OUT_{x,m} per input x (keys aligned with the module's input list).
  std::map<Tuple, std::set<Tuple>> out_sets;
  /// True iff the Γ short-circuit fired before the walk finished.
  bool early_stopped = false;
  /// ∏_i |feasible_i|: candidates actually walked by the pruned engine.
  int64_t pruned_candidates = 0;
  /// |Range|^N: candidates the naive engine would walk.
  int64_t naive_candidates = 0;
  /// OK on a completed run. RESOURCE_EXHAUSTED when the candidate space
  /// exceeds a size guard (out_sets then stay empty), with or without an
  /// ExecControl; DEADLINE_EXCEEDED / RESOURCE_EXHAUSTED when the attached
  /// ExecControl tripped: counts and OUT sets are then the partial state at
  /// the stop point (stats, not verdicts).
  Status status;

  /// min_x |OUT_{x,m}| — the exact largest safe Γ. INT64_MAX when no input.
  int64_t MinOutSize() const;
};

/// Enumerates every total function f from π_I(R) into Range whose induced
/// relation projects onto V exactly like R does, i.e. all members of
/// Worlds(R, V) that keep R's input set. (By the flip construction these
/// realize every achievable OUT value; see standalone_privacy.h.)
/// Pruned and incremental, one walker on the calling thread, so every field
/// (an early-stopped run's included) is deterministic; returns
/// RESOURCE_EXHAUSTED in `status` if the output range or the pruned space
/// ∏_i |feasible_i| exceeds `opts.max_candidates`.
StandaloneWorlds EnumerateStandaloneWorlds(const Relation& rel,
                                           const std::vector<AttrId>& inputs,
                                           const std::vector<AttrId>& outputs,
                                           const Bitset64& visible,
                                           const EnumerationOptions& opts = {});

/// Core entry point: sources rows from any supplier (materialized table or
/// module function), so the engine no longer requires an eagerly built
/// FullRelation. The Relation overload above wraps the rows in a
/// MaterializedRowSupplier and delegates here.
StandaloneWorlds EnumerateStandaloneWorlds(RowSupplier* rows,
                                           const std::vector<AttrId>& inputs,
                                           const std::vector<AttrId>& outputs,
                                           const Bitset64& visible,
                                           const EnumerationOptions& opts = {});

/// The original unpruned odometer over |Range|^N candidate functions.
/// Exponentially slower than EnumerateStandaloneWorlds; kept as the
/// reference implementation for the equivalence test suite and the
/// speedup benchmarks. Aborts if |Range|^N exceeds `max_candidates`.
StandaloneWorlds EnumerateStandaloneWorldsNaive(
    const Relation& rel, const std::vector<AttrId>& inputs,
    const std::vector<AttrId>& outputs, const Bitset64& visible,
    int64_t max_candidates = 40000000);

/// Brute-force Γ-standalone-privacy check via the pruned enumerator with the
/// Γ short-circuit engaged: stops walking as soon as every input's OUT set
/// reaches `gamma`. Semantically identical to (but exponentially slower
/// than) Algorithm 2's IsStandaloneSafe; used to cross-check it. A bare
/// verdict has no status channel, so a non-OK enumeration status (an
/// over-budget space, a tripped control) aborts with the engine's message.
bool IsStandaloneSafeByEnumeration(const Relation& rel,
                                   const std::vector<AttrId>& inputs,
                                   const std::vector<AttrId>& outputs,
                                   const Bitset64& visible, int64_t gamma,
                                   EnumerationOptions opts = {});

/// Result of enumerating functional worlds of a workflow.
struct WorkflowWorlds {
  /// Distinct provenance relations among consistent worlds (counted up to
  /// row-set equality; Proposition 2 compares this with the standalone
  /// world count). Zero when the enumeration ran with
  /// `collect_distinct_relations` off.
  int64_t num_distinct_relations = 0;
  /// Number of consistent joint function choices (≥ num_distinct_relations).
  /// If `early_stopped` is set, only a lower bound: the choices the walk
  /// (under Γ, its Γ-directed probe) visited before it stopped. Otherwise
  /// exact, whether or not a probe ran first.
  int64_t num_function_choices = 0;
  /// out_sets[i][x] = OUT_{x,W} restricted to functional worlds, for module
  /// index i and module-i input x.
  std::vector<std::map<Tuple, std::set<Tuple>>> out_sets;
  /// True iff the Γ short-circuit fired before the walk finished.
  bool early_stopped = false;
  /// The pruned joint space: ∏ |feasible_s| over the walked slots (factored
  /// always-unreached slots excluded), which `max_candidates` bounds.
  int64_t pruned_candidates = 0;
  /// ∏ |Range_i|^{|Dom_i|} over free modules: the naive joint space.
  int64_t naive_candidates = 0;
  /// OK on a completed run. RESOURCE_EXHAUSTED when the pruned space
  /// exceeds `max_candidates` (with or without an ExecControl; out_sets are
  /// then empty); DEADLINE_EXCEEDED / RESOURCE_EXHAUSTED when the attached
  /// ExecControl tripped mid-walk (partial counts, no verdict).
  Status status;

  /// min over private-module inputs of |OUT| for a given module index.
  int64_t MinOutSize(int module_index) const;
};

/// Tuning knobs of the optimized workflow enumerator. A walk runs as one
/// walker on the calling thread and reads only `control` of the embedded
/// EngineConfig (num_threads and executor are ignored), so every field of
/// its result, an early-stopped run's included, is deterministic.
struct WorkflowEnumerationOptions : EngineConfig {
  /// Refuse (RESOURCE_EXHAUSTED) if the pruned walked joint space exceeds
  /// this.
  int64_t max_candidates = 40000000;
  /// When > 0, stop enumerating as soon as the OUT set of every original
  /// input of every free private module holds at least this many outputs.
  /// Counts become lower bounds and `early_stopped` is set.
  int64_t gamma = 0;
  /// Maintain the distinct-relation set. The Γ-certification path only
  /// needs OUT sets and can turn this off (num_distinct_relations stays 0).
  bool collect_distinct_relations = true;
};

/// Immutable per-workflow tables shared by every enumeration over the same
/// workflow: interned per-module original functions (encoded input →
/// encoded output), mixed-radix strides and decode tables, the original
/// execution log, per-module original input codes, and the per-attribute
/// data the feasible-set fixpoint needs whatever the visible set. Building
/// them costs one full provenance run; the batch certification driver
/// builds them once and reuses them across many (visible set, fixed set, Γ)
/// enumerations.
struct WorkflowTables {
  const Workflow* workflow = nullptr;
  int num_attrs = 0;
  int num_modules = 0;

  // Per module (index-aligned with the workflow).
  std::vector<std::vector<AttrId>> in_attrs;
  std::vector<std::vector<AttrId>> out_attrs;
  std::vector<std::vector<int>> in_radices;
  std::vector<std::vector<int>> out_radices;
  std::vector<std::vector<int64_t>> in_strides;   // little-endian, match Encode
  std::vector<std::vector<int64_t>> out_strides;
  std::vector<int64_t> dom_size;
  std::vector<int64_t> range_size;
  /// original_fn[i][input_code] = output_code of module i's real function.
  std::vector<std::vector<int32_t>> original_fn;
  /// Decoded outputs: out_values[i][code * |O_i| + j] = j-th output value of
  /// output code `code` (avoids div/mod decoding in the walk's hot loop).
  std::vector<std::vector<int32_t>> out_values;
  /// Decoded inputs, mirroring out_values: in_values[i][code * |I_i| + j] =
  /// j-th input value of input code `code` (the fixpoint's domain sweeps).
  std::vector<std::vector<int32_t>> in_values;
  /// Every output code of module i, 0..|Range_i|-1: the candidate list of a
  /// walked slot of a module whose inputs are not pinned.
  std::vector<std::vector<int32_t>> all_out_codes;
  /// Distinct original input codes of module i (sorted): the x's whose
  /// OUT sets Definition 5 tracks.
  std::vector<std::vector<int32_t>> orig_input_codes;

  // Per attribute id (catalog-aligned).
  /// Layout of the flat per-value arrays: value v of attribute a sits at
  /// value_offset[a] + v; value_offset[num_attrs] is the total over every
  /// attribute's domain.
  std::vector<int64_t> value_offset;
  /// Original-value bitmaps, flat: orig_values[value_offset[a] + v] = 1 iff
  /// some execution of the original run gives attribute a the value v.
  std::vector<uint8_t> orig_values;
  /// Position of attribute a in the provenance row, -1 for none.
  std::vector<int32_t> prov_pos;

  // The original execution log: one execution per initial-input combination.
  std::vector<int> init_radices;
  int64_t num_execs = 0;
  std::vector<AttrId> prov_ids;
  /// Original provenance rows, flattened num_execs × prov_ids.size().
  std::vector<int32_t> orig_rows;
  /// Original input code of module i in execution e, flattened
  /// num_execs × num_modules.
  std::vector<int32_t> orig_in_code;
  /// Initial-input values per execution, flattened num_execs × |I_0|.
  std::vector<int32_t> init_values;
  /// Bytes the build charged to WorkflowTablesOptions::control: every
  /// charge that succeeded, a tripped build's included. The build never
  /// releases them; whoever owns the tables releases them once its walks
  /// over them are done.
  int64_t charged_bytes = 0;
  /// OK on a completed build. RESOURCE_EXHAUSTED when a module or the
  /// initial-input space exceeds a size guard (with or without an
  /// ExecControl); DEADLINE_EXCEEDED / RESOURCE_EXHAUSTED when
  /// WorkflowTablesOptions::control tripped. A non-OK build stops early and
  /// its tables must not be fed to the enumerators (which return this
  /// status instead of walking).
  Status status;
};

/// Knobs of the workflow-tables build. The shared execution knobs come
/// from the embedded EngineConfig: num_threads shards the scan of the
/// original run (each shard owns its own ExecutionSupplier over a
/// contiguous execution range and fills a disjoint slice of the
/// per-execution arrays, so results do not depend on the shard count).
/// The build is one TaskGraph — the per-module function sweeps and
/// output-decode tables are independent tasks and the scan shards start
/// the moment the sweeps settle — run inline at one resolved thread, else
/// on `executor` or a private executor. The execution log is always
/// materialized, and max_executions is its one size bound. `control`'s
/// memory budget is charged before the per-execution arrays allocate, a
/// trip surfacing as WorkflowTables::status; the charge is recorded in
/// WorkflowTables::charged_bytes for the caller to release.
struct WorkflowTablesOptions : EngineConfig {
  /// Budget on the initial-input product space (the execution count);
  /// larger spaces come back RESOURCE_EXHAUSTED.
  int64_t max_executions = int64_t{1} << 22;
  /// Executions per streamed chunk (the shard-sized unit of work).
  int64_t chunk_executions = int64_t{1} << 16;
};

/// Precomputes the shared tables, materializing the execution log from the
/// initial-input odometer in chunk-sized blocks (one pass, optionally
/// sharded into TaskGraph tasks).
std::shared_ptr<const WorkflowTables> BuildWorkflowTables(
    const Workflow& workflow, const WorkflowTablesOptions& opts = {});

/// Enumerates joint choices of total functions (g_1, ..., g_n) — keeping
/// g_i = m_i for every module index in `fixed_modules` (Definition 4's
/// public-module constraint) — runs the workflow on every initial input of
/// the original provenance relation, and keeps the worlds whose visible
/// projection matches. OUT sets are recorded for every module.
///
/// This is the pruned engine. The feasible-set fixpoint
/// (privacy/feasible_sets.h) runs first: slots of modules whose inputs are
/// pinned in every world are pruned to the output codes consistent with the
/// visible provenance view, and domain points no consistent world reaches
/// are factored out of the walk (they multiply num_function_choices without
/// changing any relation). The walk is then depth-first over the
/// executions: a slot gets a code only when an execution first reaches it,
/// and a branch is cut as soon as a finished row leaves the view or the
/// executions left cannot cover the view. A consistent leaf stands for
/// every code of the slots it left unassigned. The walk runs as one walker
/// on the calling thread.
///
/// With `gamma` > 0, and at least Γ feasible codes for every original
/// input of every free private module (else the short-circuit cannot
/// fire), a Γ-directed probe runs first: the same
/// walk, except that after each consistent leaf it backs up to the
/// shallowest slot still short of Γ. If the short-circuit fires there, the
/// result is the probe's. Otherwise the complete walk runs, keeping only
/// the probe's OUT-set marks, so every field of a run that does not stop
/// early equals that of the run with `gamma` = 0 and the other options
/// unchanged. One up-front memory charge for the walker's state covers both
/// phases. Byte-identical results to EnumerateWorkflowWorldsNaive on full
/// runs. The OUT-set maps are materialized from the walk's seen marks
/// after it ends.
WorkflowWorlds EnumerateWorkflowWorlds(
    const WorkflowTables& tables, const Bitset64& visible,
    const std::vector<int>& fixed_modules,
    const WorkflowEnumerationOptions& opts = {});

/// The walk of EnumerateWorkflowWorlds without its OUT-set maps, for
/// callers that need only verdicts (batch ground truth): the same single
/// walk, every field of the result as there except out_sets (left empty),
/// and `min_out_sizes` set to one entry per module equal to the
/// MinOutSize(i) of the OUT sets EnumerateWorkflowWorlds would
/// materialize, read straight off the walk's seen marks (INT64_MAX where
/// those would be empty, including on every run that did not walk).
WorkflowWorlds WalkWorkflowWorlds(const WorkflowTables& tables,
                                  const Bitset64& visible,
                                  const std::vector<int>& fixed_modules,
                                  const WorkflowEnumerationOptions& opts,
                                  std::vector<int64_t>* min_out_sizes);

/// Convenience overload building the tables internally (with the default
/// WorkflowTablesOptions and `opts.control`, whose table charge it releases
/// after the walk); a non-OK build comes back as the result's status.
WorkflowWorlds EnumerateWorkflowWorlds(
    const Workflow& workflow, const Bitset64& visible,
    const std::vector<int>& fixed_modules,
    const WorkflowEnumerationOptions& opts = {});

/// The original joint odometer over the unpruned ∏ |Range_i|^{|Dom_i|}
/// space. Exponentially slower than EnumerateWorkflowWorlds; kept as the
/// reference implementation for the workflow equivalence suite and the
/// speedup benchmarks.
WorkflowWorlds EnumerateWorkflowWorldsNaive(
    const Workflow& workflow, const Bitset64& visible,
    const std::vector<int>& fixed_modules, int64_t max_candidates = 40000000);

}  // namespace provview

#endif  // PROVVIEW_PRIVACY_POSSIBLE_WORLDS_H_
