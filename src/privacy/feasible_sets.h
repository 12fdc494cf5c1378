// Feasible-set fixpoint analysis over the workflow DAG: an abstract
// interpretation run once per (workflow tables, visible set, fixed set)
// before every world enumeration. It supplies the enumerator's per-slot
// candidate lists and the domain points it factors out of the walk, reaching
// slots that pruning by initial-input determinedness alone cannot touch.
//
// Abstract domain (one element per attribute / module, all finite):
//
//   feasible_values[a] ⊆ Dom(a)   — values attribute a can take in ANY
//       execution of ANY consistent world (over-approximation; ordered by ⊇,
//       transfer functions only shrink it).
//   pinned_attr[a] ∈ {false,true} — a's value in EVERY execution is the same
//       across all consistent worlds, namely the original run's value
//       (under-approximation; ordered by ⇒, only flips false→true).
//   determined[i], forced[i]      — derived module facts: all of module i's
//       inputs pinned; determined AND every reached slot's candidate list is
//       a singleton (which must then be the original code, because the
//       original world is consistent and survives every sound narrowing).
//
// Transfer functions, iterated to a fixpoint:
//   - initial inputs are pinned; visible attributes narrow to the values in
//     their column of the visible provenance view; pinned attributes narrow
//     to their distinct original values;
//   - forward, in topological order: a fixed module maps the feasible
//     input-code set through its function; a free module's reached output
//     codes are those whose per-attribute values are all feasible (for a
//     determined free module, additionally those surviving the per-slot
//     visible-projection test below); output attributes then narrow to the
//     projections of the surviving codes;
//   - backward, in reverse topological order, through FIXED modules only
//     (a free module can map any input to any feasible output, so its
//     outputs never constrain its inputs): input codes whose image left the
//     feasible output-code set are dropped and the input attributes narrow
//     to the projections of the survivors;
//   - pinnedness propagates through fixed modules AND through forced free
//     modules — the generalization that lets determinedness (and hence
//     per-slot pruning) cross fully-visible free stages of a deep chain.
//
// Termination: the product lattice is finite and every transfer function is
// monotone — feasible_values / candidate lists only ever shrink and
// pinned_attr bits only ever set, so each sweep either changes at least one
// of finitely many monotone components or reaches the (unique least) fixpoint
// and stops. The iteration count is bounded by the total number of values
// plus attributes, and in practice is ≤ depth(DAG) + 2.
//
// Soundness (what the enumerator may rely on):
//   - a slot of a determined module is reached by the same executions in
//     every walked joint state (pinned inputs depend only on singleton or
//     fixed upstream choices, so this holds mid-walk for inconsistent states
//     too), and in every consistent world its output code is in its
//     candidate list;
//   - a domain point of a non-determined module outside feasible_in_codes is
//     reached in NO consistent world, so its slot's choice multiplies the
//     world count by |Range| without changing any candidate relation or any
//     tracked OUT set (tracked inputs are original codes, which are always
//     feasible) — the enumerator factors it out of the walk, multiplying
//     the count by |Range|, and cuts any branch that still routes an
//     execution there.
//
// The determined-slot test. Every execution reaching a slot of a
// determined free module reaches it in every world, with the same
// determined-visible row prefix. So a candidate code c survives on a slot
// iff, for every prefix of an execution reaching it, (prefix, visible
// output values of c) occurs among the original rows. Prefixes are
// numbered densely (ProjectionIds, privacy/projection_ids.h) and the test
// runs on mixed-radix keys prefix · |visible outputs| + code of the
// visible output values, held in flat sorted arrays: the keys the log
// allows, and the (reached input code, prefix) pairs per slot. The prefix
// ids are rebuilt only when a pin lands, once for all modules. The test is
// internal to the fixpoint: this header exports only its candidate lists.
//
// Representation. The fixpoint itself runs on flat arrays
// (FlatFeasibleSets): one value bitmap laid out by
// WorkflowTables::value_offset, per-module code bitmaps, the determined
// slots' candidate lists concatenated per module, and scratch reused
// across sweeps. The world walk reads that form directly;
// AnalyzeFeasibleSets expands it into the nested vectors of
// FeasibleSetAnalysis. The mask-independent inputs (original-value
// bitmaps, provenance positions, decoded input and output codes) come
// prebuilt with the WorkflowTables.
#ifndef PROVVIEW_PRIVACY_FEASIBLE_SETS_H_
#define PROVVIEW_PRIVACY_FEASIBLE_SETS_H_

#include <cstdint>
#include <vector>

#include "common/bitset64.h"
#include "privacy/possible_worlds.h"

namespace provview {

/// Result of the feasible-set fixpoint for one (tables, visible, fixed) key.
struct FeasibleSetAnalysis {
  /// Sweeps until the fixpoint was reached (≥ 1).
  int iterations = 0;

  // Per attribute id (catalog-aligned).
  /// Sorted feasible values; never empty for attributes the workflow uses
  /// (the original run keeps every set inhabited).
  std::vector<std::vector<int32_t>> feasible_values;
  /// Extended determinedness: value per execution equals the original run's
  /// in every consistent world (and in every walked joint state).
  std::vector<bool> pinned_attr;

  // Per module index.
  std::vector<bool> determined;  ///< every input attribute pinned
  std::vector<bool> forced;      ///< determined free module, all lists singleton
  /// Determined free modules: candidate output codes per reached slot,
  /// aligned with WorkflowTables::orig_input_codes[i]; empty for other
  /// modules. Lists are sorted and never empty (the original code survives).
  std::vector<std::vector<std::vector<int32_t>>> det_slot_codes;
  /// Non-determined modules: sorted feasible input codes D_i (always a
  /// superset of orig_input_codes[i]); slots outside it can be factored out
  /// of the walk. Empty for determined modules (their reached set is exactly
  /// orig_input_codes).
  std::vector<std::vector<int32_t>> feasible_in_codes;
  /// All modules: sorted feasible output codes C_i of reached slots.
  std::vector<std::vector<int32_t>> feasible_out_codes;

  /// Σ over non-determined modules of dom points proven unreachable — the
  /// slots the enumerator factors instead of walking at full range.
  int64_t factored_free_slots = 0;
};

/// The same fixpoint in the flat form the world walk reads: every field of
/// FeasibleSetAnalysis, as bitmaps and concatenated lists.
struct FlatFeasibleSets {
  int iterations = 0;
  /// feasible[WorkflowTables::value_offset[a] + v] = 1 iff v is a feasible
  /// value of attribute a.
  std::vector<uint8_t> feasible;
  std::vector<uint8_t> pinned;      ///< per attribute id
  std::vector<uint8_t> determined;  ///< per module
  std::vector<uint8_t> forced;      ///< per module
  /// out_ok[range_offset[i] + c] = 1 iff c is a feasible output code of
  /// module i; range_offset has num_modules + 1 entries.
  std::vector<int64_t> range_offset;
  std::vector<uint8_t> out_ok;
  /// in_ok[dom_offset[i] + d] = 1 iff d is a feasible input code of the
  /// non-determined module i (all 0 for determined modules).
  std::vector<int64_t> dom_offset;
  std::vector<uint8_t> in_ok;
  /// A determined free module's candidate lists, concatenated: list k
  /// (aligned with WorkflowTables::orig_input_codes[i]) is
  /// codes[ends[k - 1] .. ends[k]), ends[-1] = 0. Empty for other modules.
  struct SlotLists {
    std::vector<int32_t> codes;
    std::vector<int32_t> ends;
  };
  std::vector<SlotLists> det_lists;  ///< per module
  int64_t factored_free_slots = 0;
};

/// Runs the fixpoint into `out`. Requires a completed build (tables.status
/// OK): the analysis replays the original execution log.
void RunFeasibleSetFixpoint(const WorkflowTables& tables,
                            const Bitset64& visible,
                            const std::vector<int>& fixed_modules,
                            FlatFeasibleSets* out);

/// Runs the fixpoint and expands it into a FeasibleSetAnalysis.
FeasibleSetAnalysis AnalyzeFeasibleSets(const WorkflowTables& tables,
                                        const Bitset64& visible,
                                        const std::vector<int>& fixed_modules);

}  // namespace provview

#endif  // PROVVIEW_PRIVACY_FEASIBLE_SETS_H_
