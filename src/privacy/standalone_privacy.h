// Standalone module privacy (§2.2, §3): Γ-standalone-privacy of a module m
// w.r.t. a visible attribute set V requires |OUT_{x,m}| ≥ Γ for every input
// x ∈ π_I(R), where OUT_{x,m} are the outputs y consistent with some
// possible world of the view π_V(R).
//
// This header implements the paper's Algorithm 2 test: V is safe iff every
// visible-input group of R contains at least Γ / ∏_{a∈O\V}|Δ_a| distinct
// visible-output values — each such value extends to ∏_{a∈O\V}|Δ_a| full
// outputs by Lemma 2 + the flip construction. The test is exact (necessary
// and sufficient; §3.2, Appendix A.4) and runs in O(N log N) per call after
// materializing R.
#ifndef PROVVIEW_PRIVACY_STANDALONE_PRIVACY_H_
#define PROVVIEW_PRIVACY_STANDALONE_PRIVACY_H_

#include <cstdint>
#include <vector>

#include "module/module.h"
#include "relation/relation.h"
#include "relation/row_supplier.h"

namespace provview {

/// The largest Γ for which `visible` is safe for the module relation `rel`
/// (schema: `inputs` then `outputs`; rows deduplicated internally):
///   min over inputs x of |OUT_{x,m}|  (saturating at INT64_MAX).
/// `visible` is a set over the catalog universe; attributes of the module
/// outside `visible` are hidden. An empty relation yields INT64_MAX.
int64_t MaxStandaloneGamma(const Relation& rel,
                           const std::vector<AttrId>& inputs,
                           const std::vector<AttrId>& outputs,
                           const Bitset64& visible);

/// Algorithm-2 safety test: true iff m is Γ-standalone-private w.r.t.
/// `visible` (Definition 2).
bool IsStandaloneSafe(const Relation& rel, const std::vector<AttrId>& inputs,
                      const std::vector<AttrId>& outputs,
                      const Bitset64& visible, int64_t gamma);

/// The streaming Γ pass: one pass over `rows` grouping each row by its
/// projection onto the `in_pos` row positions and counting the distinct
/// `out_pos` projections per group (both interned to dense first-seen ids).
/// Returns the minimum distinct-output count over the groups, or INT64_MAX
/// when the supplier yields no rows. The core of the streaming Algorithm-2
/// checker below and of SafetyMemo's pass over streaming views (memos over
/// materialized relations sort flat rows instead) — state is bounded by the
/// distinct projections, not the row count.
int64_t ScanVisibleGroups(RowSupplier* rows, const std::vector<int>& in_pos,
                          const std::vector<int>& out_pos);

/// Streaming Algorithm-2 test: one pass over `rows` (any RowSupplier whose
/// schema covers the module attributes), never materializing the relation.
/// Memory scales with the number of distinct visible projections — the view
/// the adversary actually sees — not with |Dom|, which is what lets modules
/// past the 2^22 materialization wall certify. Identical verdicts to the
/// Relation overload on every input.
int64_t MaxStandaloneGamma(RowSupplier* rows, const std::vector<AttrId>& inputs,
                           const std::vector<AttrId>& outputs,
                           const Bitset64& visible);
bool IsStandaloneSafe(RowSupplier* rows, const std::vector<AttrId>& inputs,
                      const std::vector<AttrId>& outputs,
                      const Bitset64& visible, int64_t gamma);

/// Convenience overloads over the module relation. Domains of at most
/// `materialize_threshold` rows use the materialized fast path; larger
/// domains stream rows straight from the module's function (Module::View).
int64_t MaxStandaloneGamma(
    const Module& module, const Bitset64& visible,
    int64_t materialize_threshold = Module::kDefaultMaterializeRows);
bool IsStandaloneSafe(
    const Module& module, const Bitset64& visible, int64_t gamma,
    int64_t materialize_threshold = Module::kDefaultMaterializeRows);

/// |OUT_{x,m}| for one specific input x (x aligned with `inputs`).
int64_t OutSetSize(const Relation& rel, const std::vector<AttrId>& inputs,
                   const std::vector<AttrId>& outputs, const Bitset64& visible,
                   const Tuple& x);

/// Materializes OUT_{x,m} explicitly (outputs aligned with `outputs`).
/// Intended for small hidden-output spaces; guarded by `max_results`.
std::vector<Tuple> OutSet(const Relation& rel,
                          const std::vector<AttrId>& inputs,
                          const std::vector<AttrId>& outputs,
                          const Bitset64& visible, const Tuple& x,
                          int64_t max_results = 1 << 20);

}  // namespace provview

#endif  // PROVVIEW_PRIVACY_STANDALONE_PRIVACY_H_
