// Standalone Secure-View search (§3): enumerate hidden attribute subsets of
// a single module and find (a) the minimum-cost safe one, (b) the antichain
// of minimal safe subsets, and (c) the minimal safe cardinality pairs.
// These searches are exponential in k = |I| + |O| — exactly the complexity
// the paper proves unavoidable (Theorems 1–3) — but k is small in practice
// (§3.2 Remarks), and the outputs are the building blocks of the workflow
// Secure-View problem: (b) yields the set-constraint lists L_i and (c) the
// cardinality-constraint lists of §4.2.
#ifndef PROVVIEW_PRIVACY_SAFE_SUBSET_SEARCH_H_
#define PROVVIEW_PRIVACY_SAFE_SUBSET_SEARCH_H_

#include <cstdint>
#include <vector>

#include "common/engine_config.h"
#include "common/exec_control.h"
#include "module/module.h"
#include "privacy/safety_memo.h"

namespace provview {

class TaskGraphExecutor;

/// Knobs of the subset-lattice searches. The shared execution knobs
/// (num_threads, executor, control) come from the embedded EngineConfig.
///
/// The lattice walk is level-synchronous: subsets of one cardinality are
/// pairwise incomparable, so a level can shard across worker threads
/// (contiguous lexicographic rank ranges via ForEachSubsetOfSizeRange) with
/// dominance checked only against the minimal sets of strictly smaller
/// levels — results and their order are identical to the sequential walk
/// for every thread count.
///
/// With more than one resolved thread, the rank ranges run as TaskGraph
/// tasks on O(1) SafetyMemo overlays of the frozen level-start memo, and a
/// per-level absorb chain replays each shard's lookup log in rank order
/// the moment the shard finishes — overlapping memo merges with later
/// shards' compute. Log replay makes SafeSearchStats byte-identical to the
/// sequential walk at every thread count.
///
/// A control trip makes the searches return early with whatever they have
/// (MinimalSafeHiddenSets: the minimal sets of fully completed levels;
/// MinimalSafeCardinalityPairs: a frontier that must be discarded). Callers
/// MUST treat results as partial whenever control->Check() is non-OK
/// afterwards.
struct SubsetSearchOptions : EngineConfig {
  /// Module domains of at most this many rows use the materialized
  /// relation fast path; larger domains stream rows from the module's
  /// function on every checker pass.
  int64_t materialize_threshold = Module::kDefaultMaterializeRows;
  /// Levels with at most this many subsets always run inline (the task /
  /// memo-overlay overhead would dominate).
  int64_t min_parallel_subsets = 4096;
};

/// Largest k = |I| + |O| the lattice searches accept. 2^24 subsets is the
/// point where even the sharded walk stops being interactive.
inline constexpr int kMaxSubsetSearchAttrs = 24;

/// Result of the minimum-cost search.
struct MinCostSafeResult {
  bool found = false;
  Bitset64 hidden;  ///< minimum-cost safe hidden subset (over the catalog)
  double cost = 0.0;
  SafeSearchStats stats;
};

/// All minimal (w.r.t. set inclusion) safe hidden subsets of the module's
/// attributes for privacy level `gamma`. By Proposition 1 safety is
/// monotone under adding hidden attributes, so these minimal sets describe
/// the full safe family. k = |I|+|O| must be ≤ 24; sharded searches
/// (SubsetSearchOptions::num_threads) keep k = 24 tractable.
std::vector<Bitset64> MinimalSafeHiddenSets(const Relation& rel,
                                            const std::vector<AttrId>& inputs,
                                            const std::vector<AttrId>& outputs,
                                            int64_t gamma,
                                            SafeSearchStats* stats = nullptr);

/// As above, but reusing a caller-owned SafetyMemo (for the module of
/// `memo`), so repeated searches — different Γ values, batch drivers —
/// share one verdict cache. Accumulates into `stats` instead of resetting.
std::vector<Bitset64> MinimalSafeHiddenSets(SafetyMemo* memo,
                                            const std::vector<AttrId>& inputs,
                                            const std::vector<AttrId>& outputs,
                                            int universe, int64_t gamma,
                                            SafeSearchStats* stats);

/// Full-control overload: sharded level-parallel walk over a caller-owned
/// memo.
std::vector<Bitset64> MinimalSafeHiddenSets(SafetyMemo* memo,
                                            const std::vector<AttrId>& inputs,
                                            const std::vector<AttrId>& outputs,
                                            int universe, int64_t gamma,
                                            SafeSearchStats* stats,
                                            const SubsetSearchOptions& opts);

/// Minimum-cost safe hidden subset using catalog attribute costs. With
/// non-negative costs the optimum is attained at a minimal safe subset.
MinCostSafeResult MinCostSafeHiddenSet(const Relation& rel,
                                       const std::vector<AttrId>& inputs,
                                       const std::vector<AttrId>& outputs,
                                       int64_t gamma);

/// Convenience overloads over the module relation. Domains of at most
/// `opts.materialize_threshold` rows use the materialized fast path; larger
/// domains stream rows from the module's function on every checker pass, so
/// the searches work past the 2^22 materialization wall (subject to the
/// k <= 24 subset-space limit).
std::vector<Bitset64> MinimalSafeHiddenSets(
    const Module& module, int64_t gamma, SafeSearchStats* stats = nullptr,
    const SubsetSearchOptions& opts = {});
MinCostSafeResult MinCostSafeHiddenSet(const Module& module, int64_t gamma,
                                       const SubsetSearchOptions& opts = {});

/// A cardinality requirement pair (α, β): hiding ANY α inputs and β outputs
/// of the module is safe (§4.2, cardinality constraints).
struct CardinalityPair {
  int alpha = 0;
  int beta = 0;
  bool operator==(const CardinalityPair& o) const {
    return alpha == o.alpha && beta == o.beta;
  }
};

/// The minimal frontier of safe cardinality pairs for the module: all
/// pairs (α, β) such that every subset hiding exactly α inputs and β
/// outputs is safe for `gamma`, minimized coordinatewise (the list L_i the
/// paper's cardinality-constraint Secure-View instances carry; e.g. a
/// one-one k-bit module with Γ = 2^k yields {(k,0), (0,k)}, Example 6).
/// Returns an empty list when not even hiding everything is safe.
std::vector<CardinalityPair> MinimalSafeCardinalityPairs(
    const Relation& rel, const std::vector<AttrId>& inputs,
    const std::vector<AttrId>& outputs, int64_t gamma);

/// As above over a caller-owned memo (any row backend, shared verdict
/// cache).
std::vector<CardinalityPair> MinimalSafeCardinalityPairs(
    SafetyMemo* memo, const std::vector<AttrId>& inputs,
    const std::vector<AttrId>& outputs, int universe, int64_t gamma);

/// Full-control overload: the (α, β) grid cells are independent given the
/// memo, so cells shard into task-graph tasks (each cell ANDs its subset
/// family with an early break, exactly the verdict the sequential
/// evaluation computes). Accumulates into `stats` when non-null.
std::vector<CardinalityPair> MinimalSafeCardinalityPairs(
    SafetyMemo* memo, const std::vector<AttrId>& inputs,
    const std::vector<AttrId>& outputs, int universe, int64_t gamma,
    const SubsetSearchOptions& opts, SafeSearchStats* stats = nullptr);

std::vector<CardinalityPair> MinimalSafeCardinalityPairs(
    const Module& module, int64_t gamma, const SubsetSearchOptions& opts = {});

}  // namespace provview

#endif  // PROVVIEW_PRIVACY_SAFE_SUBSET_SEARCH_H_
