// Memoized Algorithm-2 safety verdicts for a fixed module relation, shared
// by the standalone subset searches (safe_subset_search) and the workflow
// batch certification driver (workflow_privacy). One memo level, keyed on
// the effective-visible signature: Algorithm 2's verdict cannot depend on
// attributes whose domain has one value or that are constant across R, so
// hidden sets differing only in such attributes share one cached Γ. Key:
// (effective visible set, hidden-output extension factor). A lookup is
// signature → (miss) one row pass → store.
//
// There is no memo on the induced projection itself: its key would come
// out of the same row pass that computes Γ, so a hit could never save the
// pass it was meant to avoid.
//
// Verdict storage lives in a VerdictCache: a root memo serializes its keys
// into a cache namespace (a private unbounded cache by default, or a
// shared — possibly byte-budgeted — service cache bound at construction).
// The memo itself is a thin view over that store: root memos are safe to
// read concurrently (the cache is sharded and striped-locked; ScanGamma
// only reads the row backend), while NewOverlay() still hands workers O(1)
// private staging views whose lookup logs replay in rank order, keeping
// sharded-search results and SafeSearchStats byte-identical to the
// sequential walk at any thread count. Under a byte budget the cache may
// evict: eviction only forgets a verdict (it is recomputed on the next
// miss), never corrupts one.
//
// Rows are sourced through a RelationView, and a miss runs one of two Γ
// passes over them:
//   * Materialized relation (the small-domain fast case): Init copies the
//     module's local columns (inputs, then outputs) of every row into one
//     flat row-major array. A pass sorts the row indices by (visible-input
//     projection, visible-output projection) — in a stack buffer for small
//     relations — and one sweep over adjacent rows counts the distinct
//     outputs per group: no interner, hash set or supplier per pass.
//     Overlays share the flat rows read-only (they are never written after
//     Init): a worker's pass must see the very rows its base would, and
//     copying them per overlay would cost more than the passes it runs.
//   * Streaming supplier, re-deriving rows from the module's function each
//     pass — which is how subset searches certify modules whose domain
//     exceeds the 2^22 materialization wall. A pass is ScanVisibleGroups,
//     the streaming pass, with state bounded by the distinct projections.
// Both passes compute the same Γ, and both backends run the identical cache
// logic, so they produce byte-identical verdicts and SafeSearchStats.
#ifndef PROVVIEW_PRIVACY_SAFETY_MEMO_H_
#define PROVVIEW_PRIVACY_SAFETY_MEMO_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "module/module.h"
#include "privacy/verdict_cache.h"
#include "relation/relation.h"
#include "relation/row_supplier.h"

namespace provview {

class ExecControl;

/// Instrumentation of a subset search / batch certification.
struct SafeSearchStats {
  int64_t subsets_examined = 0;  ///< candidate subsets considered
  int64_t checker_calls = 0;     ///< Algorithm-2 row passes actually run
  /// Candidates answered from the signature memo instead of a row pass.
  int64_t cache_hits = 0;

  /// Fraction of memo-visible lookups answered without the checker.
  double HitRate() const {
    const int64_t total = checker_calls + cache_hits;
    return total == 0 ? 0.0
                      : static_cast<double>(cache_hits) /
                            static_cast<double>(total);
  }

  void Accumulate(const SafeSearchStats& other) {
    subsets_examined += other.subsets_examined;
    checker_calls += other.checker_calls;
    cache_hits += other.cache_hits;
  }
};

/// Memoizing wrapper around MaxStandaloneGamma for a fixed (rel, I, O).
/// Build once per module and reuse across hidden sets, Γ values, and
/// callers. Root memos (cache-backed) are safe to read concurrently;
/// overlays are single-threaded — one per worker.
class SafetyMemo {
 public:
  /// Borrows `rel`; the caller keeps it alive for the memo's lifetime.
  /// Verdicts go to a private unbounded cache.
  SafetyMemo(const Relation& rel, std::vector<AttrId> inputs,
             std::vector<AttrId> outputs);

  /// Memo over the module relation: materialized when |Dom| is at most
  /// `materialize_threshold`, streamed from the module's function beyond it
  /// (the module must outlive the memo in that case).
  explicit SafetyMemo(
      const Module& module,
      int64_t materialize_threshold = Module::kDefaultMaterializeRows);

  /// As above, but bound to a shared VerdictCache namespace: verdicts are
  /// read from and settle into `cache` under `ns`, so they persist across
  /// requests and survive this memo. The cache may be byte-budgeted;
  /// eviction only forgets verdicts. One namespace per (cache, module).
  SafetyMemo(const Module& module, int64_t materialize_threshold,
             std::shared_ptr<VerdictCache> cache, uint32_t ns);

  /// Memo over an arbitrary row source (private unbounded cache).
  SafetyMemo(RelationView view, std::vector<AttrId> inputs,
             std::vector<AttrId> outputs);

  /// True when verdicts are recomputed by streaming passes instead of reads
  /// of a materialized relation.
  bool streaming() const { return !view_.materialized(); }

  /// Relations up to this many rows sort their row indices in a stack
  /// buffer in the flat-row pass; larger ones use a heap buffer.
  static constexpr size_t kFlatStackRows = 64;

  SafetyMemo(const SafetyMemo&) = delete;
  SafetyMemo& operator=(const SafetyMemo&) = delete;

  /// O(1) worker view for the sharded searches: shares the row backend
  /// and reads this memo's verdicts through a frozen-base pointer, while
  /// its own inserts stay local (a delta, merged back later via Absorb or
  /// replayed with AbsorbLog). The base must not be mutated while overlays
  /// read it — the searches freeze it for the span of a lattice level. The
  /// overlay itself is single-threaded: one per worker.
  std::unique_ptr<SafetyMemo> NewOverlay() const;

  /// Merges an overlay's own verdicts back (deterministic values, so
  /// first-wins insertion is exact). Callers Absorb each shard in shard
  /// order, keeping the merged store identical across thread counts.
  void Absorb(const SafetyMemo& worker);

  /// Ordered record of the lookups one worker performed, replayable with
  /// AbsorbLog. Opaque to callers; definition follows the class.
  struct LookupLog;

  /// MaxStandaloneGamma(rel, I, O, hidden.Complement()), memoized — the
  /// one memo read path. With `log` null (the direct mode) a miss bumps
  /// checker_calls and a hit bumps cache_hits. With a non-null `log` (the
  /// worker mode, formerly MaxGammaLogged) no stats are bumped; the
  /// lookup is appended to the log instead, and the caller replays the
  /// logs with AbsorbLog in deterministic shard order — which
  /// reproduces the *sequential* walk's accounting exactly: a verdict two
  /// concurrent shards both computed collapses back into one checker call
  /// plus one cache hit, so SafeSearchStats are byte-identical to the
  /// single-threaded walk at any thread count. `stats` may be null only in
  /// log mode. A non-null `control` gates cache growth on the request's
  /// memory budget (see VerdictCache::Insert).
  int64_t MaxGamma(const Bitset64& hidden, SafeSearchStats* stats,
                   LookupLog* log = nullptr,
                   const ExecControl* control = nullptr);

  /// Memoized Algorithm-2 safety test (Γ ≥ 1 required); same log/control
  /// contract as MaxGamma.
  bool IsSafe(const Bitset64& hidden, int64_t gamma, SafeSearchStats* stats,
              LookupLog* log = nullptr, const ExecControl* control = nullptr);

  /// Replays a worker log against this memo in order: classifies every
  /// lookup against the current verdict store (cache hit / checker call),
  /// inserts the settled verdicts, and bumps `stats` exactly as a
  /// sequential walk reaching these candidates in this order would.
  /// Under a bounded shared cache an entry may have been evicted between
  /// the worker's lookup and the replay; the logged Γ re-seeds it
  /// (eviction only forgets, the verdict itself is settled).
  void AbsorbLog(const LookupLog& log, SafeSearchStats* stats);

  /// The verdict store this memo settles into (never null for roots;
  /// overlays return their base's cache).
  const std::shared_ptr<VerdictCache>& cache() const {
    return base_ != nullptr ? base_->cache() : cache_;
  }

 private:
  SafetyMemo() = default;  // used by NewOverlay()

  using SignatureKey = std::pair<Bitset64, int64_t>;

  void Init();
  void BindPrivateCache();
  // One Algorithm-2 row pass: the exact Γ of the signature, so a cache
  // miss costs a single pass regardless of backend.
  int64_t ScanGamma(const SignatureKey& sig) const;

  SignatureKey MakeSignature(const Bitset64& hidden) const;

  // Serialized cache key: hidden_ext + effective-visible blocks (the
  // universe is fixed per namespace, so the block count is constant).
  std::string SignatureKeyBytes(const SignatureKey& sig) const;

  // Store lookup/insert: overlays consult their local staging map then
  // fall through to the frozen base; roots go to the cache namespace.
  bool FindSignature(const SignatureKey& sig, int64_t* gamma) const;
  void StoreSignature(const SignatureKey& sig, int64_t gamma,
                      const ExecControl* control);

  // Frozen read-only fallback for overlays; nullptr for root memos.
  const SafetyMemo* base_ = nullptr;

  // Verdict store of a root memo (overlays keep local maps instead).
  std::shared_ptr<VerdictCache> cache_;
  uint32_t ns_ = 0;

  RelationView view_;
  std::vector<AttrId> inputs_;
  std::vector<AttrId> outputs_;
  Bitset64 effective_;  // attrs whose visibility can change the verdict
  // Row positions of the local attributes (inputs then outputs) within the
  // view's schema.
  std::vector<int> local_pos_;
  // Materialized views only (null when streaming): every row's local
  // attributes, inputs then outputs, row-major with local_pos_.size()
  // values per row. Read-only after Init and shared with overlays.
  std::shared_ptr<const std::vector<Value>> flat_rows_;

  // Overlay staging (roots leave it empty and use the cache).
  std::map<SignatureKey, int64_t> signature_staging_;
};

/// One worker's lookup trace: which candidates it resolved, with enough of
/// each resolution (signature, Γ, whether a pass ran) for AbsorbLog to
/// re-classify it against the merged verdict store.
struct SafetyMemo::LookupLog {
  struct Record {
    SignatureKey sig;
    int64_t gamma = 0;
    bool scanned = false;  // the worker missed the memo and ran the row pass
  };
  std::vector<Record> records;
};

}  // namespace provview

#endif  // PROVVIEW_PRIVACY_SAFETY_MEMO_H_
