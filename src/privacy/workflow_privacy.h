// Workflow-level privacy guarantees assembled from standalone guarantees:
//   Theorem 4 (all-private): if each private module m_i is Γ-standalone-
//   private w.r.t. V_i, the workflow is Γ-private w.r.t. V with V̄ = ∪ V̄_i.
//   Theorem 8 (general): additionally privatize every public module with a
//   hidden adjacent attribute; the remaining (visible) public modules keep
//   all attributes visible.
// This header provides certification (sufficient-condition checking), the
// composed solution assembly, and a ground-truth Γ computed by brute-force
// world enumeration for tiny workflows.
#ifndef PROVVIEW_PRIVACY_WORKFLOW_PRIVACY_H_
#define PROVVIEW_PRIVACY_WORKFLOW_PRIVACY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/engine_config.h"
#include "common/exec_control.h"
#include "privacy/safety_memo.h"
#include "privacy/verdict_cache.h"
#include "workflow/workflow.h"

namespace provview {

class TaskGraphExecutor;

/// A composed Secure-View solution for a workflow (§5.2 cost model: hidden
/// attributes pay c(a), privatized public modules pay c(m)).
struct ComposedSolution {
  Bitset64 hidden;                        ///< V̄, over the catalog
  std::vector<int> privatized_modules;    ///< P̄ (indices of hidden publics)
  double attr_cost = 0.0;
  double privatization_cost = 0.0;
  double total_cost() const { return attr_cost + privatization_cost; }
};

/// Theorem 4 / 8 assembly: unions per-private-module hidden sets (aligned
/// with workflow.PrivateModuleIndices()) and privatizes every public module
/// with a hidden input or output attribute.
ComposedSolution ComposeStandaloneSolutions(
    const Workflow& workflow,
    const std::vector<Bitset64>& hidden_per_private_module);

/// Largest Γ for which each module is standalone-private w.r.t. the visible
/// attributes induced by `hidden` (entry i corresponds to module index i;
/// public modules get INT64_MAX since they carry no privacy requirement).
std::vector<int64_t> PerModuleStandaloneGamma(const Workflow& workflow,
                                              const Bitset64& hidden);

/// Certificate produced by CertifyWorkflowPrivacy.
struct PrivacyCertificate {
  bool certified = false;             ///< all private modules reach Γ
  std::vector<int64_t> module_gammas; ///< per module standalone Γ
  /// Public modules that must be privatized for the Thm-8 argument to apply
  /// (those with a hidden adjacent attribute).
  std::vector<int> required_privatizations;
};

/// Sufficient-condition certification of Γ-workflow-privacy for a hidden
/// attribute set: every private module must be Γ-standalone-private w.r.t.
/// its local visible attributes (Theorems 4/8). Sound but — only in the
/// presence of public modules kept visible — not complete.
PrivacyCertificate CertifyWorkflowPrivacy(const Workflow& workflow,
                                          const Bitset64& hidden,
                                          int64_t gamma);

/// One batch certification request: a candidate hidden attribute set and
/// its privacy target Γ.
struct WorkflowCertificationRequest {
  Bitset64 hidden;   ///< V̄ over the catalog universe
  int64_t gamma = 1;
};

/// Knobs of the batch certification driver. The shared execution knobs
/// come from the embedded EngineConfig: num_threads defaults to 0 here
/// (hardware concurrency — certification parallelizes over private
/// modules, ground truth over the walks of a wave and within each walk).
/// The batch runs as one dependency graph — one task per private module
/// answering every request in order and, with ground truth, a tables task
/// and a lattice task feeding one driver task — inline at one resolved
/// thread, with field-identical results at any thread count. Ground truth
/// is monotone in (hidden set, Γ): hiding more or asking a lower Γ never
/// turns a private verdict non-private. So the driver dedupes the requests
/// into distinct (hidden, Γ) keys and walks them in waves. Each wave is the
/// set of minimal undecided keys, walked as a nested graph on the batch's
/// executor (`executor` when given, e.g. the daemon's work-stealing pool;
/// else one private executor per batch, never one per walk), one task per
/// walk. Between waves every undecided key above a private walk or below a
/// non-private one is settled without a walk. The schedule depends on the
/// request set alone, so the walk count, the verdicts and the status are
/// the same at any thread count and in any request order. `control` is
/// polled between requests, between waves and at engine chunk boundaries,
/// a trip surfacing as WorkflowBatchResult::status — partial stats, no
/// certified verdicts. Every running walk charges one walker's state, the
/// same at any thread count, so the peak charge grows only with the walks
/// a wave runs at once; the tables' and the lattice rows' charges are held
/// until the last wave ends, and the batch returns with every charge
/// released. With or without a control, a ground-truth table build or walk
/// over its size budget surfaces there as RESOURCE_EXHAUSTED.
struct WorkflowBatchOptions : EngineConfig {
  WorkflowBatchOptions() { num_threads = 0; }

  /// Additionally decide every request's Γ-privacy with the pruned
  /// possible-worlds engine, the Γ short-circuit engaged (tiny workflows
  /// only): one WorkflowTables build shared by every walk, and walks only
  /// for the keys that monotone inference from earlier waves leaves open.
  bool with_ground_truth = false;
  /// Public modules held fixed for the ground-truth enumeration
  /// (Definition 4); ignored unless with_ground_truth.
  std::vector<int> visible_public_modules;
  /// Pruned-space budget for each ground-truth walk.
  int64_t max_candidates = 40000000;
  /// Private-module domains of at most this many rows materialize their
  /// relation in the batch-local memos; larger domains stream rows from the
  /// module's function on every checker pass. A batch answering from a
  /// WorkflowCacheNamespace uses the namespace's memos, whose threshold was
  /// fixed when it bound.
  int64_t materialize_threshold = Module::kDefaultMaterializeRows;
};

/// Per-request batch output.
struct WorkflowBatchEntry {
  PrivacyCertificate certificate;
  /// Γ-privacy verdict from possible-worlds enumeration; meaningful only
  /// when the batch ran with_ground_truth.
  bool ground_truth_private = false;
};

struct WorkflowBatchResult {
  std::vector<WorkflowBatchEntry> entries;  ///< aligned with the requests
  /// Aggregated Algorithm-2 memo statistics: every private module keeps one
  /// SafetyMemo across the whole batch, so requests whose hidden sets
  /// have the same effective-visible signature on a module share one
  /// checker call.
  SafeSearchStats stats;
  /// Ground-truth walks the batch ran (0 without ground truth); the other
  /// distinct requests were inferred from them by monotonicity. Partial, as
  /// `stats`, when a control tripped.
  int64_t ground_truth_walks = 0;
  /// Non-OK when a service-mode control tripped (DEADLINE_EXCEEDED /
  /// RESOURCE_EXHAUSTED) or a request was structurally invalid
  /// (INVALID_ARGUMENT). Entries then carry no certified verdicts — only
  /// `stats` reflects the partial work done. Also RESOURCE_EXHAUSTED when
  /// a ground-truth table build or walk exceeded its size budget; the
  /// certificates then stand and the refused requests keep
  /// ground_truth_private false. A refused walk decides nothing, while the
  /// verdicts of the OK walks still settle the keys they imply.
  Status status;
};

/// One workflow's verdict namespaces in a VerdictCache: a cache-backed
/// SafetyMemo per private module, aligned with
/// workflow.PrivateModuleIndices(), each bound to its own namespace of the
/// cache. Cache-backed memos are safe to read concurrently (the cache is
/// sharded and striped-locked), so concurrent batches — e.g. daemon
/// connections certifying against the same registered workflow — share
/// settled verdicts without per-module mutexes, and a byte-budgeted shared
/// cache bounds the daemon's verdict memory (its eviction only forgets
/// verdicts, never corrupts them). Pass no cache for a private unbounded
/// one — the historical single-owner behavior. Destroying the object drops
/// its namespaces and every verdict filed under them from the cache, so an
/// unregistered workflow gives its cache bytes back. The memos fix their
/// materialization threshold when the namespace binds
/// (Module::kDefaultMaterializeRows); WorkflowBatchOptions'
/// materialize_threshold does not reach them.
class WorkflowCacheNamespace {
 public:
  /// Binds one namespace per private module of `workflow` in `cache`
  /// (nullptr = a private unbounded cache). `label` prefixes the
  /// namespace's diagnostic labels.
  explicit WorkflowCacheNamespace(const Workflow& workflow,
                                  std::shared_ptr<VerdictCache> cache = nullptr,
                                  const std::string& label = "workflow");
  ~WorkflowCacheNamespace();

  WorkflowCacheNamespace(const WorkflowCacheNamespace&) = delete;
  WorkflowCacheNamespace& operator=(const WorkflowCacheNamespace&) = delete;

  const Workflow* workflow() const { return workflow_; }
  size_t size() const { return memos_.size(); }
  /// Cache-backed memo of the mi-th private module (concurrent-read safe).
  SafetyMemo* memo(size_t mi) { return memos_[mi].get(); }
  const std::shared_ptr<VerdictCache>& cache() const { return cache_; }

 private:
  const Workflow* workflow_;
  std::shared_ptr<VerdictCache> cache_;
  std::vector<uint32_t> namespaces_;
  std::vector<std::unique_ptr<SafetyMemo>> memos_;
};

/// Certifies many candidate hidden sets / Γ targets in one pass. Unlike
/// calling CertifyWorkflowPrivacy per candidate — which re-materializes
/// every module relation and re-runs Algorithm 2 from scratch each time —
/// the batch driver materializes each private module's relation once,
/// shares a per-module SafetyMemo across all requests, runs each module's
/// requests as one task, and (optionally) decides ground truth over the
/// lattice of distinct (hidden, Γ) keys: waves of minimal undecided keys
/// are walked on one set of possible-worlds tables, and every other key is
/// inferred by monotonicity. Each walk is one task and runs as one walker,
/// its Γ-directed probe first.
WorkflowBatchResult CertifyWorkflowBatch(
    const Workflow& workflow,
    const std::vector<WorkflowCertificationRequest>& requests,
    const WorkflowBatchOptions& opts = {});

/// As above, answering from (and settling into) a caller-owned cache
/// namespace so verdicts persist across batches (and across connections
/// when the namespace is bound to a shared daemon cache). `verdicts` must
/// have been built for this workflow; pass nullptr for the single-batch
/// behavior.
WorkflowBatchResult CertifyWorkflowBatch(
    const Workflow& workflow,
    const std::vector<WorkflowCertificationRequest>& requests,
    const WorkflowBatchOptions& opts, WorkflowCacheNamespace* verdicts);

/// Ground truth via brute-force world enumeration (tiny workflows only):
/// min over private modules and their original inputs of |OUT_{x,W}|, with
/// the public modules in `visible_public_modules` held fixed (Definition 4)
/// and all other modules free. The workflow is Γ-private iff the returned
/// value is ≥ Γ. Aborts with the enumerator's message when the tables or the
/// pruned world space exceed their budgets.
int64_t GroundTruthWorkflowGamma(const Workflow& workflow,
                                 const Bitset64& hidden,
                                 const std::vector<int>& visible_public_modules,
                                 int64_t max_candidates = 40000000);

}  // namespace provview

#endif  // PROVVIEW_PRIVACY_WORKFLOW_PRIVACY_H_
