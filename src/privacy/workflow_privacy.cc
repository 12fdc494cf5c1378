#include "privacy/workflow_privacy.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/task_graph.h"
#include "privacy/possible_worlds.h"
#include "privacy/standalone_privacy.h"

namespace provview {

ComposedSolution ComposeStandaloneSolutions(
    const Workflow& workflow,
    const std::vector<Bitset64>& hidden_per_private_module) {
  std::vector<int> private_modules = workflow.PrivateModuleIndices();
  PV_CHECK_MSG(hidden_per_private_module.size() == private_modules.size(),
               "one hidden set per private module expected");
  ComposedSolution out;
  out.hidden = Bitset64(workflow.catalog()->size());
  for (size_t i = 0; i < private_modules.size(); ++i) {
    const Module& m = workflow.module(private_modules[i]);
    PV_CHECK_MSG(hidden_per_private_module[i].IsSubsetOf(m.AttrSet()),
                 "hidden set for " << m.name()
                                   << " must stay within its attributes");
    out.hidden |= hidden_per_private_module[i];
  }
  out.attr_cost = workflow.AttrCost(out.hidden);
  for (int pi : workflow.PublicModuleIndices()) {
    const Module& m = workflow.module(pi);
    if (m.AttrSet().Intersects(out.hidden)) {
      out.privatized_modules.push_back(pi);
      out.privatization_cost += m.privatization_cost();
    }
  }
  return out;
}

std::vector<int64_t> PerModuleStandaloneGamma(const Workflow& workflow,
                                              const Bitset64& hidden) {
  std::vector<int64_t> gammas;
  gammas.reserve(static_cast<size_t>(workflow.num_modules()));
  Bitset64 visible = hidden.Complement();
  for (int i = 0; i < workflow.num_modules(); ++i) {
    const Module& m = workflow.module(i);
    if (m.is_public()) {
      gammas.push_back(std::numeric_limits<int64_t>::max());
    } else {
      gammas.push_back(MaxStandaloneGamma(m, visible));
    }
  }
  return gammas;
}

PrivacyCertificate CertifyWorkflowPrivacy(const Workflow& workflow,
                                          const Bitset64& hidden,
                                          int64_t gamma) {
  WorkflowBatchOptions opts;
  opts.num_threads = 1;  // a single certificate has nothing to fan out
  WorkflowBatchResult batch =
      CertifyWorkflowBatch(workflow, {{hidden, gamma}}, opts);
  return std::move(batch.entries.front().certificate);
}

WorkflowCacheNamespace::WorkflowCacheNamespace(
    const Workflow& workflow, std::shared_ptr<VerdictCache> cache,
    const std::string& label)
    : workflow_(&workflow), cache_(std::move(cache)) {
  if (cache_ == nullptr) {
    // Single-owner store, unbounded: the historical memo-bank behavior.
    cache_ = std::make_shared<VerdictCache>();
  }
  for (int m_index : workflow.PrivateModuleIndices()) {
    const uint32_t ns =
        cache_->RegisterNamespace(label + "/m" + std::to_string(m_index));
    namespaces_.push_back(ns);
    memos_.push_back(std::make_unique<SafetyMemo>(
        workflow.module(m_index), Module::kDefaultMaterializeRows, cache_,
        ns));
  }
}

WorkflowCacheNamespace::~WorkflowCacheNamespace() {
  for (uint32_t ns : namespaces_) cache_->DropNamespace(ns);
}

WorkflowBatchResult CertifyWorkflowBatch(
    const Workflow& workflow,
    const std::vector<WorkflowCertificationRequest>& requests,
    const WorkflowBatchOptions& opts) {
  return CertifyWorkflowBatch(workflow, requests, opts, /*verdicts=*/nullptr);
}

namespace {

// a ⊆ b, false across widths. Inline because the lattice asks it of every
// pair of keys: the out-of-line Bitset64::IsSubsetOf doubles the build.
bool IsSubset(const Bitset64& a, const Bitset64& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.blocks().size(); ++i) {
    if ((a.blocks()[i] & ~b.blocks()[i]) != 0) return false;
  }
  return true;
}

// The ground-truth verdicts of a batch over its distinct (hidden, Γ) keys,
// walked in waves and inferred by monotonicity. Key k lies below key j
// when H_k ⊆ H_j and Γ_k ≥ Γ_j. A view over fewer visible attributes
// admits every world a finer one does, and a lower Γ asks less of the same
// OUT sets, so private(k) ⇒ private(j) and non-private(j) ⇒ non-private(k).
// Each wave is the set of minimal undecided keys, so the schedule depends
// on the key set and the verdicts alone — never on thread count, timing or
// request order.
class MaskLattice {
 public:
  explicit MaskLattice(
      const std::vector<WorkflowCertificationRequest>& requests)
      : requests_(requests), request_key_(requests.size()) {
    std::vector<size_t> order(requests.size());
    for (size_t r = 0; r < order.size(); ++r) order[r] = r;
    auto key_less = [&](size_t a, size_t b) {
      if (requests[a].gamma != requests[b].gamma) {
        return requests[a].gamma < requests[b].gamma;
      }
      return requests[a].hidden < requests[b].hidden;
    };
    std::stable_sort(order.begin(), order.end(), key_less);
    for (size_t r : order) {
      if (key_request_.empty() || key_less(key_request_.back(), r)) {
        key_request_.push_back(r);
      }
      request_key_[r] = key_request_.size() - 1;
    }
    const size_t keys = key_request_.size();
    verdict_.assign(keys, Verdict::kOpen);
    undecided_ = Bitset64::All(static_cast<int>(keys));
    if (keys < 2) return;  // a lone key has nothing to infer
    words_ = undecided_.blocks().size();
    above_.assign(keys * words_, 0);
    below_.assign(keys * words_, 0);
    for (size_t k = 0; k < keys; ++k) {
      const WorkflowCertificationRequest& lo = requests_[key_request_[k]];
      for (size_t j = 0; j < keys; ++j) {
        const WorkflowCertificationRequest& hi = requests_[key_request_[j]];
        if (lo.gamma >= hi.gamma && IsSubset(lo.hidden, hi.hidden)) {
          above_[k * words_ + j / 64] |= uint64_t{1} << (j % 64);
          below_[j * words_ + k / 64] |= uint64_t{1} << (k % 64);
        }
      }
    }
  }

  // The bytes of the comparability rows, charged to the batch's control.
  int64_t RowBytes() const {
    return static_cast<int64_t>((above_.size() + below_.size()) *
                                sizeof(uint64_t));
  }

  bool done() const { return undecided_.empty(); }

  const WorkflowCertificationRequest& key(int k) const {
    return requests_[key_request_[static_cast<size_t>(k)]];
  }

  // The next wave: the minimal undecided keys, an antichain. The lowest
  // keys hide the least, so their walks prune the most and cost the least,
  // and a private verdict there settles every undecided key above it.
  std::vector<int> NextWave() const {
    std::vector<int> wave;
    for (int k = undecided_.First(); k >= 0; k = undecided_.NextAfter(k)) {
      if (words_ == 0 || Undecided(below_, k) == 1) wave.push_back(k);
    }
    return wave;
  }

  // An OK walk of key k: settles k and every undecided key above it
  // (private) or below it (not private).
  void Settle(int k, bool is_private) {
    const Verdict v = is_private ? Verdict::kPrivate : Verdict::kNotPrivate;
    verdict_[static_cast<size_t>(k)] = v;
    undecided_.Reset(k);
    if (words_ == 0) return;
    const uint64_t* row =
        &(is_private ? above_ : below_)[static_cast<size_t>(k) * words_];
    for (int j = undecided_.First(); j >= 0; j = undecided_.NextAfter(j)) {
      if ((row[static_cast<size_t>(j) / 64] >> (j % 64)) & 1u) {
        verdict_[static_cast<size_t>(j)] = v;
        undecided_.Reset(j);
      }
    }
  }

  // A walk that ended non-OK decides nothing, not even its own key.
  void Refuse(int k) { undecided_.Reset(k); }

  bool IsPrivate(size_t request) const {
    return verdict_[request_key_[request]] == Verdict::kPrivate;
  }

 private:
  enum class Verdict : uint8_t { kOpen, kPrivate, kNotPrivate };

  // |rows[k] ∩ undecided|.
  int Undecided(const std::vector<uint64_t>& rows, int k) const {
    const uint64_t* row = &rows[static_cast<size_t>(k) * words_];
    int count = 0;
    for (size_t w = 0; w < words_; ++w) {
      count += std::popcount(row[w] & undecided_.blocks()[w]);
    }
    return count;
  }

  const std::vector<WorkflowCertificationRequest>& requests_;
  std::vector<size_t> key_request_;  // a representative request per key
  std::vector<size_t> request_key_;  // aligned with the requests
  // Comparability rows, words_ words per key (none for a lone key):
  // above_ row k holds the keys j ≥ k, below_ row k the keys j ≤ k, k
  // itself in both.
  size_t words_ = 0;
  std::vector<uint64_t> above_;
  std::vector<uint64_t> below_;
  std::vector<Verdict> verdict_;
  Bitset64 undecided_;
};

}  // namespace

WorkflowBatchResult CertifyWorkflowBatch(
    const Workflow& workflow,
    const std::vector<WorkflowCertificationRequest>& requests,
    const WorkflowBatchOptions& opts, WorkflowCacheNamespace* verdicts) {
  WorkflowBatchResult result;
  const int n = workflow.num_modules();
  result.entries.resize(requests.size());
  const std::vector<int> private_modules = workflow.PrivateModuleIndices();
  const ExecControl* control = opts.control;
  PV_CHECK_MSG(verdicts == nullptr || verdicts->workflow() == &workflow,
               "cache namespace was built for a different workflow");
  if (control != nullptr) {
    // Service mode: structurally invalid requests come back as a typed
    // status instead of tripping a PV_CHECK deeper in the engines.
    for (const WorkflowCertificationRequest& req : requests) {
      if (req.gamma < 1) {
        result.status =
            Status::InvalidArgument("gamma must be >= 1, got " +
                                    std::to_string(req.gamma));
        return result;
      }
    }
    if (control->ExpiredNow()) {
      result.status = control->Check();
      return result;
    }
  }
  if (opts.with_ground_truth) {
    for (int i : opts.visible_public_modules) {
      if (control != nullptr && (i < 0 || i >= n)) {
        result.status = Status::InvalidArgument(
            "visible public module index out of range: " +
            std::to_string(i));
        return result;
      }
      if (control != nullptr && !workflow.module(i).is_public()) {
        result.status = Status::InvalidArgument(
            "module " + std::to_string(i) + " is not public");
        return result;
      }
      PV_CHECK_MSG(workflow.module(i).is_public(),
                   "module " << i << " is not public");
    }
  }
  const int max_threads = ResolveThreads(opts.num_threads);
  const EngineExecutor executor(opts.executor, max_threads);

  // Per-request per-module standalone Γ; public modules carry no
  // requirement and report INT64_MAX (as PerModuleStandaloneGamma does).
  for (WorkflowBatchEntry& e : result.entries) {
    e.certificate.module_gammas.assign(static_cast<size_t>(n),
                                       std::numeric_limits<int64_t>::max());
  }
  std::vector<SafeSearchStats> module_stats(private_modules.size());
  // Without a shared namespace, one batch-local memo per private module:
  // its relation materializes once and every request answers from it, so
  // hidden sets with the same effective-visible signature on the module
  // hit the cache.
  std::vector<std::unique_ptr<SafetyMemo>> local_memos;
  if (verdicts == nullptr) {
    for (int m_index : private_modules) {
      local_memos.push_back(std::make_unique<SafetyMemo>(
          workflow.module(m_index), opts.materialize_threshold));
    }
  }

  // One graph. Each private module is one task that answers every request
  // in request order (the memo is per-module state), so per-module stats and
  // gammas come from the same call sequence at any thread count. Ground
  // truth is a tables task and a lattice task (both overlapping the memo
  // tasks) feeding one driver task that walks the distinct keys in waves.
  // One thread runs the graph inline.
  TaskGraph graph;
  for (size_t mi = 0; mi < private_modules.size(); ++mi) {
    graph.Add([&, mi] {
      const size_t m_index = static_cast<size_t>(private_modules[mi]);
      // Cache-backed memos are concurrent-read safe, so a shared namespace
      // needs no lock — concurrent batches interleave on the cache's
      // striped shards at lookup granularity.
      SafetyMemo* memo = verdicts != nullptr ? verdicts->memo(mi)
                                             : local_memos[mi].get();
      for (size_t r = 0; r < requests.size(); ++r) {
        if (control != nullptr && control->ExpiredNow()) return;
        result.entries[r].certificate.module_gammas[m_index] =
            memo->MaxGamma(requests[r].hidden, &module_stats[mi], nullptr,
                           control);
      }
    });
  }

  // The first non-OK ground-truth status, in wave and key order: the
  // tables' own, or a walk's over-budget refusal.
  std::shared_ptr<const WorkflowTables> tables;
  std::unique_ptr<MaskLattice> lattice;
  int64_t lattice_bytes = 0;
  Status worlds_status;
  if (opts.with_ground_truth) {
    const TaskGraph::TaskId tables_task = graph.Add([&] {
      WorkflowTablesOptions topts;
      topts.control = control;
      topts.num_threads = max_threads;
      topts.executor = executor.get();  // nested Run helps on this executor
      tables = BuildWorkflowTables(workflow, topts);
    });
    const TaskGraph::TaskId lattice_task = graph.Add([&] {
      lattice = std::make_unique<MaskLattice>(requests);
      if (control != nullptr && control->TryCharge(lattice->RowBytes())) {
        lattice_bytes = lattice->RowBytes();
      }
    });
    graph.Add(
        [&] {
          if (!tables->status.ok()) {
            worlds_status = tables->status;
            return;
          }
          struct Walk {
            bool is_private = false;
            Status status;
          };
          while (!lattice->done()) {
            const std::vector<int> wave = lattice->NextWave();
            std::vector<Walk> walks(wave.size());
            // One task per walk, nested on the batch's executor; each walk
            // runs as one walker on its task.
            TaskGraph wave_graph;
            for (size_t w = 0; w < wave.size(); ++w) {
              wave_graph.Add([&, w] {
                const WorkflowCertificationRequest& req = lattice->key(wave[w]);
                WorkflowEnumerationOptions wopts;
                wopts.max_candidates = opts.max_candidates;
                wopts.gamma = req.gamma;
                wopts.collect_distinct_relations = false;
                wopts.control = control;
                std::vector<int64_t> min_out;
                const WorkflowWorlds worlds = WalkWorkflowWorlds(
                    *tables, req.hidden.Complement(),
                    opts.visible_public_modules, wopts, &min_out);
                Walk& out = walks[w];
                out.status = worlds.status;
                out.is_private = true;
                if (!worlds.early_stopped) {
                  for (int i : private_modules) {
                    out.is_private =
                        out.is_private &&
                        min_out[static_cast<size_t>(i)] >= req.gamma;
                  }
                }
              });
            }
            // A tripped control skips the rest; the batch then resets.
            if (!wave_graph.Run(executor.get(), control).ok()) return;
            result.ground_truth_walks += static_cast<int64_t>(wave.size());
            // Only an OK walk decides anything; a refused one leaves its
            // requests false and the first refusal becomes the status.
            for (size_t w = 0; w < wave.size(); ++w) {
              if (walks[w].status.ok()) {
                lattice->Settle(wave[w], walks[w].is_private);
              } else {
                lattice->Refuse(wave[w]);
                if (worlds_status.ok()) worlds_status = walks[w].status;
              }
            }
          }
          for (size_t r = 0; r < requests.size(); ++r) {
            result.entries[r].ground_truth_private = lattice->IsPrivate(r);
          }
        },
        {tables_task, lattice_task});
  }

  (void)graph.Run(executor.get(), control);  // trips surface just below
  // Every walk is done: the tables' and the lattice's charges return to
  // the control (and to its shared pool, if any).
  if (control != nullptr && tables != nullptr) {
    control->Release(tables->charged_bytes);
  }
  if (control != nullptr) control->Release(lattice_bytes);
  for (const SafeSearchStats& s : module_stats) result.stats.Accumulate(s);
  if (control != nullptr && !control->Check().ok()) {
    // Deadline/budget tripped mid-batch: surface the typed status with the
    // partial stats. A trip skips remaining task bodies and stops the
    // module tasks between requests, so the module gammas and ground-truth
    // verdicts are partial; reset every entry so a half-computed Γ can
    // never read as a verdict.
    result.status = control->Check();
    result.entries.assign(requests.size(), WorkflowBatchEntry{});
    return result;
  }
  for (size_t r = 0; r < requests.size(); ++r) {
    PrivacyCertificate& cert = result.entries[r].certificate;
    cert.certified = true;
    for (int i = 0; i < n; ++i) {
      const Module& m = workflow.module(i);
      if (!m.is_public() &&
          cert.module_gammas[static_cast<size_t>(i)] < requests[r].gamma) {
        cert.certified = false;
      }
      if (m.is_public() && m.AttrSet().Intersects(requests[r].hidden)) {
        cert.required_privatizations.push_back(i);
      }
    }
  }
  if (!worlds_status.ok()) result.status = worlds_status;
  return result;
}

int64_t GroundTruthWorkflowGamma(const Workflow& workflow,
                                 const Bitset64& hidden,
                                 const std::vector<int>& visible_public_modules,
                                 int64_t max_candidates) {
  for (int i : visible_public_modules) {
    PV_CHECK_MSG(workflow.module(i).is_public(),
                 "module " << i << " is not public");
  }
  WorkflowEnumerationOptions opts;
  opts.max_candidates = max_candidates;
  WorkflowWorlds worlds = EnumerateWorkflowWorlds(
      workflow, hidden.Complement(), visible_public_modules, opts);
  // No status channel: an over-budget enumeration has empty OUT sets, whose
  // INT64_MAX minimum must not read as "private".
  PV_CHECK_MSG(worlds.status.ok(), worlds.status.message());
  int64_t min_gamma = std::numeric_limits<int64_t>::max();
  for (int i : workflow.PrivateModuleIndices()) {
    min_gamma = std::min(min_gamma, worlds.MinOutSize(i));
  }
  return min_gamma;
}

}  // namespace provview
