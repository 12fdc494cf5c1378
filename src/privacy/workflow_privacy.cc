#include "privacy/workflow_privacy.h"

#include <algorithm>
#include <limits>
#include <mutex>

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
  // truth is a tables task (overlapping the memo tasks) feeding
  // per-request enumerations, whose walks shard on this same executor. One
  // thread runs the graph inline.
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

  // First non-OK ground-truth status across the fanned-out requests (all
  // derive from the shared control or from a per-request space blowup).
  std::shared_ptr<const WorkflowTables> tables;
  std::mutex status_mu;
  Status worlds_status;
  auto note_status = [&](const Status& st) {
    std::lock_guard<std::mutex> g(status_mu);
    if (worlds_status.ok()) worlds_status = st;
  };
  if (opts.with_ground_truth) {
    const TaskGraph::TaskId tables_task = graph.Add([&] {
      WorkflowTablesOptions topts;
      topts.control = control;
      topts.num_threads = max_threads;
      topts.executor = executor.get();  // nested Run helps on this executor
      tables = BuildWorkflowTables(workflow, topts);
    });
    for (size_t r = 0; r < requests.size(); ++r) {
      graph.Add(
          [&, r] {
            if (!tables->status.ok()) {
              note_status(tables->status);
              return;
            }
            // The walk's Γ-directed probe runs on this task; a walk the
            // probe cannot settle shards its first branch point on the
            // batch's executor, where idle runners steal the shards.
            WorkflowEnumerationOptions wopts;
            wopts.max_candidates = opts.max_candidates;
            wopts.gamma = requests[r].gamma;
            wopts.collect_distinct_relations = false;
            wopts.num_threads = max_threads;
            wopts.executor = executor.get();
            wopts.control = control;
            WorkflowWorlds worlds = EnumerateWorkflowWorlds(
                *tables, requests[r].hidden.Complement(),
                opts.visible_public_modules, wopts);
            if (!worlds.status.ok()) {
              note_status(worlds.status);
              return;  // leave ground_truth_private at its default (false)
            }
            bool is_private = true;
            if (!worlds.early_stopped) {
              for (int i : private_modules) {
                is_private = is_private &&
                             worlds.MinOutSize(i) >= requests[r].gamma;
              }
            }
            result.entries[r].ground_truth_private = is_private;
          },
          {tables_task});
    }
  }

  (void)graph.Run(executor.get(), control);  // trips surface just below
  // Every walk is done: the tables' charge returns to the control (and to
  // its shared pool, if any).
  if (control != nullptr && tables != nullptr) {
    control->Release(tables->charged_bytes);
  }
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
