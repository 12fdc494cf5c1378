#include "workloads.h"

#include <algorithm>
#include <utility>

#include "common/rng.h"
#include "common/task_graph.h"
#include "generators/random_workflow.h"
#include "lp/simplex.h"
#include "privacy/workflow_privacy.h"
#include "secureview/feasibility.h"
#include "secureview/ilp_encoding.h"
#include "secureview/workflow_exact.h"
#include "server/registry.h"
#include "workflow/fig1_workflow.h"

namespace perfbench {

using namespace provview;

namespace {

// Masks per workflow handed to the layer probes (one cold batch).
constexpr size_t kProbeMasks = 16;

Bitset64 RandomMask(int num_attrs, double p_hidden, Rng* rng) {
  Bitset64 m(num_attrs);
  for (int a = 0; a < num_attrs; ++a) {
    if (rng->NextBernoulli(p_hidden)) m.Set(a);
  }
  return m;
}

CertifyEntry ToWire(const WorkflowBatchEntry& e) {
  CertifyEntry out;
  out.certified = e.certificate.certified;
  out.module_gammas = e.certificate.module_gammas;
  for (int m : e.certificate.required_privatizations) {
    out.required_privatizations.push_back(static_cast<uint32_t>(m));
  }
  return out;
}

bool SameEntry(const CertifyEntry& a, const CertifyEntry& b) {
  return a.certified == b.certified && a.module_gammas == b.module_gammas &&
         a.required_privatizations == b.required_privatizations;
}

ProbeWorkflow ProbeOf(std::string name, CatalogPtr catalog,
                      std::shared_ptr<const Workflow> wf,
                      std::vector<Bitset64> masks) {
  ProbeWorkflow p;
  p.name = std::move(name);
  p.catalog = std::move(catalog);
  p.workflow = std::move(wf);
  p.masks = std::move(masks);
  PV_CHECK_MSG(SerializeProbe(&p), "probe workflow does not serialize");
  return p;
}

// fig1 with all 32 hidden subsets of {a3..a7}: the paper's running example
// and the enumeration probe of workloads whose own workflows are too large
// for ground truth.
ProbeWorkflow Fig1Probe() {
  Fig1Workflow fig1 = MakeFig1Workflow();
  const int attrs[] = {fig1.a3, fig1.a4, fig1.a5, fig1.a6, fig1.a7};
  std::vector<Bitset64> masks;
  for (uint32_t bits = 0; bits < 32; ++bits) {
    Bitset64 m(fig1.catalog->size());
    for (int b = 0; b < 5; ++b) {
      if ((bits >> b) & 1u) m.Set(attrs[b]);
    }
    masks.push_back(std::move(m));
  }
  return ProbeOf("fig1", fig1.catalog,
                 std::shared_ptr<const Workflow>(std::move(fig1.workflow)),
                 std::move(masks));
}

std::vector<Bitset64> Prefix(const std::vector<Bitset64>& v, size_t n) {
  return {v.begin(), v.begin() + static_cast<std::ptrdiff_t>(std::min(n, v.size()))};
}

std::unique_ptr<TaskGraphExecutor> MakeExecutor() {
  const int workers = HardwareThreads() - 1;
  return workers > 0 ? std::make_unique<TaskGraphExecutor>(workers) : nullptr;
}

// ----------------------------------------------------------- solve-exact --
// SolveExactForWorkflow (Γ=2, set constraints, semantics verified) over
// seeded 24-module layered workflows of the E10 family, one caller, the
// branch-and-bound at full width. Every item is a new workflow, so a run
// averages over hundreds of instances. Generating a workflow and checking
// its result are the benchmark's own work: the window's clock stops for
// them, and only the solves are counted.
class SolveExactWorkload : public Workload {
 public:
  bool Prepare(uint64_t seed, std::string* error) override {
    (void)error;
    seed_ = seed;
    rng_ = Rng(seed);
    Rng canary_rng(kCanarySeed);
    canaries_.clear();
    for (int i = 0; i < kCanaries; ++i) {
      canaries_.push_back(Generate(&canary_rng));
    }
    return true;
  }

  // Set-up: the engine executor, then solves of fixed (seed-free) canary
  // workflows that pay every lazy first-use cost. Several, so the set-up is
  // mostly solver work rather than thread start-up.
  bool Setup(std::string* error) override {
    Teardown();
    executor_ = MakeExecutor();
    for (const Entry& canary : canaries_) {
      if (!Solve(canary).ok) {
        *error = "warm-up solve failed";
        return false;
      }
    }
    return true;
  }

  WindowResult Window(SliceClock* clock) override {
    WindowResult out;
    out.logs.resize(1);
    LatencyLog& log = out.logs[0];
    clock->Start();
    while (!clock->Poll()) {
      clock->Pause();
      const Entry e = Generate(&rng_);
      clock->Resume();
      const auto s0 = Clock::now();
      const Item it = Solve(e);
      const auto s1 = Clock::now();
      const double at = clock->Elapsed();
      clock->Pause();
      ++out.attempted;
      if (!it.ok) {
        ++out.failed;
        ++log.failed_samples;
        clock->Resume();
        continue;
      }
      // Oracle: feasible for the derived instance, proven optimal (gap 0),
      // semantics verified against the workflow itself, and no cheaper
      // than the root LP relaxation.
      const LpSolution root = SolveLp(EncodeSecureView(it.instance).lp);
      const bool good = it.result.gap == 0.0 && it.verified &&
                        IsFeasible(it.instance, it.result.solution) &&
                        root.status.ok() &&
                        it.result.cost >= root.objective - 1e-6;
      log.Add(MsBetween(s0, s1), at, good ? 1.0 : 0.0);
      if (!good && out.errors.size() < 4) {
        out.errors.push_back("an exact solve failed its oracle");
      }
      clock->Resume();
    }
    return out;
  }

  // The first workflows of the seed's sequence, with seeded masks.
  ProbeSet Probes() override {
    ProbeSet p;
    Rng rng(seed_);
    Rng mask_rng(seed_ ^ kCanarySeed);
    for (int i = 0; i < kProbeWorkflows; ++i) {
      const Entry e = Generate(&rng);
      std::vector<Bitset64> masks;
      for (size_t m = 0; m < kProbeMasks; ++m) {
        masks.push_back(RandomMask(e.workflow->num_attrs(), 0.35, &mask_rng));
      }
      p.workflows.push_back(ProbeOf("solve-probe-" + std::to_string(i),
                                    e.catalog, e.workflow, std::move(masks)));
    }
    p.worlds.push_back(Fig1Probe());
    return p;
  }

  void Teardown() override { executor_.reset(); }

 private:
  static constexpr int kProbeWorkflows = 4;
  static constexpr uint64_t kCanarySeed = 0x63616e61u;
  static constexpr int kCanaries = 4;
  struct Entry {
    CatalogPtr catalog;
    std::shared_ptr<const Workflow> workflow;
  };
  struct Item {
    bool ok = false;
    bool verified = false;
    SvResult result;
    SecureViewInstance instance;
  };

  static Entry Generate(Rng* rng) {
    RandomWorkflowOptions wopt;  // the E10 family, at 24 modules
    wopt.num_modules = 24;
    wopt.num_layers = 3;
    wopt.min_inputs = 2;
    wopt.max_inputs = 3;
    wopt.max_outputs = 2;
    wopt.gamma_bound = 3;
    wopt.reuse_probability = 0.8;
    GeneratedWorkflow gen = MakeRandomWorkflow(wopt, rng);
    return {gen.catalog, std::shared_ptr<const Workflow>(std::move(gen.workflow))};
  }

  Item Solve(const Entry& e) {
    WorkflowExactOptions opts;
    opts.gamma = kGamma;
    opts.kind = ConstraintKind::kSet;
    opts.verify_semantics = true;
    opts.exact.bnb.num_threads = HardwareThreads();
    opts.exact.bnb.executor = executor_.get();
    WorkflowExactResult r = SolveExactForWorkflow(*e.workflow, opts);
    Item it;
    it.ok = r.result.status.ok();
    it.verified = r.semantics_verified;
    it.result = std::move(r.result);
    it.instance = std::move(r.instance);
    return it;
  }

  uint64_t seed_ = 0;
  Rng rng_;
  std::vector<Entry> canaries_;
  std::unique_ptr<TaskGraphExecutor> executor_;
};

// ---------------------------------------------------------- worlds-audit --
// CertifyWorkflowBatch with ground truth over every hidden subset of the
// built-ins whose possible worlds are tractable to enumerate (fig1's 32
// masks over a3..a7, all 64 masks of prop2-chain and example7-chain), in
// rounds of one batch per workflow, each batch in a seeded order.
class WorldsAudit : public Workload {
 public:
  bool Prepare(uint64_t seed, std::string* error) override {
    (void)error;
    seed_ = seed;
    targets_.push_back(Fig1Probe());
    local_.RegisterBuiltins();
    for (const char* name : {"prop2-chain", "example7-chain"}) {
      auto entry = local_.Find(name);
      const int n = entry->workflow->num_attrs();
      std::vector<Bitset64> masks;
      for (uint32_t bits = 0; bits < (1u << n); ++bits) {
        Bitset64 m(n);
        for (int a = 0; a < n; ++a) {
          if ((bits >> a) & 1u) m.Set(a);
        }
        masks.push_back(std::move(m));
      }
      targets_.push_back(ProbeOf(
          name, entry->catalog,
          std::shared_ptr<const Workflow>(entry, entry->workflow.get()),
          std::move(masks)));
    }
    for (Target& t : targets_) {
      WorkflowBatchOptions opts;
      opts.with_ground_truth = true;
      const WorkflowBatchResult r =
          CertifyWorkflowBatch(*t.workflow, Requests(t.masks), opts);
      PV_CHECK_MSG(r.status.ok(), "oracle ground-truth batch failed");
      for (const WorkflowBatchEntry& e : r.entries) {
        t.expected.push_back(ToWire(e));
        t.expected_private.push_back(e.ground_truth_private);
      }
    }
    return true;
  }

  // Set-up: the engine executor, then one fig1 batch in mask order.
  bool Setup(std::string* error) override {
    Teardown();
    executor_ = MakeExecutor();
    std::vector<size_t> order(targets_[0].masks.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    WindowResult scratch;
    scratch.logs.resize(1);
    RunBatch(targets_[0], order, nullptr, &scratch);
    if (!scratch.errors.empty()) *error = scratch.errors[0];
    return scratch.errors.empty();
  }

  WindowResult Window(SliceClock* clock) override {
    WindowResult out;
    out.logs.resize(1);
    Rng rng(seed_ * 1000003u);
    clock->Start();
    for (size_t n = 0; !clock->Poll(); ++n) {
      const Target& t = targets_[n % targets_.size()];
      std::vector<size_t> order(t.masks.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      rng.Shuffle(&order);
      RunBatch(t, order, clock, &out);
    }
    return out;
  }

  ProbeSet Probes() override {
    ProbeSet p;
    for (const Target& t : targets_) {
      ProbeWorkflow w = t;
      w.masks = Prefix(t.masks, kProbeMasks);
      p.workflows.push_back(std::move(w));
      p.worlds.push_back(t);
    }
    return p;
  }

  void Teardown() override { executor_.reset(); }

 private:
  struct Target : ProbeWorkflow {
    Target(ProbeWorkflow p) : ProbeWorkflow(std::move(p)) {}  // NOLINT
    std::vector<CertifyEntry> expected;
    std::vector<bool> expected_private;
  };

  // One batch in `order`; latency per batch, oracle after the stamp.
  // `clock` (null during set-up) gives the completion time.
  void RunBatch(const Target& t, const std::vector<size_t>& order,
                const SliceClock* clock, WindowResult* out) {
    std::vector<WorkflowCertificationRequest> requests;
    for (size_t i : order) requests.push_back({t.masks[i], kGamma});
    WorkflowBatchOptions opts;
    opts.with_ground_truth = true;
    opts.executor = executor_.get();
    opts.num_threads = HardwareThreads();
    const auto t0 = Clock::now();
    const WorkflowBatchResult r =
        CertifyWorkflowBatch(*t.workflow, requests, opts);
    const auto t1 = Clock::now();
    const double at = clock == nullptr ? 0.0 : clock->Elapsed();
    out->attempted += static_cast<int64_t>(requests.size());
    if (!r.status.ok()) {
      out->failed += static_cast<int64_t>(requests.size());
      ++out->logs[0].failed_samples;
      return;
    }
    double right = 0;
    for (size_t k = 0; k < order.size(); ++k) {
      const WorkflowBatchEntry& e = r.entries[k];
      // Theorem 4/8 soundness: a certified view is ground-truth private.
      const bool sound = !e.certificate.certified || e.ground_truth_private;
      if (sound && SameEntry(ToWire(e), t.expected[order[k]]) &&
          e.ground_truth_private == t.expected_private[order[k]]) {
        right += 1;
      } else if (out->errors.size() < 4) {
        out->errors.push_back(t.name + ": audit entry failed its oracle");
      }
    }
    out->logs[0].Add(MsBetween(t0, t1), at, right);
  }

  uint64_t seed_ = 0;
  WorkflowRegistry local_;  // the same built-ins podsd registers
  std::vector<Target> targets_;
  std::unique_ptr<TaskGraphExecutor> executor_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "solve-exact") return std::make_unique<SolveExactWorkload>();
  if (name == "worlds-audit") return std::make_unique<WorldsAudit>();
  return nullptr;
}

}  // namespace perfbench
