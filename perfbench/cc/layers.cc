#include "layers.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/task_graph.h"
#include "lp/simplex.h"
#include "privacy/feasible_sets.h"
#include "privacy/possible_worlds.h"
#include "privacy/verdict_cache.h"
#include "privacy/workflow_privacy.h"
#include "secureview/feasibility.h"
#include "secureview/from_workflow.h"
#include "secureview/ilp_encoding.h"
#include "secureview/serialization.h"
#include "secureview/solvers.h"
#include "server/admission.h"
#include "server/client.h"
#include "server/handler.h"
#include "server/protocol.h"
#include "server/registry.h"
#include "server/stats.h"

namespace perfbench {

using namespace provview;

namespace {

// Rounds of each micro-probe; the reported figure is the median round.
constexpr int kRounds = 9;

// Mean per call of `f(i)` over `reps` calls, median over kRounds rounds.
template <typename F>
double MedianMeanUs(int reps, F&& f) {
  std::vector<double> rounds;
  for (int r = 0; r < kRounds; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < reps; ++i) f(i);
    rounds.push_back(UsBetween(t0, Clock::now()) / reps);
  }
  return Median(rounds);
}

// A probe pass's clock around each layer call. An untimed pass makes the
// same calls without reading the clock: the baseline of
// tracing_overhead_ratio.
class Stopwatch {
 public:
  explicit Stopwatch(bool on) : on_(on) {}
  void Start() {
    if (on_) t0_ = Clock::now();
  }
  void StopMs(std::vector<double>* out) const {
    if (on_) out->push_back(MsBetween(t0_, Clock::now()));
  }
  void StopUs(std::vector<double>* out) const {
    if (on_) out->push_back(UsBetween(t0_, Clock::now()));
  }

 private:
  bool on_;
  Clock::time_point t0_;
};

WorkflowBatchOptions EngineOptions(TaskGraphExecutor* exec) {
  WorkflowBatchOptions opts;
  opts.executor = exec;
  opts.num_threads = HardwareThreads();
  return opts;
}

struct CacheTally {
  uint64_t hits = 0;
  uint64_t misses = 0;
};

CacheTally Tally(const VerdictCache& cache) {
  const VerdictCacheStats s = cache.Stats();
  return {s.signature.hits + s.projection.hits,
          s.signature.misses + s.projection.misses};
}

// ---------------------------------------------------------------- privacy --
// CertifyWorkflowBatch over each probe workflow's masks on a fresh cache:
// the cold batch (the miss path), then one-item batches on the now-warm
// namespaces (the hit path).
struct PrivacyPass {
  LayerCounts counts;
  std::vector<double> cold_ms;
  std::vector<double> hit_us;
  int64_t cold_checker_calls = 0;
  double hit_ratio = 0.0;
  int64_t bytes_peak = 0;
};

PrivacyPass RunPrivacyPass(const ProbeSet& probes, TaskGraphExecutor* exec,
                           bool timed, Report* report) {
  PrivacyPass pass;
  Stopwatch watch(timed);
  auto cache = std::make_shared<VerdictCache>();
  std::vector<std::unique_ptr<WorkflowCacheNamespace>> spaces;
  for (const ProbeWorkflow& pw : probes.workflows) {
    spaces.push_back(std::make_unique<WorkflowCacheNamespace>(
        *pw.workflow, cache, pw.name));
  }
  const WorkflowBatchOptions opts = EngineOptions(exec);
  const CacheTally before = Tally(*cache);
  SafeSearchStats cold;
  for (size_t w = 0; w < probes.workflows.size(); ++w) {
    const ProbeWorkflow& pw = probes.workflows[w];
    const auto requests = Requests(pw.masks);
    watch.Start();
    WorkflowBatchResult r =
        CertifyWorkflowBatch(*pw.workflow, requests, opts, spaces[w].get());
    watch.StopMs(&pass.cold_ms);
    if (!r.status.ok()) report->Fail("cold batch: " + r.status.ToString());
    cold.Accumulate(r.stats);
  }
  pass.cold_checker_calls = cold.checker_calls;
  const CacheTally after = Tally(*cache);
  const uint64_t lookups =
      (after.hits - before.hits) + (after.misses - before.misses);
  pass.hit_ratio = lookups == 0 ? 0.0
                                : static_cast<double>(after.hits - before.hits) /
                                      static_cast<double>(lookups);
  pass.counts.checker_calls = cold.checker_calls;
  pass.counts.cache_hits = cold.cache_hits;

  // One-item batches on the now-warm namespaces: the cache-hit path.
  for (size_t w = 0; w < probes.workflows.size(); ++w) {
    const ProbeWorkflow& pw = probes.workflows[w];
    for (const Bitset64& m : pw.masks) {
      const std::vector<WorkflowCertificationRequest> one = {{m, kGamma}};
      watch.Start();
      WorkflowBatchResult r =
          CertifyWorkflowBatch(*pw.workflow, one, opts, spaces[w].get());
      watch.StopUs(&pass.hit_us);
      if (r.stats.checker_calls != 0) {
        report->Fail("warm one-item batch ran the checker");
      }
    }
  }
  pass.bytes_peak = cache->Stats().peak_bytes;
  return pass;
}

// -------------------------------------------------------------- optimizer --
struct OptimizerPass {
  int64_t nodes = 0;
  std::vector<double> requirements_ms, warm_ms, root_ms, bnb_ms, verify_ms;
};

OptimizerPass RunOptimizerPass(const ProbeSet& probes, TaskGraphExecutor* exec,
                               bool timed, Report* report) {
  OptimizerPass pass;
  Stopwatch watch(timed);
  for (const ProbeWorkflow& pw : probes.workflows) {
    const Workflow& wf = *pw.workflow;
    watch.Start();
    const SecureViewInstance inst =
        InstanceFromWorkflow(wf, kGamma, ConstraintKind::kSet);
    watch.StopMs(&pass.requirements_ms);

    // The warm start SolveExact runs first: greedy, then LP rounding.
    watch.Start();
    const SvResult greedy = SolveGreedyPerModule(inst);
    RoundingOptions ropt;
    ropt.trials = ExactOptions().warm_rounding_trials;
    const SvResult rounded = SolveByLpRounding(inst, ropt);
    watch.StopMs(&pass.warm_ms);
    if (!greedy.status.ok() && !rounded.status.ok()) {
      report->Fail(pw.name + ": no warm start");
    }

    const SvEncoding enc = EncodeSecureView(inst);
    watch.Start();
    const LpSolution root = SolveLp(enc.lp);
    watch.StopMs(&pass.root_ms);

    // The full solve is the oracle and gives the node count; the timed
    // branch-and-bound is the same solve with the warm start taken out and
    // its objective handed in, so it times SolveExact minus warm start.
    ExactOptions exact;
    exact.fix_visible = UselessAttrs(inst);
    exact.bnb.num_threads = HardwareThreads();
    exact.bnb.executor = exec;
    const SvResult solved = SolveExact(inst, exact);
    pass.nodes += solved.work;
    if (!solved.status.ok() || solved.gap != 0.0 ||
        !IsFeasible(inst, solved.solution) ||
        (root.status.ok() && solved.cost < root.objective - 1e-6)) {
      report->Fail(pw.name + ": exact solve failed its oracle");
    }
    ExactOptions bnb_only = exact;
    bnb_only.warm_start = false;
    if (greedy.status.ok()) bnb_only.bnb.warm_objective = greedy.cost;
    if (rounded.status.ok()) {
      bnb_only.bnb.warm_objective =
          std::min(bnb_only.bnb.warm_objective, rounded.cost);
    }
    watch.Start();
    (void)SolveExact(inst, bnb_only);
    watch.StopMs(&pass.bnb_ms);

    watch.Start();
    const bool verified = VerifySolutionSemantics(wf, solved.solution, kGamma);
    watch.StopMs(&pass.verify_ms);
    if (!verified) report->Fail(pw.name + ": solution fails semantics");
  }
  return pass;
}

// ------------------------------------------------------------ enumeration --
struct WorldsPass {
  int64_t pruned = 0;
  std::vector<double> tables_ms, fixpoint_ms, walk_ms, certify_ms;
};

WorldsPass RunWorldsPass(const ProbeSet& probes, TaskGraphExecutor* exec,
                         bool timed, Report* report) {
  WorldsPass pass;
  Stopwatch watch(timed);
  for (const ProbeWorkflow& pw : probes.worlds) {
    const Workflow& wf = *pw.workflow;
    watch.Start();
    const std::shared_ptr<const WorkflowTables> tables =
        BuildWorkflowTables(wf);
    watch.StopMs(&pass.tables_ms);
    if (tables == nullptr || !tables->status.ok()) {
      report->Fail(pw.name + ": table build failed");
      continue;
    }
    // Per-request settings of CertifyWorkflowBatch's ground-truth leg.
    WorkflowEnumerationOptions wopts;
    wopts.gamma = kGamma;
    wopts.collect_distinct_relations = false;
    wopts.num_threads = 1;
    for (const Bitset64& m : pw.masks) {
      const Bitset64 visible = m.Complement();
      watch.Start();
      const FeasibleSetAnalysis analysis =
          AnalyzeFeasibleSets(*tables, visible, {});
      watch.StopMs(&pass.fixpoint_ms);
      (void)analysis;
      watch.Start();
      const WorkflowWorlds worlds =
          EnumerateWorkflowWorlds(*tables, visible, {}, wopts);
      watch.StopMs(&pass.walk_ms);
      if (!worlds.status.ok()) report->Fail(pw.name + ": walk failed");
      pass.pruned += worlds.pruned_candidates;
    }
    watch.Start();
    const WorkflowBatchResult r =
        CertifyWorkflowBatch(wf, Requests(pw.masks), EngineOptions(exec));
    watch.StopMs(&pass.certify_ms);
    if (!r.status.ok()) report->Fail(pw.name + ": certify failed");
  }
  return pass;
}

// ----------------------------------------------------------------- server --
struct Frame {
  FrameHeader header;
  std::string body;
};

void RunServerProbes(const ProbeSet& probes, TaskGraphExecutor* exec,
                     Report* report, double* handle_us) {
  // In-process daemon core, wired as the reactor wires it.
  WorkflowRegistry registry;
  DaemonStats stats;
  AdmissionController admission(4096, 0);
  RequestContext ctx;
  ctx.registry = &registry;
  ctx.stats = &stats;
  ctx.executor = exec;
  ctx.admission = &admission;
  ctx.reactor_threads = 2;
  ctx.caller_helps = false;

  // Codec and registry write path: decode, register, unregister, in rounds
  // under fresh names; the last round stays registered for the frames.
  std::vector<double> decode_us, register_us, unregister_us;
  constexpr int kRegisterRounds = 8;
  for (int round = 0; round < kRegisterRounds; ++round) {
    for (const ProbeWorkflow& pw : probes.workflows) {
      auto t0 = Clock::now();
      Result<WorkflowBundle> bundle = DeserializeWorkflowBinary(pw.pvwf);
      decode_us.push_back(UsBetween(t0, Clock::now()));
      if (!bundle.ok()) {
        report->Fail(pw.name + ": PVWF decode: " + bundle.status().ToString());
        return;
      }
      const bool last = round + 1 == kRegisterRounds;
      const std::string name = last ? pw.name : pw.name + "#" + std::to_string(round);
      t0 = Clock::now();
      const Status reg = registry.TryRegister(name, bundle.value().catalog,
                                              std::move(bundle.value().workflow));
      register_us.push_back(UsBetween(t0, Clock::now()));
      if (!reg.ok()) report->Fail("register " + name + ": " + reg.ToString());
      if (last) continue;
      t0 = Clock::now();
      const Status unreg = registry.Unregister(name);
      unregister_us.push_back(UsBetween(t0, Clock::now()));
      if (!unreg.ok()) report->Fail("unregister " + name);
    }
  }

  std::vector<Frame> frames;
  std::vector<CertifyRequest> wire_requests;
  uint32_t id = 1;
  for (const ProbeWorkflow& pw : probes.workflows) {
    for (size_t i = 0; i < pw.masks.size(); ++i) {
      Frame f;
      wire_requests.push_back(WireBatch(pw.name, pw.masks, i, i + 1));
      EncodeCertifyRequest(wire_requests.back(), /*batch=*/false, &f.body);
      f.header.type = static_cast<uint16_t>(MessageType::kCertify);
      f.header.request_id = id++;
      f.header.body_len = static_cast<uint32_t>(f.body.size());
      frames.push_back(std::move(f));
    }
  }
  // Warm pass: fills the verdict cache and keeps the decoded responses for
  // the encode probe.
  std::vector<CertifyResponse> responses;
  for (const Frame& f : frames) {
    const std::string out = HandleFrame(ctx, f.header, f.body);
    Status status;
    std::string_view payload;
    CertifyResponse resp;
    const std::string_view body =
        std::string_view(out).substr(std::min(out.size(), kFrameHeaderSize));
    if (!ParseResponseBody(body, &status, &payload).ok() || !status.ok() ||
        !DecodeCertifyResponse(payload, &resp).ok()) {
      report->Fail("in-process CERTIFY failed: " + status.ToString());
      return;
    }
    responses.push_back(std::move(resp));
  }
  std::vector<double> handle;
  for (int r = 0; r < 4; ++r) {
    for (const Frame& f : frames) {
      const auto t0 = Clock::now();
      const std::string out = HandleFrame(ctx, f.header, f.body);
      handle.push_back(UsBetween(t0, Clock::now()));
    }
  }
  *handle_us = Median(handle);
  report->Add("server.handle_frame_us", *handle_us, "us");

  const int n = static_cast<int>(frames.size());
  CertifyRequest decoded;
  report->Add("server.protocol.decode_us",
              MedianMeanUs(n, [&](int i) {
                (void)DecodeCertifyRequest(frames[static_cast<size_t>(i)].body,
                                           false, &decoded);
              }),
              "us");
  std::string encoded;
  report->Add("server.protocol.encode_us",
              MedianMeanUs(n, [&](int i) {
                encoded.clear();
                EncodeCertifyResponse(responses[static_cast<size_t>(i)],
                                      &encoded);
              }),
              "us");
  report->Add("server.registry.find_us",
              MedianMeanUs(n, [&](int i) {
                (void)registry.Find(
                    wire_requests[static_cast<size_t>(i)].workflow);
              }),
              "us");
  report->Add("server.admission_us", MedianMeanUs(n, [&](int) {
                if (admission.Admit(2).ok()) admission.Release(2);
              }),
              "us");
  report->Add("common.task_graph.run_us", MedianMeanUs(64, [&](int) {
                TaskGraph graph;
                graph.Add([] {});
                (void)graph.Run(exec);
              }),
              "us");
  report->Add("secureview.codec.decode_us", Median(decode_us), "us");
  report->Add("server.registry.register_us", Median(register_us), "us");
  report->Add("server.registry.unregister_us", Median(unregister_us), "us");
}

// Round trips against the live daemon: REGISTER under fresh names, then
// single-mask CERTIFY on the registered probe workflows (warmed first).
void RunWireProbes(const ProbeSet& probes, double handle_us, Report* report) {
  PodsClient client;
  if (!client.Connect(probes.port).ok()) {
    report->Fail("probe client cannot connect");
    return;
  }
  std::vector<double> register_rtt;
  std::vector<CertifyRequest> requests;
  for (size_t w = 0; w < probes.workflows.size(); ++w) {
    const ProbeWorkflow& pw = probes.workflows[w];
    const std::string name = "probe-" + std::to_string(w);
    const auto t0 = Clock::now();
    const Status s = client.Register(name, pw.pvwf);
    register_rtt.push_back(UsBetween(t0, Clock::now()));
    if (!s.ok()) {
      report->Fail("probe REGISTER " + name + ": " + s.ToString());
      return;
    }
    for (size_t i = 0; i < pw.masks.size(); ++i) {
      requests.push_back(WireBatch(name, pw.masks, i, i + 1));
    }
  }
  std::vector<double> rtt;
  for (int r = 0; r < 5; ++r) {
    for (const CertifyRequest& req : requests) {
      CertifyResponse resp;
      const auto t0 = Clock::now();
      const Status s = client.Certify(req, /*batch=*/false, &resp);
      if (r > 0) rtt.push_back(UsBetween(t0, Clock::now()));  // r 0 warms
      if (!s.ok()) {
        report->Fail("probe CERTIFY: " + s.ToString());
        return;
      }
    }
  }
  for (size_t w = 0; w < probes.workflows.size(); ++w) {
    (void)client.Unregister("probe-" + std::to_string(w));
  }
  const double rtt_us = Median(rtt);
  report->Add("server.rtt_us", rtt_us, "us");
  report->Add("server.transport_us", rtt_us - handle_us, "us");
  report->Add("server.register_rtt_us", Median(register_rtt), "us");
}

}  // namespace

std::vector<WorkflowCertificationRequest> Requests(
    const std::vector<Bitset64>& masks) {
  std::vector<WorkflowCertificationRequest> out;
  for (const Bitset64& m : masks) out.push_back({m, kGamma});
  return out;
}

CertifyRequest WireBatch(const std::string& name,
                         const std::vector<Bitset64>& masks, size_t begin,
                         size_t end) {
  CertifyRequest req;
  req.workflow = name;
  for (size_t i = begin; i < end; ++i) {
    CertifyItem item;
    item.gamma = kGamma;
    for (int a : masks[i].ToVector()) {
      item.hidden_attrs.push_back(static_cast<uint32_t>(a));
    }
    req.items.push_back(std::move(item));
  }
  return req;
}

bool SerializeProbe(ProbeWorkflow* out) {
  out->pvwf.clear();
  return SerializeWorkflowBinary(*out->workflow, &out->pvwf).ok();
}

namespace {

// One privacy, optimizer and enumeration pass, timed or not, and its wall
// time.
struct CountedPass {
  PrivacyPass privacy;
  OptimizerPass optimizer;
  WorldsPass worlds;
  LayerCounts counts;
  double seconds = 0.0;
};

CountedPass RunCountedPass(const ProbeSet& probes, TaskGraphExecutor* exec,
                           bool timed, Report* report) {
  CountedPass pass;
  const auto t0 = Clock::now();
  pass.privacy = RunPrivacyPass(probes, exec, timed, report);
  pass.optimizer = RunOptimizerPass(probes, exec, timed, report);
  pass.worlds = RunWorldsPass(probes, exec, timed, report);
  pass.seconds = SecondsSince(t0);
  pass.counts = pass.privacy.counts;
  pass.counts.bnb_nodes = pass.optimizer.nodes;
  pass.counts.pruned_candidates = pass.worlds.pruned;
  return pass;
}

}  // namespace

void RunLayerProbes(const ProbeSet& probes, TaskGraphExecutor* exec,
                    Report* report) {
  // Untimed and timed passes alternate, untimed first and last: every pass
  // must count the same work (the exact-count tripwire), and the timed
  // passes' wall time against the untimed ones' is the cost of the
  // per-call clock reads. The metrics come from the first timed pass.
  constexpr int kPasses = 5;
  std::vector<CountedPass> passes;
  double untimed_s = 0.0, timed_s = 0.0;
  for (int i = 0; i < kPasses; ++i) {
    const bool timed = i % 2 == 1;
    passes.push_back(RunCountedPass(probes, exec, timed, report));
    (timed ? timed_s : untimed_s) += passes.back().seconds;
  }
  for (const CountedPass& pass : passes) {
    if (!(pass.counts == passes[0].counts)) {
      report->Fail("exact counts differ between probe passes");
      break;
    }
  }
  const CountedPass& traced = passes[1];
  const PrivacyPass& privacy = traced.privacy;
  const OptimizerPass& optimizer = traced.optimizer;
  const WorldsPass& worlds = traced.worlds;
  const LayerCounts& counts = traced.counts;

  double handle_us = 0.0;
  RunServerProbes(probes, exec, report, &handle_us);
  RunWireProbes(probes, handle_us, report);

  double cold_total_ms = 0.0;
  for (double ms : privacy.cold_ms) cold_total_ms += ms;
  report->Add("privacy.batch_hit_us", Median(privacy.hit_us), "us");
  report->Add("privacy.batch_cold_ms", Median(privacy.cold_ms), "ms");
  report->Add("privacy.checker_calls",
              static_cast<double>(counts.checker_calls), "count");
  report->Add("privacy.cache_hits", static_cast<double>(counts.cache_hits),
              "count");
  report->Add("privacy.verdict_cache.hit_ratio", privacy.hit_ratio, "ratio");
  report->Add("privacy.checker_us_per_call",
              privacy.cold_checker_calls == 0
                  ? 0.0
                  : cold_total_ms * 1000.0 /
                        static_cast<double>(privacy.cold_checker_calls),
              "us");
  report->Add("privacy.verdict_cache.bytes_peak",
              static_cast<double>(privacy.bytes_peak), "bytes");
  report->Add("secureview.requirements_ms", Median(optimizer.requirements_ms),
              "ms");
  report->Add("secureview.warm_start_ms", Median(optimizer.warm_ms), "ms");
  report->Add("lp.simplex_root_ms", Median(optimizer.root_ms), "ms");
  report->Add("lp.bnb_ms", Median(optimizer.bnb_ms), "ms");
  report->Add("lp.bnb_nodes", static_cast<double>(counts.bnb_nodes), "count");
  report->Add("secureview.verify_ms", Median(optimizer.verify_ms), "ms");
  report->Add("privacy.worlds.tables_ms", Median(worlds.tables_ms), "ms");
  report->Add("privacy.worlds.fixpoint_ms", Median(worlds.fixpoint_ms), "ms");
  report->Add("privacy.worlds.walk_ms", Median(worlds.walk_ms), "ms");
  report->Add("privacy.worlds.pruned_candidates",
              static_cast<double>(counts.pruned_candidates), "count");
  report->Add("privacy.certify_ms", Median(worlds.certify_ms), "ms");
  // Throughput of the timed passes over the untimed ones'.
  constexpr int kTimedPasses = kPasses / 2;
  report->Add("tracing_overhead_ratio",
              (untimed_s / (kPasses - kTimedPasses)) / (timed_s / kTimedPasses),
              "ratio");
}

}  // namespace perfbench
