// End-to-end fault-injection suite for podsd (the ISSUE acceptance bar):
// several concurrent connections fire a randomized mix of valid, malformed,
// oversized, and deadline-doomed requests at one daemon. Valid responses
// must be byte-identical to what a direct CertifyWorkflowBatch call
// produces, bad requests must come back as typed errors, and at the end the
// daemon must still answer and shut down cleanly. Runs under ASan/UBSan and
// TSan in CI — a data race in the reactor fan-out or the shared memo bank
// fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "generators/random_workflow.h"
#include "privacy/workflow_privacy.h"
#include "secureview/serialization.h"
#include "server/client.h"
#include "server/daemon.h"
#include "server/protocol.h"
#include "server/registry.h"
#include "workflow/fig1_workflow.h"

namespace provview {
namespace {

constexpr int kNumAttrs = 5;
constexpr uint32_t kNumMasks = 1u << kNumAttrs;

// Ground truth the daemon must reproduce byte-for-byte: one direct batch
// over every subset of fig1's {a3..a7}, gamma 2. MakeFig1Workflow is
// deterministic, so this workflow is identical to the daemon's "fig1".
std::vector<CertifyEntry> DirectVerdicts(const Fig1Workflow& fig1,
                                         const int* attrs) {
  std::vector<WorkflowCertificationRequest> requests;
  for (uint32_t mask = 0; mask < kNumMasks; ++mask) {
    Bitset64 hidden(fig1.catalog->size());
    for (int b = 0; b < kNumAttrs; ++b) {
      if ((mask >> b) & 1u) hidden.Set(attrs[b]);
    }
    requests.push_back(WorkflowCertificationRequest{hidden, 2});
  }
  WorkflowBatchOptions opts;
  opts.num_threads = 1;
  const WorkflowBatchResult direct =
      CertifyWorkflowBatch(*fig1.workflow, requests, opts);
  EXPECT_TRUE(direct.status.ok());
  std::vector<CertifyEntry> expected(kNumMasks);
  for (uint32_t mask = 0; mask < kNumMasks; ++mask) {
    expected[mask].certified = direct.entries[mask].certificate.certified;
    expected[mask].module_gammas =
        direct.entries[mask].certificate.module_gammas;
    for (int m : direct.entries[mask].certificate.required_privatizations) {
      expected[mask].required_privatizations.push_back(
          static_cast<uint32_t>(m));
    }
  }
  return expected;
}

CertifyItem ItemForMask(uint32_t mask, const int* attrs) {
  CertifyItem item;
  item.gamma = 2;
  for (int b = 0; b < kNumAttrs; ++b) {
    if ((mask >> b) & 1u) {
      item.hidden_attrs.push_back(static_cast<uint32_t>(attrs[b]));
    }
  }
  return item;
}

// One fault-injection worker: its own connection, its own RNG stream, a
// randomized request mix. Reconnects whenever it deliberately burned the
// connection (bad framing closes it by design).
void FaultWorker(uint16_t port, uint64_t seed,
                 const std::vector<CertifyEntry>& expected, const int* attrs,
                 int iterations) {
  Rng rng(seed);
  PodsClient client;
  ASSERT_TRUE(client.Connect(port).ok());

  for (int i = 0; i < iterations; ++i) {
    switch (rng.NextBelow(8)) {
      case 0:   // ping
        EXPECT_TRUE(client.Ping().ok());
        break;
      case 1: {  // valid single certify, verdict must match direct engine
        const uint32_t mask = static_cast<uint32_t>(rng.NextBelow(kNumMasks));
        CertifyRequest req;
        req.workflow = "fig1";
        req.items.push_back(ItemForMask(mask, attrs));
        CertifyResponse resp;
        ASSERT_TRUE(client.Certify(req, /*batch=*/false, &resp).ok());
        ASSERT_EQ(resp.entries.size(), 1u);
        EXPECT_EQ(resp.entries[0].certified, expected[mask].certified);
        EXPECT_EQ(resp.entries[0].module_gammas,
                  expected[mask].module_gammas);
        EXPECT_EQ(resp.entries[0].required_privatizations,
                  expected[mask].required_privatizations);
        break;
      }
      case 2: {  // valid batch certify over random masks
        CertifyRequest req;
        req.workflow = "fig1";
        std::vector<uint32_t> masks;
        const int count = 1 + static_cast<int>(rng.NextBelow(4));
        for (int k = 0; k < count; ++k) {
          masks.push_back(static_cast<uint32_t>(rng.NextBelow(kNumMasks)));
          req.items.push_back(ItemForMask(masks.back(), attrs));
        }
        CertifyResponse resp;
        ASSERT_TRUE(client.Certify(req, /*batch=*/true, &resp).ok());
        ASSERT_EQ(resp.entries.size(), masks.size());
        for (size_t k = 0; k < masks.size(); ++k) {
          EXPECT_EQ(resp.entries[k].certified, expected[masks[k]].certified);
          EXPECT_EQ(resp.entries[k].module_gammas,
                    expected[masks[k]].module_gammas);
        }
        break;
      }
      case 3: {  // malformed certify body: typed error, connection lives
        const std::string garbage(1 + rng.NextBelow(64), '\xEE');
        std::string payload;
        const Status s = client.RoundTrip(
            BuildRequestFrame(MessageType::kCertify,
                              static_cast<uint32_t>(i), garbage),
            &payload);
        EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
        break;
      }
      case 4: {  // unknown workflow: NOT_FOUND, connection lives
        CertifyRequest req;
        req.workflow = "no-such-workflow";
        req.items.push_back(CertifyItem{1, {}});
        CertifyResponse resp;
        EXPECT_EQ(client.Certify(req, /*batch=*/false, &resp).code(),
                  StatusCode::kNotFound);
        break;
      }
      case 5: {  // deadline-doomed: OK or DEADLINE_EXCEEDED, never worse
        CertifyRequest req;
        req.workflow = "fig1";
        req.deadline_ms = 1;
        for (uint32_t mask = 0; mask < kNumMasks; ++mask) {
          req.items.push_back(ItemForMask(mask, attrs));
        }
        CertifyResponse resp;
        const Status s = client.Certify(req, /*batch=*/true, &resp);
        EXPECT_TRUE(s.ok() || s.code() == StatusCode::kDeadlineExceeded)
            << s.message();
        break;
      }
      case 6: {  // oversized body_len: error response, daemon hangs up
        FrameHeader h;
        h.type = static_cast<uint16_t>(MessageType::kCertifyBatch);
        h.body_len = kMaxBodyLen + 1 + static_cast<uint32_t>(rng.NextBelow(1000));
        std::string frame;
        EncodeFrameHeader(h, &frame);
        std::string payload;
        const Status s = client.RoundTrip(frame, &payload);
        EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
        client.Close();
        ASSERT_TRUE(client.Connect(port).ok());
        break;
      }
      default: {  // corrupted magic: error response, daemon hangs up
        std::string frame = BuildRequestFrame(MessageType::kPing,
                                              static_cast<uint32_t>(i));
        frame[rng.NextBelow(4)] ^= static_cast<char>(1u << rng.NextBelow(8));
        std::string payload;
        const Status s = client.RoundTrip(frame, &payload);
        EXPECT_FALSE(s.ok());
        client.Close();
        ASSERT_TRUE(client.Connect(port).ok());
        break;
      }
    }
  }
}

TEST(PodsdE2eTest, ConcurrentFaultInjection) {
  WorkflowRegistry registry;
  registry.RegisterBuiltins();
  PodsDaemon daemon(&registry);
  ASSERT_TRUE(daemon.Start().ok());

  Fig1Workflow fig1 = MakeFig1Workflow();
  const int attrs[] = {fig1.a3, fig1.a4, fig1.a5, fig1.a6, fig1.a7};
  const std::vector<CertifyEntry> expected = DirectVerdicts(fig1, attrs);

  constexpr int kWorkers = 6;  // acceptance floor is 4 concurrent conns
  constexpr int kIterations = 40;
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back(FaultWorker, daemon.port(),
                         0x9E3779B97F4A7C15ull + w, std::cref(expected),
                         attrs, kIterations);
  }
  for (std::thread& t : workers) t.join();

  // The daemon took every punch and still answers.
  PodsClient survivor;
  ASSERT_TRUE(survivor.Connect(daemon.port()).ok());
  EXPECT_TRUE(survivor.Ping().ok());
  StatSnapshot stats;
  ASSERT_TRUE(survivor.Stat(&stats).ok());
  const auto counter = [&](std::string_view key) -> uint64_t {
    for (const auto& [k, v] : stats) {
      if (k == key) return v;
    }
    ADD_FAILURE() << "missing stat " << key;
    return 0;
  };
  EXPECT_GT(counter("requests_total"), 0u);
  EXPECT_GT(counter("requests_ok"), 0u);
  EXPECT_GT(counter("invalid_requests"), 0u);
  EXPECT_GT(counter("rejected_frames"), 0u);
  EXPECT_GT(counter("memo_checker_calls") + counter("memo_cache_hits"), 0u);

  daemon.Stop();
}

TEST(PodsdE2eTest, StopSeversIdleConnectionsCleanly) {
  WorkflowRegistry registry;
  registry.RegisterBuiltins();
  auto daemon = std::make_unique<PodsDaemon>(&registry);
  ASSERT_TRUE(daemon->Start().ok());

  // Park several idle connections mid-stream, then shut down: Stop must
  // unblock their reads, join every thread, and return promptly.
  std::vector<std::unique_ptr<PodsClient>> idle;
  for (int i = 0; i < 4; ++i) {
    idle.push_back(std::make_unique<PodsClient>());
    ASSERT_TRUE(idle.back()->Connect(daemon->port()).ok());
    ASSERT_TRUE(idle.back()->Ping().ok());
  }
  daemon->Stop();

  // Severed: the next read on every parked connection fails instead of
  // hanging.
  for (auto& client : idle) {
    FrameHeader header;
    std::string body;
    EXPECT_FALSE(client->RecvResponse(&header, &body).ok());
  }

  // Stop is idempotent; destruction after Stop is clean.
  daemon->Stop();
  daemon.reset();
}

TEST(PodsdE2eTest, EngineThreadCountsMatchDirectVerdicts) {
  // Daemons with 1, 2, 4 and 8 engine workers (engine_threads >= 1 forces
  // the shared executor even on a single-core host) must answer every
  // certify — single and batched — exactly as the direct one-thread engine
  // does.
  Fig1Workflow fig1 = MakeFig1Workflow();
  const int attrs[] = {fig1.a3, fig1.a4, fig1.a5, fig1.a6, fig1.a7};
  const std::vector<CertifyEntry> expected = DirectVerdicts(fig1, attrs);

  for (int engine_threads : {1, 2, 4, 8}) {
    PodsDaemon::Options opts;
    opts.engine_threads = engine_threads;
    WorkflowRegistry registry;
    registry.RegisterBuiltins();
    PodsDaemon daemon(&registry, opts);
    ASSERT_TRUE(daemon.Start().ok());
    ASSERT_NE(daemon.executor(), nullptr);

    PodsClient client;
    ASSERT_TRUE(client.Connect(daemon.port()).ok());
    CertifyRequest batch_req;
    batch_req.workflow = "fig1";
    for (uint32_t mask = 0; mask < kNumMasks; ++mask) {
      CertifyRequest req;
      req.workflow = "fig1";
      req.items.push_back(ItemForMask(mask, attrs));
      batch_req.items.push_back(ItemForMask(mask, attrs));
      CertifyResponse resp;
      ASSERT_TRUE(client.Certify(req, /*batch=*/false, &resp).ok());
      ASSERT_EQ(resp.entries.size(), 1u);
      EXPECT_EQ(resp.entries[0].certified, expected[mask].certified)
          << "engine_threads " << engine_threads << " mask " << mask;
      EXPECT_EQ(resp.entries[0].module_gammas, expected[mask].module_gammas);
      EXPECT_EQ(resp.entries[0].required_privatizations,
                expected[mask].required_privatizations);
    }
    CertifyResponse batch_resp;
    ASSERT_TRUE(client.Certify(batch_req, /*batch=*/true, &batch_resp).ok());
    ASSERT_EQ(batch_resp.entries.size(), static_cast<size_t>(kNumMasks));
    for (uint32_t mask = 0; mask < kNumMasks; ++mask) {
      EXPECT_EQ(batch_resp.entries[mask].certified, expected[mask].certified);
      EXPECT_EQ(batch_resp.entries[mask].module_gammas,
                expected[mask].module_gammas);
      EXPECT_EQ(batch_resp.entries[mask].required_privatizations,
                expected[mask].required_privatizations);
    }
    daemon.Stop();
  }
}

TEST(PodsdE2eTest, AdmissionGateRejectsWhenFull) {
  // max_pending=0 means the gate can never admit a certify (each request
  // costs items+1 units): the daemon must answer RESOURCE_EXHAUSTED with the
  // connection still alive, and pings must keep working — saturation is a
  // typed backpressure signal, not a dropped connection.
  WorkflowRegistry registry;
  registry.RegisterBuiltins();
  PodsDaemon::Options opts;
  opts.engine_threads = 2;
  opts.max_pending = 0;
  PodsDaemon daemon(&registry, opts);
  ASSERT_TRUE(daemon.Start().ok());

  Fig1Workflow fig1 = MakeFig1Workflow();
  const int attrs[] = {fig1.a3, fig1.a4, fig1.a5, fig1.a6, fig1.a7};
  PodsClient client;
  ASSERT_TRUE(client.Connect(daemon.port()).ok());
  CertifyRequest req;
  req.workflow = "fig1";
  req.items.push_back(ItemForMask(0b101, attrs));
  CertifyResponse resp;
  const Status s = client.Certify(req, /*batch=*/false, &resp);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.message();

  // The rejection did not burn the connection and the ticket (never issued)
  // did not wedge the gate bookkeeping.
  EXPECT_TRUE(client.Ping().ok());
  const Status again = client.Certify(req, /*batch=*/false, &resp);
  EXPECT_EQ(again.code(), StatusCode::kResourceExhausted);

  daemon.Stop();
}

TEST(PodsdE2eTest, MemoBankSharesVerdictsAcrossConnections) {
  WorkflowRegistry registry;
  registry.RegisterBuiltins();
  PodsDaemon daemon(&registry);
  ASSERT_TRUE(daemon.Start().ok());

  Fig1Workflow fig1 = MakeFig1Workflow();
  const int attrs[] = {fig1.a3, fig1.a4, fig1.a5, fig1.a6, fig1.a7};
  CertifyRequest req;
  req.workflow = "fig1";
  req.items.push_back(ItemForMask(0b10110, attrs));

  PodsClient first;
  ASSERT_TRUE(first.Connect(daemon.port()).ok());
  CertifyResponse cold;
  ASSERT_TRUE(first.Certify(req, /*batch=*/false, &cold).ok());
  EXPECT_GT(cold.checker_calls, 0u);

  // A DIFFERENT connection asking the same question answers from the
  // shared WorkflowCacheNamespace: zero fresh checker calls.
  PodsClient second;
  ASSERT_TRUE(second.Connect(daemon.port()).ok());
  CertifyResponse warm;
  ASSERT_TRUE(second.Certify(req, /*batch=*/false, &warm).ok());
  EXPECT_EQ(warm.checker_calls, 0u);
  EXPECT_GT(warm.cache_hits, 0u);
  EXPECT_EQ(warm.entries[0].certified, cold.entries[0].certified);
  EXPECT_EQ(warm.entries[0].module_gammas, cold.entries[0].module_gammas);

  daemon.Stop();
}

TEST(PodsdE2eTest, BudgetedCacheServesConcurrentConnections) {
  // The daemon under a hard verdict-cache budget (podsd --cache-bytes):
  // concurrent connections hammer randomized hidden sets, racing insert
  // against eviction. Every verdict must match the direct engine, and the
  // measured cache bytes must settle under the budget — eviction only
  // forgets, memory never grows unbounded.
  VerdictCacheConfig config;
  config.byte_budget = 16384;
  config.num_shards = 2;
  WorkflowRegistry registry(config);
  registry.RegisterBuiltins();
  PodsDaemon daemon(&registry);
  ASSERT_TRUE(daemon.Start().ok());

  Fig1Workflow fig1 = MakeFig1Workflow();
  const int attrs[] = {fig1.a3, fig1.a4, fig1.a5, fig1.a6, fig1.a7};
  const std::vector<CertifyEntry> expected = DirectVerdicts(fig1, attrs);

  const int kClients = 4;
  std::vector<std::thread> workers;
  workers.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(0x63616368u + static_cast<uint64_t>(t));
      PodsClient client;
      ASSERT_TRUE(client.Connect(daemon.port()).ok());
      for (int i = 0; i < 200; ++i) {
        const uint32_t mask = static_cast<uint32_t>(rng.NextBelow(kNumMasks));
        CertifyRequest req;
        req.workflow = "fig1";
        req.items.push_back(ItemForMask(mask, attrs));
        CertifyResponse resp;
        ASSERT_TRUE(client.Certify(req, /*batch=*/false, &resp).ok());
        ASSERT_EQ(resp.entries.size(), 1u);
        EXPECT_EQ(resp.entries[0].certified, expected[mask].certified);
        EXPECT_EQ(resp.entries[0].module_gammas,
                  expected[mask].module_gammas);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_LE(registry.verdict_cache()->bytes_in_use(), config.byte_budget);

  // STAT carries the versioned cache section after the historical keys, so
  // name-keyed parsers (podsctl) keep working and new tooling sees the
  // budget at work over the wire.
  PodsClient probe;
  ASSERT_TRUE(probe.Connect(daemon.port()).ok());
  StatSnapshot stats;
  ASSERT_TRUE(probe.Stat(&stats).ok());
  const auto counter = [&](std::string_view key) -> uint64_t {
    for (const auto& [k, v] : stats) {
      if (k == key) return v;
    }
    ADD_FAILURE() << "missing stat " << key;
    return 0;
  };
  EXPECT_GT(counter("requests_total"), 0u);  // historical section intact
  EXPECT_EQ(counter("stat_version"), 3u);
  EXPECT_EQ(counter("verdict_cache_byte_budget"),
            static_cast<uint64_t>(config.byte_budget));
  EXPECT_LE(counter("verdict_cache_bytes"),
            static_cast<uint64_t>(config.byte_budget));
  const auto cache_counter = [&](const char* klass, const char* field) {
    return counter(std::string("verdict_cache_") + klass + "_" + field);
  };
  EXPECT_GT(cache_counter("signature", "hits"), 0u);
  // The projection key class is retired: its six keys stay on the wire
  // (STAT sections are append-only) and read zero after any traffic.
  for (const char* field :
       {"hits", "misses", "inserts", "evictions", "bytes", "entries"}) {
    EXPECT_EQ(cache_counter("projection", field), 0u) << field;
  }

  daemon.Stop();
}

TEST(PodsdE2eTest, RegisteredWorkflowMatchesBuiltinVerdicts) {
  // The ISSUE acceptance bar for wire registration: serialize the builtin
  // fig1, REGISTER it under a new name over the wire, and certify every
  // hidden subset against BOTH names — all response fields must be
  // identical, and both must match the direct engine. A workflow that
  // traveled as bytes is indistinguishable from one compiled in.
  WorkflowRegistry registry;
  registry.RegisterBuiltins();
  PodsDaemon daemon(&registry);
  ASSERT_TRUE(daemon.Start().ok());

  Fig1Workflow fig1 = MakeFig1Workflow();
  const int attrs[] = {fig1.a3, fig1.a4, fig1.a5, fig1.a6, fig1.a7};
  const std::vector<CertifyEntry> expected = DirectVerdicts(fig1, attrs);

  std::string bytes;
  ASSERT_TRUE(SerializeWorkflowBinary(*fig1.workflow, &bytes).ok());

  PodsClient client;
  ASSERT_TRUE(client.Connect(daemon.port()).ok());
  RegisterResponse reg;
  ASSERT_TRUE(client.Register("fig1-wire", bytes, &reg).ok());
  EXPECT_EQ(reg.num_attrs,
            static_cast<uint32_t>(fig1.workflow->num_attrs()));
  EXPECT_EQ(reg.num_modules,
            static_cast<uint32_t>(fig1.workflow->num_modules()));
  EXPECT_EQ(reg.num_private_modules,
            fig1.workflow->PrivateModuleIndices().size());

  // Duplicate names are a typed rejection, not a silent replace.
  EXPECT_EQ(client.Register("fig1-wire", bytes).code(),
            StatusCode::kInvalidArgument);

  for (uint32_t mask = 0; mask < kNumMasks; ++mask) {
    CertifyRequest builtin_req, wire_req;
    builtin_req.workflow = "fig1";
    wire_req.workflow = "fig1-wire";
    builtin_req.items.push_back(ItemForMask(mask, attrs));
    wire_req.items.push_back(ItemForMask(mask, attrs));
    CertifyResponse builtin_resp, wire_resp;
    ASSERT_TRUE(
        client.Certify(builtin_req, /*batch=*/false, &builtin_resp).ok());
    ASSERT_TRUE(client.Certify(wire_req, /*batch=*/false, &wire_resp).ok());
    ASSERT_EQ(wire_resp.entries.size(), 1u);
    EXPECT_EQ(wire_resp.entries[0].certified, expected[mask].certified);
    EXPECT_EQ(wire_resp.entries[0].certified,
              builtin_resp.entries[0].certified);
    EXPECT_EQ(wire_resp.entries[0].module_gammas,
              builtin_resp.entries[0].module_gammas);
    EXPECT_EQ(wire_resp.entries[0].required_privatizations,
              builtin_resp.entries[0].required_privatizations);
  }

  // STAT sees the registration: builtins + the wire workflow.
  StatSnapshot stats;
  ASSERT_TRUE(client.Stat(&stats).ok());
  uint64_t registered = 0, register_reqs = 0;
  for (const auto& [k, v] : stats) {
    if (k == "workflows_registered") registered = v;
    if (k == "register_requests") register_reqs = v;
  }
  EXPECT_EQ(registered, registry.size());
  EXPECT_EQ(register_reqs, 2u);  // one accepted, one duplicate-rejected

  daemon.Stop();
}

TEST(PodsdE2eTest, UnregisterDropsWorkflowAndSurvivesInFlightUse) {
  WorkflowRegistry registry;
  registry.RegisterBuiltins();
  PodsDaemon daemon(&registry);
  ASSERT_TRUE(daemon.Start().ok());

  Fig1Workflow fig1 = MakeFig1Workflow();
  const int attrs[] = {fig1.a3, fig1.a4, fig1.a5, fig1.a6, fig1.a7};
  std::string bytes;
  ASSERT_TRUE(SerializeWorkflowBinary(*fig1.workflow, &bytes).ok());

  PodsClient client;
  ASSERT_TRUE(client.Connect(daemon.port()).ok());
  ASSERT_TRUE(client.Register("ephemeral", bytes).ok());

  CertifyRequest req;
  req.workflow = "ephemeral";
  req.items.push_back(ItemForMask(0b01011, attrs));
  CertifyResponse resp;
  ASSERT_TRUE(client.Certify(req, /*batch=*/false, &resp).ok());

  // Certifiers race UNREGISTER from another connection: each request either
  // completes against the entry it found (shared_ptr keeps it alive) or
  // answers NOT_FOUND — never anything worse.
  std::thread hammer([&] {
    PodsClient racer;
    ASSERT_TRUE(racer.Connect(daemon.port()).ok());
    for (int i = 0; i < 50; ++i) {
      CertifyResponse r;
      const Status s = racer.Certify(req, /*batch=*/false, &r);
      EXPECT_TRUE(s.ok() || s.code() == StatusCode::kNotFound)
          << s.message();
    }
  });
  PodsClient dropper;
  ASSERT_TRUE(dropper.Connect(daemon.port()).ok());
  EXPECT_TRUE(dropper.Unregister("ephemeral").ok());
  hammer.join();

  // Gone: certify and re-unregister both answer NOT_FOUND; re-register
  // under the same name works again.
  EXPECT_EQ(client.Certify(req, /*batch=*/false, &resp).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(client.Unregister("ephemeral").code(), StatusCode::kNotFound);
  EXPECT_TRUE(client.Register("ephemeral", bytes).ok());

  daemon.Stop();
}

TEST(PodsdE2eTest, UnregisterReturnsVerdictCacheToBaseline) {
  // A REGISTERed workflow's verdicts live in the daemon-wide cache under
  // its own namespaces. UNREGISTER must give them back: after certifying
  // every mask and unregistering, STAT's cache bytes, entries and
  // namespace count read exactly what they read before the REGISTER, and
  // the admission gate is quiescent again (no depth, no pooled bytes).
  WorkflowRegistry registry;
  registry.RegisterBuiltins();
  PodsDaemon daemon(&registry);
  ASSERT_TRUE(daemon.Start().ok());

  Rng rng(31);
  RandomWorkflowOptions wopt;
  wopt.num_modules = 3;
  wopt.max_inputs = 2;
  wopt.max_outputs = 1;
  GeneratedWorkflow gen = MakeRandomWorkflow(wopt, &rng);
  std::string bytes;
  ASSERT_TRUE(SerializeWorkflowBinary(*gen.workflow, &bytes).ok());

  PodsClient client;
  ASSERT_TRUE(client.Connect(daemon.port()).ok());
  const std::vector<std::string> keys = {
      "verdict_cache_bytes", "verdict_cache_namespaces",
      "verdict_cache_signature_entries", "verdict_cache_signature_bytes",
      "admission_depth", "admission_memory_bytes"};
  const auto read_cache = [&]() {
    StatSnapshot stats;
    EXPECT_TRUE(client.Stat(&stats).ok());
    std::map<std::string, uint64_t> out;
    for (const auto& [k, v] : stats) {
      if (std::find(keys.begin(), keys.end(), k) != keys.end()) out[k] = v;
    }
    EXPECT_EQ(out.size(), keys.size());
    return out;
  };
  const std::map<std::string, uint64_t> before = read_cache();

  ASSERT_TRUE(client.Register("leak-probe", bytes).ok());
  const std::vector<int> used = gen.workflow->used_attrs().ToVector();
  ASSERT_LE(used.size(), 10u);  // the batch must fit the admission gate
  CertifyRequest req;
  req.workflow = "leak-probe";
  for (uint32_t mask = 0; mask < (1u << used.size()); ++mask) {
    CertifyItem item;
    item.gamma = 2;
    for (size_t b = 0; b < used.size(); ++b) {
      if ((mask >> b) & 1u) {
        item.hidden_attrs.push_back(static_cast<uint32_t>(used[b]));
      }
    }
    req.items.push_back(std::move(item));
  }
  CertifyResponse resp;
  ASSERT_TRUE(client.Certify(req, /*batch=*/true, &resp).ok());
  ASSERT_EQ(resp.entries.size(), req.items.size());
  const std::map<std::string, uint64_t> loaded = read_cache();
  EXPECT_GT(loaded.at("verdict_cache_bytes"),
            before.at("verdict_cache_bytes"));
  EXPECT_GT(loaded.at("verdict_cache_signature_entries"),
            before.at("verdict_cache_signature_entries"));

  ASSERT_TRUE(client.Unregister("leak-probe").ok());
  const std::map<std::string, uint64_t> after = read_cache();
  EXPECT_EQ(after, before);
  EXPECT_EQ(after.at("admission_depth"), 0u);
  EXPECT_EQ(after.at("admission_memory_bytes"), 0u);

  daemon.Stop();
}

}  // namespace
}  // namespace provview
