// Reactor front-end suite: the epoll reactor must produce byte-identical
// responses to the in-process HandleFrame core running every engine inline
// (no executor, the single-core path) for the same request bytes,
// reassemble frames that arrive in
// arbitrary pieces, serve pipelined requests in order, hold 1000 idle
// connections with a thread count bounded by --reactor-threads (NOT by
// connection count), and surface request-level admission in STAT. Runs
// under ASan/UBSan and TSan in CI — a race between reactor shards, the
// completion queue, and detached engine tasks fails here.
#include <gtest/gtest.h>

#include <dirent.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "secureview/serialization.h"
#include "server/client.h"
#include "server/daemon.h"
#include "server/handler.h"
#include "server/protocol.h"
#include "server/registry.h"
#include "workflow/fig1_workflow.h"

namespace provview {
namespace {

// Live thread count of THIS process — the bounded-threads acceptance check
// counts what the kernel sees, not what the daemon claims.
int CountProcessThreads() {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return -1;
  int count = 0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  ::closedir(dir);
  return count;
}

CertifyItem ItemForMask(uint32_t mask, const int* attrs, int num_attrs) {
  CertifyItem item;
  item.gamma = 2;
  for (int b = 0; b < num_attrs; ++b) {
    if ((mask >> b) & 1u) {
      item.hidden_attrs.push_back(static_cast<uint32_t>(attrs[b]));
    }
  }
  return item;
}

TEST(PodsdReactorTest, ReactorMatchesInlineHandleFrameByteForByte) {
  // Same registry seeds, same request bytes: the reactor daemon (engine work
  // on its shared executor) and HandleFrame called in-process with no
  // executor (every engine inline, as on a single-core host) must produce
  // IDENTICAL response frames down to the byte. Any divergence is a
  // framing/dispatch bug in the reactor or an executor-dependent engine
  // result.
  PodsDaemon::Options reactor_opts;
  reactor_opts.reactor_threads = 2;
  reactor_opts.engine_threads = 2;
  WorkflowRegistry reactor_registry, inline_registry;
  reactor_registry.RegisterBuiltins();
  inline_registry.RegisterBuiltins();
  PodsDaemon reactor_daemon(&reactor_registry, reactor_opts);
  ASSERT_TRUE(reactor_daemon.Start().ok());

  DaemonStats inline_stats;
  AdmissionController inline_admission(reactor_opts.max_pending,
                                       reactor_opts.memory_budget);
  RequestContext inline_ctx;
  inline_ctx.registry = &inline_registry;
  inline_ctx.stats = &inline_stats;
  inline_ctx.executor = nullptr;
  inline_ctx.admission = &inline_admission;

  const Fig1Workflow fig1 = MakeFig1Workflow();
  const int attrs[] = {fig1.a3, fig1.a4, fig1.a5, fig1.a6, fig1.a7};
  std::string workflow_bytes;
  ASSERT_TRUE(SerializeWorkflowBinary(*fig1.workflow, &workflow_bytes).ok());

  // A corpus covering the whole dispatch table, valid and hostile alike
  // (request ids fixed so the echoed headers match too).
  std::vector<std::string> corpus;
  corpus.push_back(BuildRequestFrame(MessageType::kPing, 1));
  for (uint32_t mask = 0; mask < 32; ++mask) {
    CertifyRequest req;
    req.workflow = "fig1";
    req.items.push_back(ItemForMask(mask, attrs, 5));
    std::string body;
    EncodeCertifyRequest(req, /*batch=*/false, &body);
    corpus.push_back(
        BuildRequestFrame(MessageType::kCertify, 100 + mask, body));
  }
  {
    RegisterRequest reg;
    reg.name = "fig1-wire";
    reg.workflow_bytes = workflow_bytes;
    std::string body;
    EncodeRegisterRequest(reg, &body);
    corpus.push_back(BuildRequestFrame(MessageType::kRegister, 200, body));
    CertifyRequest req;
    req.workflow = "fig1-wire";
    req.items.push_back(ItemForMask(21, attrs, 5));
    std::string certify_body;
    EncodeCertifyRequest(req, /*batch=*/false, &certify_body);
    corpus.push_back(
        BuildRequestFrame(MessageType::kCertify, 201, certify_body));
    corpus.push_back(BuildRequestFrame(MessageType::kRegister, 202, body));
    std::string unreg_body;
    EncodeUnregisterRequest("fig1-wire", &unreg_body);
    corpus.push_back(
        BuildRequestFrame(MessageType::kUnregister, 203, unreg_body));
    corpus.push_back(
        BuildRequestFrame(MessageType::kUnregister, 204, unreg_body));
  }
  corpus.push_back(
      BuildRequestFrame(MessageType::kCertify, 300, "garbage body"));
  {
    FrameHeader unknown;
    unknown.type = 0x00EE;
    unknown.request_id = 301;
    std::string frame;
    EncodeFrameHeader(unknown, &frame);
    corpus.push_back(frame);
  }
  {
    CertifyRequest req;
    req.workflow = "no-such-workflow";
    req.items.push_back(CertifyItem{1, {}});
    std::string body;
    EncodeCertifyRequest(req, /*batch=*/false, &body);
    corpus.push_back(BuildRequestFrame(MessageType::kCertify, 302, body));
  }

  PodsClient reactor_client;
  ASSERT_TRUE(reactor_client.Connect(reactor_daemon.port()).ok());
  for (size_t i = 0; i < corpus.size(); ++i) {
    ASSERT_TRUE(reactor_client.SendRaw(corpus[i]).ok());
    FrameHeader rh;
    std::string rbody;
    ASSERT_TRUE(reactor_client.RecvResponse(&rh, &rbody).ok());

    FrameHeader request;
    ASSERT_TRUE(DecodeFrameHeader(
                    std::string_view(corpus[i]).substr(0, kFrameHeaderSize),
                    &request)
                    .ok());
    const std::string inline_frame = HandleFrame(
        inline_ctx, request,
        std::string_view(corpus[i]).substr(kFrameHeaderSize));
    FrameHeader ih;
    ASSERT_TRUE(DecodeFrameHeader(
                    std::string_view(inline_frame).substr(0, kFrameHeaderSize),
                    &ih)
                    .ok());
    EXPECT_EQ(rh.type, ih.type) << "corpus entry " << i;
    EXPECT_EQ(rh.request_id, ih.request_id) << "corpus entry " << i;
    EXPECT_EQ(rbody, inline_frame.substr(kFrameHeaderSize))
        << "corpus entry " << i;
  }

  reactor_daemon.Stop();
}

TEST(PodsdReactorTest, ReassemblesFragmentedFramesAndServesPipelines) {
  WorkflowRegistry registry;
  registry.RegisterBuiltins();
  PodsDaemon::Options opts;
  opts.reactor_threads = 1;  // every fragment lands on the same shard
  PodsDaemon daemon(&registry, opts);
  ASSERT_TRUE(daemon.Start().ok());

  const Fig1Workflow fig1 = MakeFig1Workflow();
  const int attrs[] = {fig1.a3, fig1.a4, fig1.a5, fig1.a6, fig1.a7};
  CertifyRequest req;
  req.workflow = "fig1";
  req.items.push_back(ItemForMask(0b10110, attrs, 5));
  std::string body;
  EncodeCertifyRequest(req, /*batch=*/false, &body);
  const std::string frame =
      BuildRequestFrame(MessageType::kCertify, 7, body);

  // Dribble the frame in 1..5-byte pieces: the per-connection state machine
  // must reassemble it no matter where the kernel splits reads.
  PodsClient client;
  ASSERT_TRUE(client.Connect(daemon.port()).ok());
  Rng rng(0x66726167u);
  size_t sent = 0;
  while (sent < frame.size()) {
    const size_t piece =
        std::min(frame.size() - sent, 1 + rng.NextBelow(5));
    ASSERT_TRUE(
        client.SendRaw(std::string_view(frame).substr(sent, piece)).ok());
    sent += piece;
  }
  FrameHeader header;
  std::string resp_body;
  ASSERT_TRUE(client.RecvResponse(&header, &resp_body).ok());
  EXPECT_EQ(header.request_id, 7u);
  Status status;
  std::string_view payload;
  ASSERT_TRUE(ParseResponseBody(resp_body, &status, &payload).ok());
  EXPECT_TRUE(status.ok()) << status.message();

  // Pipelining: many frames in one write; responses come back in order
  // even though EPOLLIN is disarmed per in-flight request (the buffered
  // re-parse path).
  std::string burst;
  for (uint32_t id = 50; id < 66; ++id) {
    burst += BuildRequestFrame(MessageType::kPing, id);
  }
  burst += frame;  // one engine-bound request at the end
  ASSERT_TRUE(client.SendRaw(burst).ok());
  for (uint32_t id = 50; id < 66; ++id) {
    ASSERT_TRUE(client.RecvResponse(&header, &resp_body).ok());
    EXPECT_EQ(header.request_id, id);
  }
  ASSERT_TRUE(client.RecvResponse(&header, &resp_body).ok());
  EXPECT_EQ(header.request_id, 7u);

  daemon.Stop();
}

TEST(PodsdReactorTest, ThousandIdleConnectionsBoundedThreads) {
  // THE acceptance criterion: 1000 parked connections may not grow the
  // daemon's thread count at all — connections are epoll entries, not
  // threads. (The legacy front-end would need 1000 threads here.)
  WorkflowRegistry registry;
  registry.RegisterBuiltins();
  PodsDaemon::Options opts;
  opts.reactor_threads = 2;
  opts.engine_threads = 2;
  PodsDaemon daemon(&registry, opts);
  ASSERT_TRUE(daemon.Start().ok());

  // Let every daemon thread (acceptor, reactors, workers) come up before
  // taking the baseline.
  {
    PodsClient warm;
    ASSERT_TRUE(warm.Connect(daemon.port()).ok());
    ASSERT_TRUE(warm.Ping().ok());
  }
  const int baseline = CountProcessThreads();
  ASSERT_GT(baseline, 0);

  constexpr int kIdle = 1000;
  std::vector<std::unique_ptr<PodsClient>> idle;
  idle.reserve(kIdle);
  for (int i = 0; i < kIdle; ++i) {
    idle.push_back(std::make_unique<PodsClient>());
    ASSERT_TRUE(idle.back()->Connect(daemon.port()).ok()) << "conn " << i;
  }
  // Prove they are all real, live connections, not just accepted-and-
  // dropped fds: a sample of them must round-trip.
  for (int i = 0; i < kIdle; i += 97) {
    ASSERT_TRUE(idle[static_cast<size_t>(i)]->Ping().ok()) << "conn " << i;
  }

  const int with_idle = CountProcessThreads();
  EXPECT_EQ(with_idle, baseline)
      << kIdle << " idle connections grew the thread count from " << baseline
      << " to " << with_idle;

  // And the daemon still does real work while holding all of them.
  const Fig1Workflow fig1 = MakeFig1Workflow();
  const int attrs[] = {fig1.a3, fig1.a4, fig1.a5, fig1.a6, fig1.a7};
  CertifyRequest req;
  req.workflow = "fig1";
  req.items.push_back(ItemForMask(0b01101, attrs, 5));
  CertifyResponse resp;
  PodsClient active;
  ASSERT_TRUE(active.Connect(daemon.port()).ok());
  ASSERT_TRUE(active.Certify(req, /*batch=*/false, &resp).ok());

  StatSnapshot stats;
  ASSERT_TRUE(active.Stat(&stats).ok());
  uint64_t opened = 0, reactor_threads = 0;
  for (const auto& [k, v] : stats) {
    if (k == "connections_opened") opened = v;
    if (k == "reactor_threads") reactor_threads = v;
  }
  EXPECT_GE(opened, static_cast<uint64_t>(kIdle));
  EXPECT_EQ(reactor_threads, 2u);

  // Stop with 1000 parked connections must sever and join promptly.
  daemon.Stop();
  FrameHeader header;
  std::string body;
  EXPECT_FALSE(idle.front()->RecvResponse(&header, &body).ok());
  EXPECT_FALSE(idle.back()->RecvResponse(&header, &body).ok());
}

TEST(PodsdReactorTest, AdmissionSaturationIsTypedAndSurfacedInStat) {
  // max_pending=0: nothing can be admitted. The reactor must answer
  // RESOURCE_EXHAUSTED (with depth in the message), keep the connection,
  // and report the rejection through the admission_* STAT section.
  WorkflowRegistry registry;
  registry.RegisterBuiltins();
  PodsDaemon::Options opts;
  opts.reactor_threads = 1;
  opts.engine_threads = 2;
  opts.max_pending = 0;
  PodsDaemon daemon(&registry, opts);
  ASSERT_TRUE(daemon.Start().ok());

  const Fig1Workflow fig1 = MakeFig1Workflow();
  const int attrs[] = {fig1.a3, fig1.a4, fig1.a5, fig1.a6, fig1.a7};
  PodsClient client;
  ASSERT_TRUE(client.Connect(daemon.port()).ok());

  CertifyRequest req;
  req.workflow = "fig1";
  req.items.push_back(ItemForMask(0b101, attrs, 5));
  CertifyResponse resp;
  const Status s = client.Certify(req, /*batch=*/false, &resp);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.message();
  EXPECT_NE(s.message().find("admission depth"), std::string::npos)
      << s.message();

  // REGISTER passes the same gate.
  std::string bytes;
  ASSERT_TRUE(SerializeWorkflowBinary(*fig1.workflow, &bytes).ok());
  EXPECT_EQ(client.Register("gated", bytes).code(),
            StatusCode::kResourceExhausted);

  EXPECT_TRUE(client.Ping().ok());  // saturation never burns the connection

  StatSnapshot stats;
  ASSERT_TRUE(client.Stat(&stats).ok());
  uint64_t stat_version = 0, rejected = 0, max_depth = 123, depth = 123;
  for (const auto& [k, v] : stats) {
    if (k == "stat_version") stat_version = v;
    if (k == "admission_rejected") rejected = v;
    if (k == "admission_max_depth") max_depth = v;
    if (k == "admission_depth") depth = v;
  }
  EXPECT_EQ(stat_version, 3u);
  EXPECT_GE(rejected, 2u);
  EXPECT_EQ(max_depth, 0u);
  EXPECT_EQ(depth, 0u);  // every rejection released nothing; gate is clean

  daemon.Stop();
}

TEST(PodsdReactorTest, SharedMemoryBudgetTripsOnlyTheChargingRequest) {
  // A tiny daemon-wide pool: a heavy batch trips RESOURCE_EXHAUSTED, and
  // because the pool carries no trip state, the SAME connection can then
  // run a cheap request that fits. Degradation is per-request.
  WorkflowRegistry registry;
  registry.RegisterBuiltins();
  PodsDaemon::Options opts;
  opts.reactor_threads = 1;
  opts.engine_threads = 2;
  opts.memory_budget = 1;  // one byte: any engine charge trips
  PodsDaemon daemon(&registry, opts);
  ASSERT_TRUE(daemon.Start().ok());

  const Fig1Workflow fig1 = MakeFig1Workflow();
  const int attrs[] = {fig1.a3, fig1.a4, fig1.a5, fig1.a6, fig1.a7};
  PodsClient client;
  ASSERT_TRUE(client.Connect(daemon.port()).ok());
  CertifyRequest req;
  req.workflow = "fig1";
  for (uint32_t mask = 0; mask < 32; ++mask) {
    req.items.push_back(ItemForMask(mask, attrs, 5));
  }
  CertifyResponse resp;
  const Status s = client.Certify(req, /*batch=*/true, &resp);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.message();

  // The pool was fully released on that request's exit: STAT shows zero
  // bytes in use, and the connection still answers.
  EXPECT_TRUE(client.Ping().ok());
  StatSnapshot stats;
  ASSERT_TRUE(client.Stat(&stats).ok());
  uint64_t in_use = 123, exhausted = 0;
  for (const auto& [k, v] : stats) {
    if (k == "admission_memory_bytes") in_use = v;
    if (k == "admission_memory_exhausted") exhausted = v;
  }
  EXPECT_EQ(in_use, 0u);
  EXPECT_GE(exhausted, 1u);

  daemon.Stop();
}

}  // namespace
}  // namespace provview
