// Malformed-input corpus for the podsd wire protocol: every decoder must
// reject truncated, oversized, and corrupted inputs with a typed Status —
// never crash, never over-read, never allocate from a forged count — and a
// live daemon must contain each failure to the connection or request that
// caused it (the blast-radius table in server/handler.h).
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "common/rng.h"
#include "secureview/serialization.h"
#include "server/client.h"
#include "server/daemon.h"
#include "server/protocol.h"
#include "server/registry.h"
#include "workflow/fig1_workflow.h"

namespace provview {
namespace {

// -- frame header -----------------------------------------------------------

TEST(FrameHeaderTest, RoundTrip) {
  FrameHeader h;
  h.type = static_cast<uint16_t>(MessageType::kCertify);
  h.request_id = 0xDEADBEEF;
  h.body_len = 123;
  std::string bytes;
  EncodeFrameHeader(h, &bytes);
  ASSERT_EQ(bytes.size(), kFrameHeaderSize);

  FrameHeader decoded;
  ASSERT_TRUE(DecodeFrameHeader(bytes, &decoded).ok());
  EXPECT_EQ(decoded.magic, kFrameMagic);
  EXPECT_EQ(decoded.version, kProtocolVersion);
  EXPECT_EQ(decoded.type, h.type);
  EXPECT_EQ(decoded.request_id, h.request_id);
  EXPECT_EQ(decoded.body_len, h.body_len);
}

TEST(FrameHeaderTest, RejectsWrongSize) {
  FrameHeader h;
  std::string bytes;
  EncodeFrameHeader(h, &bytes);
  FrameHeader out;
  EXPECT_FALSE(DecodeFrameHeader(bytes.substr(0, 15), &out).ok());
  EXPECT_FALSE(DecodeFrameHeader(bytes + 'x', &out).ok());
  EXPECT_FALSE(DecodeFrameHeader("", &out).ok());
}

TEST(FrameHeaderTest, RejectsBadMagicVersionAndOversizedBody) {
  FrameHeader h;
  h.body_len = 8;
  std::string good;
  EncodeFrameHeader(h, &good);

  std::string bad_magic = good;
  bad_magic[0] ^= 0xFF;
  FrameHeader out;
  EXPECT_EQ(DecodeFrameHeader(bad_magic, &out).code(),
            StatusCode::kInvalidArgument);

  std::string bad_version = good;
  bad_version[4] = 0x7F;
  EXPECT_EQ(DecodeFrameHeader(bad_version, &out).code(),
            StatusCode::kInvalidArgument);

  FrameHeader huge;
  huge.body_len = kMaxBodyLen + 1;
  std::string oversized;
  EncodeFrameHeader(huge, &oversized);
  EXPECT_EQ(DecodeFrameHeader(oversized, &out).code(),
            StatusCode::kInvalidArgument);
}

// -- certify request --------------------------------------------------------

CertifyRequest SampleRequest() {
  CertifyRequest req;
  req.workflow = "fig1";
  req.deadline_ms = 250;
  req.memory_budget = 1 << 20;
  req.items.push_back(CertifyItem{3, {1, 2, 5}});
  req.items.push_back(CertifyItem{2, {}});
  return req;
}

TEST(CertifyRequestTest, RoundTripSingleAndBatch) {
  CertifyRequest req = SampleRequest();
  req.items.resize(1);
  std::string body;
  EncodeCertifyRequest(req, /*batch=*/false, &body);
  CertifyRequest out;
  ASSERT_TRUE(DecodeCertifyRequest(body, /*batch=*/false, &out).ok());
  EXPECT_EQ(out.workflow, "fig1");
  EXPECT_EQ(out.deadline_ms, 250);
  EXPECT_EQ(out.memory_budget, 1 << 20);
  ASSERT_EQ(out.items.size(), 1u);
  EXPECT_EQ(out.items[0].gamma, 3);
  EXPECT_EQ(out.items[0].hidden_attrs, (std::vector<uint32_t>{1, 2, 5}));

  CertifyRequest batch = SampleRequest();
  std::string batch_body;
  EncodeCertifyRequest(batch, /*batch=*/true, &batch_body);
  CertifyRequest batch_out;
  ASSERT_TRUE(
      DecodeCertifyRequest(batch_body, /*batch=*/true, &batch_out).ok());
  ASSERT_EQ(batch_out.items.size(), 2u);
  EXPECT_EQ(batch_out.items[1].gamma, 2);
  EXPECT_TRUE(batch_out.items[1].hidden_attrs.empty());
}

TEST(CertifyRequestTest, EveryTruncationIsRejected) {
  std::string body;
  EncodeCertifyRequest(SampleRequest(), /*batch=*/true, &body);
  CertifyRequest out;
  ASSERT_TRUE(DecodeCertifyRequest(body, /*batch=*/true, &out).ok());
  // Chopping ANY suffix off a valid body must fail cleanly: the decoder may
  // not over-read past the buffer or accept a half-request.
  for (size_t len = 0; len < body.size(); ++len) {
    CertifyRequest truncated;
    EXPECT_FALSE(
        DecodeCertifyRequest(body.substr(0, len), /*batch=*/true, &truncated)
            .ok())
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(CertifyRequestTest, RejectsTrailingBytes) {
  std::string body;
  EncodeCertifyRequest(SampleRequest(), /*batch=*/true, &body);
  body += '\0';
  CertifyRequest out;
  EXPECT_EQ(DecodeCertifyRequest(body, /*batch=*/true, &out).code(),
            StatusCode::kInvalidArgument);
}

TEST(CertifyRequestTest, RejectsSemanticGarbage) {
  const auto decode = [](const CertifyRequest& req) {
    std::string body;
    EncodeCertifyRequest(req, /*batch=*/false, &body);
    CertifyRequest out;
    return DecodeCertifyRequest(body, /*batch=*/false, &out);
  };

  CertifyRequest bad_deadline = SampleRequest();
  bad_deadline.items.resize(1);
  bad_deadline.deadline_ms = -1;
  EXPECT_EQ(decode(bad_deadline).code(), StatusCode::kInvalidArgument);

  CertifyRequest bad_budget = SampleRequest();
  bad_budget.items.resize(1);
  bad_budget.memory_budget = -5;
  EXPECT_EQ(decode(bad_budget).code(), StatusCode::kInvalidArgument);

  CertifyRequest bad_gamma = SampleRequest();
  bad_gamma.items.resize(1);
  bad_gamma.items[0].gamma = 0;
  EXPECT_EQ(decode(bad_gamma).code(), StatusCode::kInvalidArgument);

  CertifyRequest long_name = SampleRequest();
  long_name.items.resize(1);
  long_name.workflow.assign(kMaxWorkflowNameLen + 1, 'w');
  EXPECT_EQ(decode(long_name).code(), StatusCode::kInvalidArgument);
}

TEST(CertifyRequestTest, ForgedCountsCannotForceAllocation) {
  // A forged hidden-attr count of ~4 billion: the decoder must notice the
  // body is far too short BEFORE reserving, and reject.
  std::string body;
  {
    CertifyRequest req;
    req.workflow = "fig1";
    req.items.push_back(CertifyItem{1, {}});
    EncodeCertifyRequest(req, /*batch=*/false, &body);
  }
  // Overwrite the trailing hidden-count u32 (last 4 bytes) with 0xFFFFFFFF.
  for (size_t i = body.size() - 4; i < body.size(); ++i) body[i] = '\xFF';
  CertifyRequest out;
  EXPECT_EQ(DecodeCertifyRequest(body, /*batch=*/false, &out).code(),
            StatusCode::kInvalidArgument);

  // Same for a forged batch item count.
  std::string batch_body;
  EncodeCertifyRequest(SampleRequest(), /*batch=*/true, &batch_body);
  CertifyRequest batch_out;
  std::string forged = batch_body;
  // Batch count sits right after name + two i64s.
  const size_t count_off = 4 + 4 /*"fig1"*/ + 8 + 8;
  for (size_t i = 0; i < 4; ++i) forged[count_off + i] = '\xFF';
  EXPECT_FALSE(
      DecodeCertifyRequest(forged, /*batch=*/true, &batch_out).ok());
}

// -- register / unregister --------------------------------------------------

std::string SampleWorkflowBytes() {
  const Fig1Workflow fig1 = MakeFig1Workflow();
  std::string bytes;
  EXPECT_TRUE(SerializeWorkflowBinary(*fig1.workflow, &bytes).ok());
  return bytes;
}

TEST(RegisterRequestTest, RoundTrip) {
  RegisterRequest req;
  req.name = "uploaded";
  req.workflow_bytes = SampleWorkflowBytes();
  std::string body;
  EncodeRegisterRequest(req, &body);
  RegisterRequest out;
  ASSERT_TRUE(DecodeRegisterRequest(body, &out).ok());
  EXPECT_EQ(out.name, "uploaded");
  EXPECT_EQ(out.workflow_bytes, req.workflow_bytes);
}

TEST(RegisterRequestTest, EveryTruncationIsRejectedSomewhere) {
  // The register body is name + raw workflow bytes, so a prefix that cuts
  // inside the workflow payload still decodes at the protocol layer — the
  // guarantee is layered: EVERY strict prefix must fail either the request
  // decode or the workflow deserialize. No prefix may produce a workflow.
  RegisterRequest req;
  req.name = "uploaded";
  req.workflow_bytes = SampleWorkflowBytes();
  std::string body;
  EncodeRegisterRequest(req, &body);
  for (size_t len = 0; len < body.size(); ++len) {
    RegisterRequest out;
    const Status decoded = DecodeRegisterRequest(body.substr(0, len), &out);
    if (!decoded.ok()) continue;
    EXPECT_FALSE(DeserializeWorkflowBinary(out.workflow_bytes).ok())
        << "prefix of " << len << " bytes produced a workflow";
  }
}

TEST(RegisterRequestTest, RejectsEmptyNameAndMissingBytes) {
  RegisterRequest req;
  req.name = "";
  req.workflow_bytes = "x";
  std::string body;
  EncodeRegisterRequest(req, &body);
  RegisterRequest out;
  EXPECT_EQ(DecodeRegisterRequest(body, &out).code(),
            StatusCode::kInvalidArgument);

  RegisterRequest no_bytes;
  no_bytes.name = "named";
  std::string body2;
  EncodeRegisterRequest(no_bytes, &body2);
  EXPECT_EQ(DecodeRegisterRequest(body2, &out).code(),
            StatusCode::kInvalidArgument);

  RegisterRequest long_name;
  long_name.name.assign(kMaxWorkflowNameLen + 1, 'n');
  long_name.workflow_bytes = "x";
  std::string body3;
  EncodeRegisterRequest(long_name, &body3);
  EXPECT_EQ(DecodeRegisterRequest(body3, &out).code(),
            StatusCode::kInvalidArgument);
}

TEST(RegisterRequestTest, WorkflowByteFlipFuzzNeverCrashes) {
  // Byte-flip fuzz across the FULL register path — request decode plus
  // workflow deserialize. Hostile bytes must come back as a typed Status
  // (or a clean decode of a different valid workflow), never a crash or a
  // PV_CHECK abort.
  RegisterRequest req;
  req.name = "fuzzed";
  req.workflow_bytes = SampleWorkflowBytes();
  std::string body;
  EncodeRegisterRequest(req, &body);

  Rng rng(0x72656766u);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = body;
    const int flips = 1 + static_cast<int>(rng.NextBelow(4));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.NextBelow(mutated.size());
      mutated[pos] ^= static_cast<char>(1u << rng.NextBelow(8));
    }
    RegisterRequest out;
    if (DecodeRegisterRequest(mutated, &out).ok()) {
      (void)DeserializeWorkflowBinary(out.workflow_bytes);  // must not crash
    }
  }
}

TEST(RegisterResponseTest, RoundTripAndTruncationSweep) {
  RegisterResponse resp;
  resp.num_attrs = 9;
  resp.num_modules = 4;
  resp.num_private_modules = 3;
  std::string body;
  EncodeRegisterResponse(resp, &body);
  RegisterResponse out;
  ASSERT_TRUE(DecodeRegisterResponse(body, &out).ok());
  EXPECT_EQ(out.num_attrs, 9u);
  EXPECT_EQ(out.num_modules, 4u);
  EXPECT_EQ(out.num_private_modules, 3u);

  for (size_t len = 0; len < body.size(); ++len) {
    RegisterResponse truncated;
    EXPECT_FALSE(
        DecodeRegisterResponse(body.substr(0, len), &truncated).ok());
  }
  EXPECT_FALSE(DecodeRegisterResponse(body + 'x', &out).ok());
}

TEST(UnregisterRequestTest, RoundTripTruncationAndTrailing) {
  std::string body;
  EncodeUnregisterRequest("doomed", &body);
  std::string name;
  ASSERT_TRUE(DecodeUnregisterRequest(body, &name).ok());
  EXPECT_EQ(name, "doomed");

  for (size_t len = 0; len < body.size(); ++len) {
    std::string out;
    EXPECT_FALSE(DecodeUnregisterRequest(body.substr(0, len), &out).ok())
        << "prefix of " << len << " bytes decoded";
  }
  EXPECT_EQ(DecodeUnregisterRequest(body + 'x', &name).code(),
            StatusCode::kInvalidArgument);

  std::string empty_body;
  EncodeUnregisterRequest("", &empty_body);
  EXPECT_EQ(DecodeUnregisterRequest(empty_body, &name).code(),
            StatusCode::kInvalidArgument);
}

// -- responses --------------------------------------------------------------

TEST(CertifyResponseTest, RoundTripAndTruncationSweep) {
  CertifyResponse resp;
  resp.checker_calls = 42;
  resp.cache_hits = 7;
  resp.entries.push_back(CertifyEntry{true, {4, 1, 2}, {0, 2}});
  resp.entries.push_back(CertifyEntry{false, {}, {}});
  std::string body;
  EncodeCertifyResponse(resp, &body);

  CertifyResponse out;
  ASSERT_TRUE(DecodeCertifyResponse(body, &out).ok());
  EXPECT_EQ(out.checker_calls, 42u);
  EXPECT_EQ(out.cache_hits, 7u);
  ASSERT_EQ(out.entries.size(), 2u);
  EXPECT_TRUE(out.entries[0].certified);
  EXPECT_EQ(out.entries[0].module_gammas, (std::vector<int64_t>{4, 1, 2}));
  EXPECT_EQ(out.entries[0].required_privatizations,
            (std::vector<uint32_t>{0, 2}));

  for (size_t len = 0; len < body.size(); ++len) {
    CertifyResponse truncated;
    EXPECT_FALSE(DecodeCertifyResponse(body.substr(0, len), &truncated).ok());
  }
}

TEST(StatResponseTest, RoundTripAndTruncationSweep) {
  StatSnapshot stats{{"requests_total", 10}, {"requests_ok", 9}};
  std::string body;
  EncodeStatResponse(stats, &body);
  StatSnapshot out;
  ASSERT_TRUE(DecodeStatResponse(body, &out).ok());
  EXPECT_EQ(out, stats);

  for (size_t len = 0; len < body.size(); ++len) {
    StatSnapshot truncated;
    EXPECT_FALSE(DecodeStatResponse(body.substr(0, len), &truncated).ok());
  }
}

TEST(ResponseBodyTest, StatusPrefixRoundTrip) {
  std::string body;
  EncodeStatusPrefix(Status::DeadlineExceeded("too slow"), &body);
  body += "PAYLOAD-IGNORED-ON-ERROR";
  Status status;
  std::string_view payload;
  ASSERT_TRUE(ParseResponseBody(body, &status, &payload).ok());
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(status.message(), "too slow");

  std::string ok_body;
  EncodeStatusPrefix(Status::OK(), &ok_body);
  ok_body += "payload";
  ASSERT_TRUE(ParseResponseBody(ok_body, &status, &payload).ok());
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(payload, "payload");
}

TEST(ResponseBodyTest, CorruptionFuzzNeverCrashes) {
  // Byte-flip fuzz over a valid certify-response body: every corruption
  // must produce SOME Status (either a clean decode of different values or
  // a typed rejection) without crashing or tripping sanitizers.
  CertifyResponse resp;
  resp.entries.push_back(CertifyEntry{true, {3, 3, 3}, {1}});
  std::string ok_payload;
  EncodeCertifyResponse(resp, &ok_payload);

  Rng rng(0x636f7270u);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = ok_payload;
    const int flips = 1 + static_cast<int>(rng.NextBelow(4));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.NextBelow(mutated.size());
      mutated[pos] ^= static_cast<char>(1u << rng.NextBelow(8));
    }
    CertifyResponse out;
    (void)DecodeCertifyResponse(mutated, &out);  // must simply not crash
  }
}

// -- live daemon: the blast-radius table ------------------------------------

class DaemonRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry_.RegisterBuiltins();
    daemon_ = std::make_unique<PodsDaemon>(&registry_);
    ASSERT_TRUE(daemon_->Start().ok());
  }
  void TearDown() override { daemon_->Stop(); }

  WorkflowRegistry registry_;
  std::unique_ptr<PodsDaemon> daemon_;
};

TEST_F(DaemonRobustnessTest, BadMagicGetsErrorAndConnectionCloses) {
  PodsClient client;
  ASSERT_TRUE(client.Connect(daemon_->port()).ok());

  std::string frame = BuildRequestFrame(MessageType::kPing, 1);
  frame[0] ^= 0x55;  // corrupt the magic
  ASSERT_TRUE(client.SendRaw(frame).ok());

  FrameHeader header;
  std::string body;
  ASSERT_TRUE(client.RecvResponse(&header, &body).ok());
  Status status;
  std::string_view payload;
  ASSERT_TRUE(ParseResponseBody(body, &status, &payload).ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);

  // Framing is untrusted after a bad header: the daemon hangs up.
  ASSERT_TRUE(client.SendRaw(BuildRequestFrame(MessageType::kPing, 2)).ok());
  EXPECT_FALSE(client.RecvResponse(&header, &body).ok());

  // ...but OTHER connections are unaffected.
  PodsClient fresh;
  ASSERT_TRUE(fresh.Connect(daemon_->port()).ok());
  EXPECT_TRUE(fresh.Ping().ok());
}

TEST_F(DaemonRobustnessTest, OversizedBodyLenClosesConnection) {
  PodsClient client;
  ASSERT_TRUE(client.Connect(daemon_->port()).ok());
  FrameHeader h;
  h.type = static_cast<uint16_t>(MessageType::kCertify);
  h.body_len = kMaxBodyLen + 1;  // forged length; no body follows
  std::string frame;
  EncodeFrameHeader(h, &frame);
  ASSERT_TRUE(client.SendRaw(frame).ok());

  FrameHeader header;
  std::string body;
  ASSERT_TRUE(client.RecvResponse(&header, &body).ok());
  Status status;
  std::string_view payload;
  ASSERT_TRUE(ParseResponseBody(body, &status, &payload).ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(DaemonRobustnessTest, UnknownTypeSurvivesConnection) {
  PodsClient client;
  ASSERT_TRUE(client.Connect(daemon_->port()).ok());
  FrameHeader h;
  h.type = 0x00EE;  // no such request type
  h.request_id = 9;
  std::string frame;
  EncodeFrameHeader(h, &frame);
  ASSERT_TRUE(client.SendRaw(frame).ok());

  FrameHeader header;
  std::string body;
  ASSERT_TRUE(client.RecvResponse(&header, &body).ok());
  EXPECT_EQ(header.request_id, 9u);
  Status status;
  std::string_view payload;
  ASSERT_TRUE(ParseResponseBody(body, &status, &payload).ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);

  // Well-framed garbage does NOT cost the connection.
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(DaemonRobustnessTest, MalformedBodySurvivesConnection) {
  PodsClient client;
  ASSERT_TRUE(client.Connect(daemon_->port()).ok());
  const std::string garbage = "\x01\x02\x03 not a certify body";
  ASSERT_TRUE(
      client.SendRaw(BuildRequestFrame(MessageType::kCertify, 1, garbage))
          .ok());
  FrameHeader header;
  std::string body;
  ASSERT_TRUE(client.RecvResponse(&header, &body).ok());
  Status status;
  std::string_view payload;
  ASSERT_TRUE(ParseResponseBody(body, &status, &payload).ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(DaemonRobustnessTest, HiddenAttrOutOfRangeIsTyped) {
  PodsClient client;
  ASSERT_TRUE(client.Connect(daemon_->port()).ok());
  CertifyRequest req;
  req.workflow = "fig1";
  req.items.push_back(CertifyItem{2, {99999}});  // far past the catalog
  CertifyResponse resp;
  const Status s = client.Certify(req, /*batch=*/false, &resp);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(DaemonRobustnessTest, HostileRegisterBodiesAreTypedAndContained) {
  PodsClient client;
  ASSERT_TRUE(client.Connect(daemon_->port()).ok());

  // Garbage workflow bytes: typed rejection, connection survives, nothing
  // registered.
  RegisterRequest req;
  req.name = "hostile";
  req.workflow_bytes = "these are not workflow bytes";
  std::string body;
  EncodeRegisterRequest(req, &body);
  std::string payload;
  const Status s = client.RoundTrip(
      BuildRequestFrame(MessageType::kRegister, 1, body), &payload);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_EQ(registry_.Find("hostile"), nullptr);

  // Registering over a builtin name is a typed duplicate rejection.
  EXPECT_EQ(client.Register("fig1", SampleWorkflowBytes()).code(),
            StatusCode::kInvalidArgument);

  // Unregistering the unknown is NOT_FOUND; the connection keeps serving.
  EXPECT_EQ(client.Unregister("never-registered").code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(DaemonRobustnessTest, PeerHangupMidFrameIsQuiet) {
  // Send half a header, then vanish. The daemon must shrug (no counter
  // corruption, no wedge) and keep serving others.
  {
    PodsClient client;
    ASSERT_TRUE(client.Connect(daemon_->port()).ok());
    ASSERT_TRUE(client.SendRaw("PODS").ok());
  }  // destructor closes the socket mid-frame
  PodsClient fresh;
  ASSERT_TRUE(fresh.Connect(daemon_->port()).ok());
  EXPECT_TRUE(fresh.Ping().ok());
}

}  // namespace
}  // namespace provview
