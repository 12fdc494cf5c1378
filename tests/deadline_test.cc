// Deadline / cancellation / memory-budget semantics of the service-mode
// engines: a doomed control trips with a typed Status and partial stats, a
// generous one changes NOTHING — the results must be identical to a run
// with no control at all. That equivalence is the contract that lets podsd
// attach an ExecControl to every request unconditionally.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/exec_control.h"
#include "common/task_graph.h"
#include "privacy/possible_worlds.h"
#include "privacy/workflow_privacy.h"
#include "server/client.h"
#include "server/daemon.h"
#include "server/registry.h"
#include "workflow/fig1_workflow.h"

namespace provview {
namespace {

// Every subset of {a3..a7} as a hidden-set request (gamma 2): enough work
// to be observable, small enough for a unit test.
std::vector<WorkflowCertificationRequest> Fig1Requests(
    const Fig1Workflow& fig1) {
  const int universe = fig1.catalog->size();
  const int attrs[] = {fig1.a3, fig1.a4, fig1.a5, fig1.a6, fig1.a7};
  std::vector<WorkflowCertificationRequest> requests;
  for (uint32_t mask = 0; mask < (1u << 5); ++mask) {
    Bitset64 hidden(universe);
    for (int b = 0; b < 5; ++b) {
      if ((mask >> b) & 1u) hidden.Set(attrs[b]);
    }
    requests.push_back(WorkflowCertificationRequest{hidden, 2});
  }
  return requests;
}

void ExpectSameEntries(const WorkflowBatchResult& a,
                       const WorkflowBatchResult& b) {
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].certificate.certified,
              b.entries[i].certificate.certified)
        << "request " << i;
    EXPECT_EQ(a.entries[i].certificate.module_gammas,
              b.entries[i].certificate.module_gammas)
        << "request " << i;
    EXPECT_EQ(a.entries[i].certificate.required_privatizations,
              b.entries[i].certificate.required_privatizations)
        << "request " << i;
    EXPECT_EQ(a.entries[i].ground_truth_private,
              b.entries[i].ground_truth_private)
        << "request " << i;
  }
}

TEST(DeadlineTest, DoomedDeadlineTripsWithPartialStats) {
  Fig1Workflow fig1 = MakeFig1Workflow();
  const auto requests = Fig1Requests(fig1);

  ExecControl control;
  control.set_deadline_ms(0);  // already expired at entry
  WorkflowBatchOptions opts;
  opts.num_threads = 1;
  opts.control = &control;
  const WorkflowBatchResult result =
      CertifyWorkflowBatch(*fig1.workflow, requests, opts);

  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  // Entries exist (aligned with requests) but carry no certified verdicts.
  ASSERT_EQ(result.entries.size(), requests.size());
  for (const WorkflowBatchEntry& e : result.entries) {
    EXPECT_FALSE(e.certificate.certified);
  }
}

TEST(DeadlineTest, CancellationTripsAsDeadlineExceeded) {
  Fig1Workflow fig1 = MakeFig1Workflow();
  ExecControl control;
  control.Cancel();  // e.g. the connection dropped before the engine ran
  WorkflowBatchOptions opts;
  opts.control = &control;
  const WorkflowBatchResult result =
      CertifyWorkflowBatch(*fig1.workflow, Fig1Requests(fig1), opts);
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
}

TEST(DeadlineTest, GenerousDeadlineIsByteIdenticalToNoControl) {
  Fig1Workflow fig1 = MakeFig1Workflow();
  const auto requests = Fig1Requests(fig1);

  WorkflowBatchOptions plain;
  plain.num_threads = 1;
  const WorkflowBatchResult baseline =
      CertifyWorkflowBatch(*fig1.workflow, requests, plain);
  ASSERT_TRUE(baseline.status.ok());

  ExecControl control;
  control.set_deadline_ms(60'000);
  control.set_memory_budget(int64_t{1} << 30);
  WorkflowBatchOptions guarded = plain;
  guarded.control = &control;
  const WorkflowBatchResult with_control =
      CertifyWorkflowBatch(*fig1.workflow, requests, guarded);
  ASSERT_TRUE(with_control.status.ok());

  ExpectSameEntries(baseline, with_control);
  EXPECT_EQ(baseline.stats.checker_calls, with_control.stats.checker_calls);
  EXPECT_EQ(baseline.stats.cache_hits, with_control.stats.cache_hits);
}

TEST(DeadlineTest, GenerousControlMatchesGroundTruthPath) {
  Fig1Workflow fig1 = MakeFig1Workflow();
  auto requests = Fig1Requests(fig1);
  requests.resize(8);  // ground truth enumerates worlds: keep it tiny

  WorkflowBatchOptions plain;
  plain.num_threads = 1;
  plain.with_ground_truth = true;
  const WorkflowBatchResult baseline =
      CertifyWorkflowBatch(*fig1.workflow, requests, plain);
  ASSERT_TRUE(baseline.status.ok());

  ExecControl control;
  control.set_deadline_ms(120'000);
  control.set_memory_budget(int64_t{1} << 30);
  WorkflowBatchOptions guarded = plain;
  guarded.control = &control;
  const WorkflowBatchResult with_control =
      CertifyWorkflowBatch(*fig1.workflow, requests, guarded);
  ASSERT_TRUE(with_control.status.ok());

  ExpectSameEntries(baseline, with_control);
}

TEST(DeadlineTest, TinyMemoryBudgetTripsResourceExhausted) {
  Fig1Workflow fig1 = MakeFig1Workflow();
  auto requests = Fig1Requests(fig1);
  requests.resize(4);

  ExecControl control;
  control.set_memory_budget(16);  // the world tables cannot fit in 16 bytes
  WorkflowBatchOptions opts;
  opts.num_threads = 1;
  opts.with_ground_truth = true;  // the enumeration engines charge memory
  opts.control = &control;
  const WorkflowBatchResult result =
      CertifyWorkflowBatch(*fig1.workflow, requests, opts);
  EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
  // A rejected charge is never recorded: whatever DID fit stayed under the
  // ceiling the whole time.
  EXPECT_LE(control.peak_bytes(), 16);
}

// -- 4-thread ground truth ----------------------------------------------------
//
// Batch ground-truth walks run as concurrent tasks on the batch's executor,
// and each running walk charges one walker's state, the same at any thread
// count. So a one-request batch, which runs one walk at a time, needs the
// same budget at every thread count.

void ExpectEntriesReset(const WorkflowBatchResult& result, size_t requests) {
  ASSERT_EQ(result.entries.size(), requests);
  for (size_t i = 0; i < result.entries.size(); ++i) {
    const WorkflowBatchEntry& e = result.entries[i];
    EXPECT_FALSE(e.certificate.certified) << "request " << i;
    EXPECT_TRUE(e.certificate.module_gammas.empty()) << "request " << i;
    EXPECT_TRUE(e.certificate.required_privatizations.empty())
        << "request " << i;
    EXPECT_FALSE(e.ground_truth_private) << "request " << i;
  }
}

// fig1 with all of a3..a7 hidden: the largest of fig1's walks.
std::vector<WorkflowCertificationRequest> Fig1AllHidden(
    const Fig1Workflow& fig1) {
  return {Fig1Requests(fig1).back()};
}

// The bytes a fig1 table build charges to its control, as recorded on the
// tables. The charge does not depend on the build's thread count.
int64_t Fig1TablesCharge(const Fig1Workflow& fig1) {
  ExecControl control;
  WorkflowTablesOptions topts;
  topts.control = &control;
  const int64_t charged =
      BuildWorkflowTables(*fig1.workflow, topts)->charged_bytes;
  // The build charges exactly what it records, and never releases it.
  EXPECT_EQ(control.bytes_in_use(), charged);
  return charged;
}

struct Charges {
  Status status;
  int64_t peak = 0;
  int64_t retained = 0;  // still charged after the batch returned
  int64_t tables = 0;    // the tables' charge, held while the walks run
  int64_t walks() const { return peak - tables; }
};

// Bytes charged by a ground-truth batch at `threads` under `budget`. The
// verdicts answer from `warm`, settled beforehand, so no memo insert adds
// its admission probe: the tables and the walks are the only charges.
Charges GroundTruthCharges(
    const Fig1Workflow& fig1,
    const std::vector<WorkflowCertificationRequest>& reqs, int threads,
    int64_t budget, WorkflowCacheNamespace* warm) {
  ExecControl control;
  control.set_memory_budget(budget);
  WorkflowBatchOptions opts;
  opts.num_threads = threads;
  opts.with_ground_truth = true;
  opts.control = &control;
  Charges c;
  c.status = CertifyWorkflowBatch(*fig1.workflow, reqs, opts, warm).status;
  c.peak = control.peak_bytes();
  c.retained = control.bytes_in_use();
  c.tables = Fig1TablesCharge(fig1);
  return c;
}

// A namespace holding every verdict `reqs` asks for.
std::unique_ptr<WorkflowCacheNamespace> WarmVerdicts(
    const Fig1Workflow& fig1,
    const std::vector<WorkflowCertificationRequest>& reqs) {
  auto warm = std::make_unique<WorkflowCacheNamespace>(*fig1.workflow);
  WorkflowBatchOptions opts;
  opts.num_threads = 1;
  EXPECT_TRUE(
      CertifyWorkflowBatch(*fig1.workflow, reqs, opts, warm.get()).status.ok());
  return warm;
}

TEST(DeadlineTest, WalkPeakChargeIsThreadInvariant) {
  // One request, so one walk runs at a time: its charge is one walker's
  // state at one, two and four threads.
  Fig1Workflow fig1 = MakeFig1Workflow();
  const auto requests = Fig1AllHidden(fig1);
  const auto warm = WarmVerdicts(fig1, requests);
  const int64_t generous = int64_t{1} << 30;
  const Charges one = GroundTruthCharges(fig1, requests, 1, generous, warm.get());
  const Charges two = GroundTruthCharges(fig1, requests, 2, generous, warm.get());
  const Charges four =
      GroundTruthCharges(fig1, requests, 4, generous, warm.get());
  for (const Charges* c : {&one, &two, &four}) {
    ASSERT_TRUE(c->status.ok()) << c->status.ToString();
    // The walk charges and the tables' charge are all released.
    EXPECT_EQ(c->retained, 0);
  }
  ASSERT_GT(one.tables, 0);
  ASSERT_GT(one.walks(), 0);
  EXPECT_EQ(two.walks(), one.walks());
  EXPECT_EQ(four.walks(), one.walks());
}

TEST(DeadlineTest, OneThreadBudgetFitsFourThreadWalk) {
  // The one-thread peak covers the tables plus one walk, and so does the
  // same budget at four threads, with the one-thread verdicts. One byte
  // less still fits the tables, but not the walk's charge, at either count.
  Fig1Workflow fig1 = MakeFig1Workflow();
  const auto requests = Fig1AllHidden(fig1);
  const auto warm = WarmVerdicts(fig1, requests);
  const Charges unlimited =
      GroundTruthCharges(fig1, requests, 1, int64_t{1} << 30, warm.get());
  ASSERT_GT(unlimited.walks(), 0);
  const int64_t budget = unlimited.peak;
  WorkflowBatchResult runs[2];
  const int threads[2] = {1, 4};
  for (int t = 0; t < 2; ++t) {
    ExecControl control;
    control.set_memory_budget(budget - 1);
    WorkflowBatchOptions opts;
    opts.num_threads = threads[t];
    opts.with_ground_truth = true;
    opts.control = &control;
    const WorkflowBatchResult tight =
        CertifyWorkflowBatch(*fig1.workflow, requests, opts, warm.get());
    EXPECT_EQ(tight.status.code(), StatusCode::kResourceExhausted)
        << threads[t] << " threads: " << tight.status.ToString();
    // The tables were charged in full before the walk's charge failed.
    EXPECT_GE(control.peak_bytes(), unlimited.tables)
        << threads[t] << " threads";
    EXPECT_LE(control.peak_bytes(), budget - 1) << threads[t] << " threads";
    EXPECT_EQ(control.bytes_in_use(), 0) << threads[t] << " threads";
    ExpectEntriesReset(tight, requests.size());
  }
  for (int t = 0; t < 2; ++t) {
    ExecControl control;
    control.set_memory_budget(budget);
    WorkflowBatchOptions opts;
    opts.num_threads = threads[t];
    opts.with_ground_truth = true;
    opts.control = &control;
    runs[t] = CertifyWorkflowBatch(*fig1.workflow, requests, opts, warm.get());
    ASSERT_TRUE(runs[t].status.ok())
        << threads[t] << " threads: " << runs[t].status.ToString();
    EXPECT_LE(control.peak_bytes(), budget) << threads[t] << " threads";
    EXPECT_EQ(control.bytes_in_use(), 0) << threads[t] << " threads";
  }
  ASSERT_EQ(runs[0].entries.size(), requests.size());
  ASSERT_EQ(runs[1].entries.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const WorkflowBatchEntry& a = runs[0].entries[i];
    const WorkflowBatchEntry& b = runs[1].entries[i];
    EXPECT_EQ(a.certificate.certified, b.certificate.certified);
    EXPECT_EQ(a.certificate.module_gammas, b.certificate.module_gammas);
    EXPECT_EQ(a.certificate.required_privatizations,
              b.certificate.required_privatizations);
    EXPECT_EQ(a.ground_truth_private, b.ground_truth_private);
  }
}

TEST(DeadlineTest, GroundTruthBatchReturnsSharedPoolToBaseline) {
  // A control drawing from a shared pool, as podsd's handler sets one up:
  // after a ground-truth batch the tables', the lattice's and the walks'
  // charges are back in the pool, at one thread and at four, and at four
  // also when the waves' nested runs share a caller-owned executor.
  Fig1Workflow fig1 = MakeFig1Workflow();
  const auto requests = Fig1Requests(fig1);
  MemoryBudget pool(int64_t{1} << 30);
  TaskGraphExecutor executor(3);
  for (TaskGraphExecutor* shared :
       {static_cast<TaskGraphExecutor*>(nullptr), &executor}) {
    for (int threads : {1, 4}) {
      if (shared != nullptr && threads == 1) continue;
      const std::string where =
          std::to_string(threads) + " threads" +
          (shared != nullptr ? ", shared executor" : "");
      ExecControl control;
      control.set_shared_budget(&pool);
      WorkflowBatchOptions opts;
      opts.num_threads = threads;
      opts.executor = shared;
      opts.with_ground_truth = true;
      opts.control = &control;
      const WorkflowBatchResult result =
          CertifyWorkflowBatch(*fig1.workflow, requests, opts);
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      EXPECT_GT(control.peak_bytes(), 0) << where;
      EXPECT_EQ(control.bytes_in_use(), 0) << where;
      EXPECT_EQ(pool.bytes_in_use(), 0) << where;
    }
  }
}

TEST(DeadlineTest, ExpiredDeadlineResetsFourThreadGroundTruth) {
  Fig1Workflow fig1 = MakeFig1Workflow();
  const auto requests = Fig1Requests(fig1);
  TaskGraphExecutor executor(3);
  for (TaskGraphExecutor* shared :
       {static_cast<TaskGraphExecutor*>(nullptr), &executor}) {
    ExecControl control;
    control.set_deadline_ms(0);  // already expired at entry
    WorkflowBatchOptions opts;
    opts.num_threads = 4;
    opts.executor = shared;
    opts.with_ground_truth = true;
    opts.control = &control;
    const WorkflowBatchResult result =
        CertifyWorkflowBatch(*fig1.workflow, requests, opts);
    EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
    ExpectEntriesReset(result, requests.size());
  }
}

// -- daemon round trips ------------------------------------------------------

TEST(DeadlineTest, DaemonDoomedDeadlineIsTypedAndSurvives) {
  WorkflowRegistry registry;
  registry.RegisterBuiltins();
  PodsDaemon daemon(&registry);
  ASSERT_TRUE(daemon.Start().ok());

  PodsClient client;
  ASSERT_TRUE(client.Connect(daemon.port()).ok());

  CertifyRequest doomed;
  doomed.workflow = "fig1";
  doomed.deadline_ms = 1;  // armed, and expired by the time the engine polls
  doomed.items.push_back(CertifyItem{2, {3, 4}});
  // The engine may win the race on a fast machine; force the loss by
  // sending a request whose deadline has passed before the daemon parses
  // it: 1ms is enough in practice, but accept either typed outcome.
  CertifyResponse resp;
  const Status s = client.Certify(doomed, /*batch=*/false, &resp);
  EXPECT_TRUE(s.ok() || s.code() == StatusCode::kDeadlineExceeded)
      << s.message();

  // Whatever happened, the connection and the daemon survived.
  EXPECT_TRUE(client.Ping().ok());
  StatSnapshot stats;
  EXPECT_TRUE(client.Stat(&stats).ok());
  daemon.Stop();
}

TEST(DeadlineTest, DaemonGenerousDeadlineMatchesDirectBatch) {
  WorkflowRegistry registry;
  registry.RegisterBuiltins();
  PodsDaemon daemon(&registry);
  ASSERT_TRUE(daemon.Start().ok());

  Fig1Workflow fig1 = MakeFig1Workflow();
  const auto direct_requests = Fig1Requests(fig1);
  WorkflowBatchOptions opts;
  opts.num_threads = 1;
  const WorkflowBatchResult direct =
      CertifyWorkflowBatch(*fig1.workflow, direct_requests, opts);
  ASSERT_TRUE(direct.status.ok());

  PodsClient client;
  ASSERT_TRUE(client.Connect(daemon.port()).ok());
  CertifyRequest req;
  req.workflow = "fig1";
  req.deadline_ms = 60'000;
  const int attrs[] = {fig1.a3, fig1.a4, fig1.a5, fig1.a6, fig1.a7};
  for (uint32_t mask = 0; mask < (1u << 5); ++mask) {
    CertifyItem item;
    item.gamma = 2;
    for (int b = 0; b < 5; ++b) {
      if ((mask >> b) & 1u) {
        item.hidden_attrs.push_back(static_cast<uint32_t>(attrs[b]));
      }
    }
    req.items.push_back(std::move(item));
  }
  CertifyResponse resp;
  ASSERT_TRUE(client.Certify(req, /*batch=*/true, &resp).ok());

  ASSERT_EQ(resp.entries.size(), direct.entries.size());
  for (size_t i = 0; i < resp.entries.size(); ++i) {
    EXPECT_EQ(resp.entries[i].certified, direct.entries[i].certificate.certified)
        << "request " << i;
    EXPECT_EQ(resp.entries[i].module_gammas,
              direct.entries[i].certificate.module_gammas)
        << "request " << i;
  }
  daemon.Stop();
}

}  // namespace
}  // namespace provview
