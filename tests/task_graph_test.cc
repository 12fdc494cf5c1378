#include "common/task_graph.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/exec_control.h"

namespace provview {
namespace {

TEST(TaskGraphTest, RunsEveryTask) {
  TaskGraphExecutor executor(3);
  TaskGraph graph;
  std::atomic<int> counter(0);
  for (int i = 0; i < 200; ++i) {
    graph.Add([&counter] { counter.fetch_add(1); });
  }
  EXPECT_TRUE(graph.Run(&executor).ok());
  EXPECT_EQ(counter.load(), 200);
}

TEST(TaskGraphTest, DependenciesOrderExecution) {
  TaskGraphExecutor executor(4);
  TaskGraph graph;
  // A linear chain plus a diamond; every task records its position, and
  // every edge must be respected in the observed sequence.
  std::mutex mu;
  std::vector<int> order;
  auto record = [&](int id) {
    std::lock_guard<std::mutex> g(mu);
    order.push_back(id);
  };
  const TaskGraph::TaskId a = graph.Add([&] { record(0); });
  const TaskGraph::TaskId b = graph.Add([&] { record(1); }, {a});
  const TaskGraph::TaskId c = graph.Add([&] { record(2); }, {a});
  const TaskGraph::TaskId d = graph.Add([&] { record(3); }, {b, c});
  graph.Add([&] { record(4); }, {d});
  EXPECT_TRUE(graph.Run(&executor).ok());
  ASSERT_EQ(order.size(), 5u);
  auto pos = [&](int id) {
    for (size_t i = 0; i < order.size(); ++i) {
      if (order[i] == id) return i;
    }
    ADD_FAILURE() << "task " << id << " never ran";
    return order.size();
  };
  EXPECT_LT(pos(0), pos(1));
  EXPECT_LT(pos(0), pos(2));
  EXPECT_LT(pos(1), pos(3));
  EXPECT_LT(pos(2), pos(3));
  EXPECT_LT(pos(3), pos(4));
}

TEST(TaskGraphTest, AddDepOrdersExecutionAfterBothTasksExist) {
  TaskGraphExecutor executor(2);
  TaskGraph graph;
  std::atomic<bool> first_done(false);
  bool dep_respected = false;
  const TaskGraph::TaskId late = graph.Add(
      [&] { dep_respected = first_done.load(std::memory_order_acquire); });
  const TaskGraph::TaskId early = graph.Add(
      [&] { first_done.store(true, std::memory_order_release); });
  graph.AddDep(late, early);
  EXPECT_TRUE(graph.Run(&executor).ok());
  EXPECT_TRUE(dep_respected);
}

TEST(TaskGraphTest, StealingCoversSkewedFanOut) {
  // All tasks are released by one root onto one worker's deque; the others
  // must steal to finish. Every task records the thread it ran on — with 4
  // workers plus the helping caller and deliberately slow tasks, at least
  // two distinct threads should participate, and the count must be exact.
  TaskGraphExecutor executor(4);
  TaskGraph graph;
  std::atomic<int> counter(0);
  std::mutex mu;
  std::set<std::thread::id> threads;
  const TaskGraph::TaskId root = graph.Add([] {});
  for (int i = 0; i < 64; ++i) {
    graph.Add(
        [&] {
          volatile int sink = 0;
          for (int k = 0; k < 20000; ++k) sink += k;
          counter.fetch_add(1);
          std::lock_guard<std::mutex> g(mu);
          threads.insert(std::this_thread::get_id());
        },
        {root});
  }
  EXPECT_TRUE(graph.Run(&executor).ok());
  EXPECT_EQ(counter.load(), 64);
  EXPECT_GE(threads.size(), 1u);  // >= 2 on real multicore, 1 is legal
}

TEST(TaskGraphTest, ExceptionPropagatesAndSkipsRemainder) {
  TaskGraphExecutor executor(2);
  TaskGraph graph;
  std::atomic<int> ran_after(0);
  const TaskGraph::TaskId boom =
      graph.Add([] { throw std::runtime_error("task exploded"); });
  for (int i = 0; i < 32; ++i) {
    graph.Add([&ran_after] { ran_after.fetch_add(1); }, {boom});
  }
  EXPECT_THROW(graph.Run(&executor), std::runtime_error);
  // Every successor saw the cancelled flag: none of their bodies ran.
  EXPECT_EQ(ran_after.load(), 0);
}

TEST(TaskGraphTest, CancellationMidGraphSkipsRemainingBodies) {
  TaskGraphExecutor executor(2);
  ExecControl control;
  TaskGraph graph;
  std::atomic<int> ran(0);
  // A chain: the second task cancels the control; everything downstream
  // must be skipped while the graph still drains and Run returns the typed
  // status.
  const TaskGraph::TaskId first = graph.Add([&ran] { ran.fetch_add(1); });
  const TaskGraph::TaskId trip =
      graph.Add([&control] { control.Cancel(); }, {first});
  TaskGraph::TaskId prev = trip;
  for (int i = 0; i < 32; ++i) {
    prev = graph.Add([&ran] { ran.fetch_add(1); }, {prev});
  }
  const Status status = graph.Run(&executor, &control);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(ran.load(), 1);
}

TEST(TaskGraphTest, RunInlineIsDeterministicFifo) {
  // Without an executor the graph runs sequentially: ready tasks execute in
  // task-id-seeded FIFO order, so the observed order is reproducible.
  std::vector<int> first_order;
  for (int trial = 0; trial < 2; ++trial) {
    TaskGraph graph;
    std::vector<int> order;
    const TaskGraph::TaskId a = graph.Add([&] { order.push_back(0); });
    graph.Add([&] { order.push_back(1); });
    const TaskGraph::TaskId c = graph.Add([&] { order.push_back(2); }, {a});
    graph.Add([&] { order.push_back(3); }, {c});
    graph.Add([&] { order.push_back(4); });
    EXPECT_TRUE(graph.RunInline().ok());
    ASSERT_EQ(order.size(), 5u);
    if (trial == 0) {
      first_order = order;
    } else {
      EXPECT_EQ(order, first_order);
    }
  }
  // Seeded in id order: 0 and 1 and 4 are roots (FIFO), then released 2, 3.
  EXPECT_EQ(first_order, (std::vector<int>{0, 1, 4, 2, 3}));
}

TEST(TaskGraphTest, NullExecutorDegradesToInline) {
  TaskGraph graph;
  int ran = 0;
  graph.Add([&ran] { ++ran; });
  EXPECT_TRUE(graph.Run(nullptr).ok());
  EXPECT_EQ(ran, 1);
}

TEST(TaskGraphTest, NestedRunFromWorkerDoesNotDeadlock) {
  // A task graph whose tasks each run their own child graph on the same
  // executor — the pattern BuildWorkflowTables-inside-CertifyWorkflowBatch
  // hits. Callers always help, so a 1-worker executor must still finish.
  TaskGraphExecutor executor(1);
  TaskGraph outer;
  std::atomic<int> inner_total(0);
  for (int i = 0; i < 8; ++i) {
    outer.Add([&executor, &inner_total] {
      TaskGraph inner;
      for (int j = 0; j < 16; ++j) {
        inner.Add([&inner_total] { inner_total.fetch_add(1); });
      }
      EXPECT_TRUE(inner.Run(&executor).ok());
    });
  }
  EXPECT_TRUE(outer.Run(&executor).ok());
  EXPECT_EQ(inner_total.load(), 8 * 16);
}

TEST(TaskGraphTest, ManyGraphsInterleaveOnOneExecutor) {
  // The daemon sharing model: concurrent Run() calls from several threads
  // against one executor.
  TaskGraphExecutor executor(3);
  std::atomic<int> total(0);
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&executor, &total] {
      for (int g = 0; g < 10; ++g) {
        TaskGraph graph;
        const TaskGraph::TaskId root =
            graph.Add([&total] { total.fetch_add(1); });
        for (int i = 0; i < 10; ++i) {
          graph.Add([&total] { total.fetch_add(1); }, {root});
        }
        EXPECT_TRUE(graph.Run(&executor).ok());
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(total.load(), 4 * 10 * 11);
}

TEST(TaskGraphTest, EmptyGraphCompletes) {
  TaskGraphExecutor executor(2);
  TaskGraph graph;
  EXPECT_TRUE(graph.Run(&executor).ok());
  TaskGraph inline_graph;
  EXPECT_TRUE(inline_graph.RunInline().ok());
}

}  // namespace
}  // namespace provview
