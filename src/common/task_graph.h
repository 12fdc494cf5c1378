// The library's one executor. A TaskGraph is a one-shot DAG of
// void() tasks with explicit predecessor edges; a TaskGraphExecutor is a
// long-lived set of workers with per-worker deques and steal-on-empty, in
// the spirit of concurrencpp's thread-pool executor but with dependency
// counting instead of coroutines. The properties the engines rely on:
//
//   * A task runs only after every predecessor finished; completion of the
//     last predecessor releases the successor onto the completing worker's
//     own deque (locality), from where idle workers steal.
//   * Run() callers always help: the calling thread drains tasks alongside
//     the workers until its graph completes. This is what makes nested
//     Run() from inside a task deadlock-free (the nested caller works
//     instead of parking while holding its worker), keeps the executor
//     work-conserving, and means a 1-worker executor plus its caller are
//     two runners.
//   * Cooperative cancellation at task boundaries: the graph's ExecControl
//     is checked before every task body; once tripped (or once any task
//     throws), remaining bodies are skipped while dependency bookkeeping
//     still runs to completion, so Run() always returns. The first
//     exception is rethrown from Run(); a tripped control surfaces as its
//     typed Status.
//
// The executor does not gate admission: podsd admits requests through its
// own AdmissionController (server/admission.h) before submitting work.
//
// Determinism: the executor schedules tasks in a nondeterministic order, so
// deterministic results are the *graph builder's* job — tasks write to
// disjoint slots and dedicated merge/absorb tasks combine them in a fixed
// order (see safe_subset_search.cc and docs/task_graph.md). RunInline()
// executes the same graph fully sequentially in task-id-seeded FIFO order:
// the zero-overhead path for resolved num_threads == 1. EngineExecutor picks
// between the two for an engine call.
#ifndef PROVVIEW_COMMON_TASK_GRAPH_H_
#define PROVVIEW_COMMON_TASK_GRAPH_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/exec_control.h"
#include "common/status.h"

namespace provview {

class TaskGraphExecutor;

/// std::thread::hardware_concurrency() with a floor of 1.
int DefaultThreads();

/// Resolves an options-style thread count: 0 means auto (hardware
/// concurrency), anything else is clamped to >= 1. The single policy shared
/// by every `num_threads` knob in the library.
int ResolveThreads(int requested);

/// Range `index` of `tasks` contiguous ceil-divided [begin, end) ranges
/// partitioning [0, total). Trailing ranges may be empty when `tasks` does
/// not divide `total` evenly.
std::pair<int64_t, int64_t> TaskRange(int64_t total, int tasks, int index);

/// One-shot dependency DAG of void() tasks. Build with Add()/AddDep(), then
/// Run() exactly once. Not thread-safe during construction; tasks must not
/// call Add() on their own graph.
class TaskGraph {
 public:
  using TaskId = int;

  TaskGraph() = default;
  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  /// Adds a task depending on `deps` (each an id returned earlier). Edges
  /// must keep the graph acyclic — a cycle is a fatal builder bug and is
  /// detected by Run()/RunInline().
  TaskId Add(std::function<void()> fn, const std::vector<TaskId>& deps = {});

  /// Adds the edge dep -> task after both exist. Call before Run().
  void AddDep(TaskId task, TaskId dep);

  int size() const { return static_cast<int>(tasks_.size()); }

  /// Executes the graph on `executor`, the calling thread helping until the
  /// graph completes. executor == nullptr degrades to RunInline(). Returns
  /// OK, or the control's typed Status if it tripped mid-graph; rethrows
  /// the first task exception. Single-shot.
  Status Run(TaskGraphExecutor* executor, const ExecControl* control = nullptr);

  /// Fully sequential execution on the calling thread: ready tasks run in
  /// deterministic FIFO order seeded by ascending task id. Same skip /
  /// error semantics as Run().
  Status RunInline(const ExecControl* control = nullptr);

 private:
  friend class TaskGraphExecutor;

  struct Task {
    std::function<void()> fn;
    TaskGraph* graph = nullptr;
    std::vector<TaskId> succs;
    std::atomic<int64_t> pending{0};  // unfinished predecessors
  };

  // True once task bodies must be skipped (error or tripped control); the
  // bookkeeping still drains every task so Run() terminates.
  bool ShouldSkip() const {
    if (cancelled_.load(std::memory_order_acquire)) return true;
    if (control_ != nullptr && control_->ExpiredNow()) return true;
    return false;
  }
  void CaptureError(std::exception_ptr error);
  Status Finish();

  std::vector<std::unique_ptr<Task>> tasks_;
  const ExecControl* control_ = nullptr;
  bool ran_ = false;

  std::atomic<bool> cancelled_{false};
  std::mutex error_mu_;
  std::exception_ptr first_error_;  // guarded by error_mu_

  std::atomic<int64_t> remaining_{0};
  std::atomic<bool> done_{false};
  bool helper_parked_ = false;  // the Run() caller waits; guarded by the
                                // executor's wake_mu_
};

/// Long-lived work-stealing executor: `num_threads` background workers,
/// each with its own deque, plus a shared inbox deque for submissions from
/// non-worker threads. Graphs from many callers interleave on one executor
/// (the podsd sharing model); helping callers keep it work-conserving.
/// Destroy only after every Run() has returned.
class TaskGraphExecutor {
 public:
  explicit TaskGraphExecutor(int num_threads);
  ~TaskGraphExecutor();

  TaskGraphExecutor(const TaskGraphExecutor&) = delete;
  TaskGraphExecutor& operator=(const TaskGraphExecutor&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Runs `fn` on some worker without blocking the caller and without a
  /// graph: the task owns itself and is deleted after its body returns
  /// (exceptions are swallowed — a detached body must do its own error
  /// delivery, e.g. the reactor completion path). The caller must keep the
  /// executor alive until every detached body has finished; bodies still
  /// queued when the executor is destroyed are discarded unrun.
  void SubmitDetached(std::function<void()> fn);

 private:
  friend class TaskGraph;

  struct Slot {
    std::mutex mu;
    std::deque<TaskGraph::Task*> q;  // guarded by mu
  };

  // Pushes a ready task: a worker (or adopted helper) pushes to its own
  // deque, anyone else to the shared inbox; then wakes one sleeper.
  void Push(TaskGraph::Task* t);
  // Pops from `home` (LIFO end for locality) or steals (FIFO end) from the
  // other slots; nullptr when everything is empty.
  TaskGraph::Task* Grab(int home);
  // Runs one task: skip-or-execute the body, release successors, retire the
  // graph when this was its last task.
  void Execute(TaskGraph::Task* t);
  // The Run() caller's loop: drain tasks (any graph's — work conservation)
  // until `graph` completes.
  void HelpUntilDone(TaskGraph* graph);
  void WorkerLoop(int self);

  std::vector<Slot> slots_;  // one per worker + trailing shared inbox
  std::vector<std::thread> workers_;
  std::atomic<int64_t> ready_{0};  // tasks sitting in some deque
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::atomic<bool> stop_{false};
};

/// Where an engine call runs its task graph: nullptr (TaskGraph::Run runs it
/// inline) when `threads` <= 1; otherwise the caller's `shared` executor,
/// or — when there is none — a private executor of threads - 1 workers
/// owned by this object (the Run() caller helps, so `threads` runners
/// total).
class EngineExecutor {
 public:
  EngineExecutor(TaskGraphExecutor* shared, int threads);

  TaskGraphExecutor* get() const { return executor_; }

 private:
  std::unique_ptr<TaskGraphExecutor> owned_;
  TaskGraphExecutor* executor_ = nullptr;
};

}  // namespace provview

#endif  // PROVVIEW_COMMON_TASK_GRAPH_H_
