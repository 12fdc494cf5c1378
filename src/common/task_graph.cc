#include "common/task_graph.h"

#include <algorithm>

namespace provview {

namespace {

// Which executor (and which of its slots) the current thread pushes to:
// workers pin their own deque for life, Run() callers adopt the shared
// inbox slot for the duration of HelpUntilDone(). Everyone else lands in
// the inbox via the nullptr default.
thread_local TaskGraphExecutor* tls_executor = nullptr;
thread_local int tls_slot = -1;

}  // namespace

int DefaultThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

int ResolveThreads(int requested) {
  return std::max(1, requested == 0 ? DefaultThreads() : requested);
}

std::pair<int64_t, int64_t> TaskRange(int64_t total, int tasks, int index) {
  const int64_t chunk = (total + tasks - 1) / tasks;
  const int64_t begin = std::min<int64_t>(total, chunk * index);
  const int64_t end = std::min<int64_t>(total, begin + chunk);
  return {begin, end};
}

EngineExecutor::EngineExecutor(TaskGraphExecutor* shared, int threads) {
  if (threads <= 1) return;
  if (shared == nullptr) {
    owned_ = std::make_unique<TaskGraphExecutor>(threads - 1);
    shared = owned_.get();
  }
  executor_ = shared;
}

// ----------------------------------------------------------------- graph --

TaskGraph::TaskId TaskGraph::Add(std::function<void()> fn,
                                 const std::vector<TaskId>& deps) {
  PV_CHECK_MSG(!ran_, "TaskGraph::Add after Run");
  const TaskId id = static_cast<TaskId>(tasks_.size());
  auto task = std::make_unique<Task>();
  task->fn = std::move(fn);
  task->graph = this;
  tasks_.push_back(std::move(task));
  for (TaskId dep : deps) AddDep(id, dep);
  return id;
}

void TaskGraph::AddDep(TaskId task, TaskId dep) {
  PV_CHECK_MSG(!ran_, "TaskGraph::AddDep after Run");
  PV_CHECK(task >= 0 && task < size());
  PV_CHECK(dep >= 0 && dep < size());
  PV_CHECK_MSG(task != dep, "task cannot depend on itself");
  tasks_[static_cast<size_t>(dep)]->succs.push_back(task);
  tasks_[static_cast<size_t>(task)]->pending.fetch_add(
      1, std::memory_order_relaxed);
}

void TaskGraph::CaptureError(std::exception_ptr error) {
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (first_error_ == nullptr) first_error_ = std::move(error);
  }
  cancelled_.store(true, std::memory_order_release);
}

Status TaskGraph::Finish() {
  done_.store(true, std::memory_order_release);
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    error = first_error_;
  }
  if (error != nullptr) std::rethrow_exception(error);
  if (control_ != nullptr) return control_->Check();
  return Status::OK();
}

Status TaskGraph::RunInline(const ExecControl* control) {
  PV_CHECK_MSG(!ran_, "TaskGraph is single-shot");
  ran_ = true;
  control_ = control;
  std::deque<Task*> ready;
  for (const auto& t : tasks_) {
    if (t->pending.load(std::memory_order_relaxed) == 0) ready.push_back(t.get());
  }
  int64_t executed = 0;
  while (!ready.empty()) {
    Task* t = ready.front();
    ready.pop_front();
    if (!ShouldSkip()) {
      try {
        t->fn();
      } catch (...) {
        CaptureError(std::current_exception());
      }
    }
    ++executed;
    for (TaskId s : t->succs) {
      Task* succ = tasks_[static_cast<size_t>(s)].get();
      if (succ->pending.fetch_sub(1, std::memory_order_relaxed) == 1) {
        ready.push_back(succ);
      }
    }
  }
  PV_CHECK_MSG(executed == static_cast<int64_t>(tasks_.size()),
               "task graph has a dependency cycle");
  return Finish();
}

Status TaskGraph::Run(TaskGraphExecutor* executor, const ExecControl* control) {
  if (executor == nullptr) return RunInline(control);
  PV_CHECK_MSG(!ran_, "TaskGraph is single-shot");
  ran_ = true;
  control_ = control;
  if (tasks_.empty()) return Finish();
  remaining_.store(static_cast<int64_t>(tasks_.size()),
                   std::memory_order_relaxed);
  std::vector<Task*> seeds;  // ascending id: deterministic seeding order
  for (const auto& t : tasks_) {
    if (t->pending.load(std::memory_order_relaxed) == 0) seeds.push_back(t.get());
  }
  PV_CHECK_MSG(!seeds.empty(), "task graph has a dependency cycle");
  for (Task* t : seeds) executor->Push(t);
  executor->HelpUntilDone(this);
  return Finish();
}

// -------------------------------------------------------------- executor --

TaskGraphExecutor::TaskGraphExecutor(int num_threads)
    : slots_(static_cast<size_t>(std::max(1, num_threads)) + 1) {
  const int n = std::max(1, num_threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

TaskGraphExecutor::~TaskGraphExecutor() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    stop_.store(true, std::memory_order_release);
  }
  wake_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  // Graph tasks are owned by their graphs, but detached tasks own
  // themselves: any still queued at teardown are discarded unrun.
  for (Slot& slot : slots_) {
    for (TaskGraph::Task* t : slot.q) {
      if (t->graph == nullptr) delete t;
    }
  }
}

void TaskGraphExecutor::SubmitDetached(std::function<void()> fn) {
  auto* t = new TaskGraph::Task;
  t->fn = std::move(fn);
  t->graph = nullptr;
  Push(t);
}

void TaskGraphExecutor::Push(TaskGraph::Task* t) {
  const int slot = (tls_executor == this && tls_slot >= 0)
                       ? tls_slot
                       : static_cast<int>(workers_.size());
  {
    std::lock_guard<std::mutex> lock(slots_[static_cast<size_t>(slot)].mu);
    slots_[static_cast<size_t>(slot)].q.push_back(t);
  }
  ready_.fetch_add(1, std::memory_order_release);
  // Lock/notify under wake_mu_ so a sleeper that just evaluated its
  // predicate cannot miss this wakeup.
  std::lock_guard<std::mutex> lock(wake_mu_);
  wake_cv_.notify_one();
}

TaskGraph::Task* TaskGraphExecutor::Grab(int home) {
  const int n = static_cast<int>(slots_.size());
  for (int i = 0; i < n; ++i) {
    Slot& slot = slots_[static_cast<size_t>((home + i) % n)];
    std::lock_guard<std::mutex> lock(slot.mu);
    if (slot.q.empty()) continue;
    TaskGraph::Task* t;
    if (i == 0) {  // own deque: newest first (locality)
      t = slot.q.back();
      slot.q.pop_back();
    } else {  // steal the oldest
      t = slot.q.front();
      slot.q.pop_front();
    }
    ready_.fetch_sub(1, std::memory_order_relaxed);
    return t;
  }
  return nullptr;
}

void TaskGraphExecutor::Execute(TaskGraph::Task* t) {
  TaskGraph* g = t->graph;
  if (g == nullptr) {
    // Detached task (SubmitDetached): self-owned, nothing to touch after
    // the body — it may be the last thing keeping its captures alive.
    try {
      t->fn();
    } catch (...) {
    }
    delete t;
    return;
  }
  if (!g->ShouldSkip()) {
    try {
      t->fn();
    } catch (...) {
      g->CaptureError(std::current_exception());
    }
  }
  for (TaskGraph::TaskId s : t->succs) {
    TaskGraph::Task* succ = g->tasks_[static_cast<size_t>(s)].get();
    // acq_rel: the last predecessor's decrement synchronizes with every
    // earlier one, so the successor body sees all predecessor writes.
    if (succ->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      Push(succ);
    }
  }
  if (g->remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Wake the sleepers only if the graph's helper is parked among them.
    // A helper still running sees done_ at its next check; skipping the
    // broadcast spares the completing thread a wait on sleepers the last
    // Push() woke but the OS has not yet scheduled. The flag is read before
    // done_ is published: once the helper sees done_, Run() may return and
    // destroy the graph.
    std::lock_guard<std::mutex> lock(wake_mu_);
    const bool parked = g->helper_parked_;
    g->done_.store(true, std::memory_order_release);
    if (parked) wake_cv_.notify_all();
  }
}

void TaskGraphExecutor::HelpUntilDone(TaskGraph* graph) {
  TaskGraphExecutor* const saved_executor = tls_executor;
  const int saved_slot = tls_slot;
  int home = tls_slot;
  if (tls_executor != this || tls_slot < 0) {
    // External caller: adopt the shared inbox for the helping span so its
    // releases land somewhere stealable.
    home = static_cast<int>(workers_.size());
    tls_executor = this;
    tls_slot = home;
  }
  while (!graph->done_.load(std::memory_order_acquire)) {
    TaskGraph::Task* t = Grab(home);
    if (t != nullptr) {
      Execute(t);
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mu_);
    graph->helper_parked_ = true;
    wake_cv_.wait(lock, [&] {
      return graph->done_.load(std::memory_order_acquire) ||
             ready_.load(std::memory_order_acquire) > 0;
    });
    graph->helper_parked_ = false;
  }
  tls_executor = saved_executor;
  tls_slot = saved_slot;
}

void TaskGraphExecutor::WorkerLoop(int self) {
  tls_executor = this;
  tls_slot = self;
  for (;;) {
    TaskGraph::Task* t = Grab(self);
    if (t != nullptr) {
      Execute(t);
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mu_);
    wake_cv_.wait(lock, [&] {
      return stop_.load(std::memory_order_acquire) ||
             ready_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_acquire)) return;
  }
}

}  // namespace provview
