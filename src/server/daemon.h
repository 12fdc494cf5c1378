// podsd: a long-lived certification daemon. Listens on a local TCP port,
// serves the podsd wire protocol, and isolates every fault to the
// connection or request that caused it — the process degrades (typed error
// responses, closed connections) instead of dying.
//
// Threading model: one acceptor thread, the epoll reactor front-end, and
// one shared work-stealing TaskGraphExecutor running the engine work of
// every request. A fixed pool of --reactor-threads threads multiplexes all
// connections, so total thread count is bounded regardless of how many
// clients connect (a thousand idle monitors cost zero threads); requests
// are dispatched onto the executor as detached tasks and replies written
// back by the reactor. On a single-core host there is no executor: the
// reactor thread runs each request inline.
//
// Saturation is request-level, not per-request: ONE admission gate
// (queue-depth units) and ONE memory pool are shared by every in-flight
// request. A request that cannot be
// admitted gets a typed RESOURCE_EXHAUSTED carrying the current depth;
// engine byte charges draw from the shared pool in addition to any
// per-request ceiling the client set. Both surface in STAT (admission_*).
//
// Stop() is safe from any thread and idempotent: it shuts down the listen
// socket (unblocking accept), stops the reactor (severing connections,
// draining in-flight requests), then tears down the executor.
#ifndef PROVVIEW_SERVER_DAEMON_H_
#define PROVVIEW_SERVER_DAEMON_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>

#include "common/status.h"
#include "server/admission.h"
#include "server/handler.h"
#include "server/registry.h"
#include "server/stats.h"

namespace provview {

class Reactor;
class TaskGraphExecutor;

class PodsDaemon {
 public:
  struct Options {
    /// Workers of the daemon-wide engine executor. 0 = hardware
    /// concurrency minus one; when that resolves to zero workers — a
    /// single-core host — no executor is created and each request runs
    /// inline on the reactor thread that carried it.
    int engine_threads = 0;
    /// Admission-gate capacity in depth units, shared by ALL in-flight
    /// requests: a certify request charges items + 1 units up front, a
    /// REGISTER charges 1, and either is rejected with RESOURCE_EXHAUSTED
    /// (carrying the current depth) when the gate cannot cover it.
    int64_t max_pending = 4096;
    /// Daemon-wide engine-byte pool shared by all in-flight requests
    /// (attached to each request's ExecControl alongside its optional own
    /// ceiling). <= 0 = unbounded.
    int64_t memory_budget = 0;
    /// Epoll reactor threads: the daemon's thread count is bounded by
    /// this, not by connection count.
    int reactor_threads = 2;
  };

  /// `registry` must outlive the daemon and have its built-ins populated
  /// before Start(); wire REGISTER/UNREGISTER mutate it afterwards behind
  /// its own lock.
  explicit PodsDaemon(WorkflowRegistry* registry);
  PodsDaemon(WorkflowRegistry* registry, const Options& options);
  ~PodsDaemon();

  PodsDaemon(const PodsDaemon&) = delete;
  PodsDaemon& operator=(const PodsDaemon&) = delete;

  /// Binds 127.0.0.1:`port` (0 = kernel-assigned ephemeral port, read back
  /// via port()) and starts the reactor and acceptor threads.
  Status Start(uint16_t port = 0);

  /// Stops accepting, severs live connections, drains in-flight requests,
  /// joins all threads.
  void Stop();

  uint16_t port() const { return port_; }
  const DaemonStats& stats() const { return stats_; }
  DaemonStats* mutable_stats() { return &stats_; }
  /// The shared engine executor; null when requests run inline.
  TaskGraphExecutor* executor() { return executor_.get(); }
  const AdmissionController& admission() const { return admission_; }

 private:
  void AcceptLoop();

  WorkflowRegistry* registry_;
  Options options_;
  DaemonStats stats_;
  AdmissionController admission_;
  // Created in Start(), destroyed in Stop() after the reactor has drained
  // every in-flight request.
  std::unique_ptr<TaskGraphExecutor> executor_;
  std::unique_ptr<Reactor> reactor_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread acceptor_;
};

}  // namespace provview

#endif  // PROVVIEW_SERVER_DAEMON_H_
