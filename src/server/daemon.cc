#include "server/daemon.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/task_graph.h"
#include "server/reactor.h"

namespace provview {

PodsDaemon::PodsDaemon(WorkflowRegistry* registry)
    : PodsDaemon(registry, Options{}) {}

PodsDaemon::PodsDaemon(WorkflowRegistry* registry, const Options& options)
    : registry_(registry),
      options_(options),
      admission_(options.max_pending, options.memory_budget) {}

PodsDaemon::~PodsDaemon() { Stop(); }

Status PodsDaemon::Start(uint16_t port) {
  if (executor_ == nullptr) {
    const int workers = options_.engine_threads > 0
                            ? options_.engine_threads
                            : DefaultThreads() - 1;
    if (workers > 0) {
      // No executor-level gate: request admission is the daemon's single
      // saturation point (admission_ in the request context).
      executor_ = std::make_unique<TaskGraphExecutor>(workers);
    }
    // workers == 0: single-core host — skip the executor and let the
    // reactor run requests inline.
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // local clients only
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const Status s =
        Status::Internal(std::string("bind: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, /*backlog=*/64) != 0) {
    const Status s =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    const Status s =
        Status::Internal(std::string("getsockname: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  port_ = ntohs(bound.sin_port);
  RequestContext ctx;
  ctx.registry = registry_;
  ctx.stats = &stats_;
  ctx.executor = executor_.get();
  ctx.admission = &admission_;
  reactor_ = std::make_unique<Reactor>(ctx, options_.reactor_threads);
  reactor_->Start();
  stopping_.store(false, std::memory_order_release);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void PodsDaemon::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // ECONNABORTED et al. are per-connection noise; everything else
      // (including the shutdown() from Stop) ends the loop.
      if (errno == ECONNABORTED) continue;
      return;
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    reactor_->AddConnection(fd);  // takes ownership
  }
}

void PodsDaemon::Stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) {
    // A previous Stop already ran (or is running); just make sure the
    // acceptor is joined before returning.
    if (acceptor_.joinable()) acceptor_.join();
    return;
  }
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);  // unblocks accept()
  }
  if (acceptor_.joinable()) acceptor_.join();
  if (reactor_ != nullptr) {
    // Severs every reactor connection AND waits until each dispatched
    // request's detached engine task has finished — only then is the
    // executor safe to tear down.
    reactor_->Stop();
  }
  // Every in-flight request is drained: the shared executor can now be
  // torn down.
  executor_.reset();
  reactor_.reset();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

}  // namespace provview
