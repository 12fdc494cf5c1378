#include "server/reactor.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "common/task_graph.h"

namespace provview {

namespace {
constexpr int kMaxEpollEvents = 64;
constexpr size_t kReadChunk = 64 * 1024;
}  // namespace

Reactor::Reactor(const RequestContext& ctx, int num_threads) : ctx_(ctx) {
  ctx_.caller_helps = false;  // dispatched handlers run ON executor workers
  if (num_threads < 1) num_threads = 1;
  ctx_.reactor_threads = num_threads;
  shards_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

Reactor::~Reactor() { Stop(); }

void Reactor::Start() {
  if (started_) return;
  started_ = true;
  for (auto& shard : shards_) {
    shard->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    shard->event_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = shard->event_fd;
    ::epoll_ctl(shard->epoll_fd, EPOLL_CTL_ADD, shard->event_fd, &ev);
    shard->thread = std::thread(&Reactor::RunShard, this, shard.get());
  }
}

void Reactor::Stop() {
  if (!started_ || stopping_.exchange(true)) {
    // Not started, or a second Stop: still wait out any in-flight drain.
    if (started_) {
      std::unique_lock<std::mutex> lock(drain_mu_);
      drain_cv_.wait(lock, [&] {
        return in_flight_.load(std::memory_order_acquire) == 0;
      });
    }
    return;
  }
  for (auto& shard : shards_) Wake(shard.get());
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  // Detached engine tasks may still be running handlers; their completion
  // posts land in queues nobody reads (memory stays valid — the shards
  // outlive this wait). Only once they are all done is it safe for the
  // daemon to destroy the executor.
  {
    std::unique_lock<std::mutex> lock(drain_mu_);
    drain_cv_.wait(lock, [&] {
      return in_flight_.load(std::memory_order_acquire) == 0;
    });
  }
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      for (int fd : shard->pending_adds) ::close(fd);
      shard->pending_adds.clear();
      shard->completions.clear();
    }
    for (auto& [fd, conn] : shard->conns) {
      conn->closed = true;
      ::close(fd);
      ctx_.stats->connections_closed.fetch_add(1, std::memory_order_relaxed);
    }
    shard->conns.clear();
    if (shard->event_fd >= 0) ::close(shard->event_fd);
    if (shard->epoll_fd >= 0) ::close(shard->epoll_fd);
    shard->event_fd = shard->epoll_fd = -1;
  }
}

void Reactor::AddConnection(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  Shard* shard =
      shards_[next_shard_.fetch_add(1, std::memory_order_relaxed) %
              shards_.size()]
          .get();
  {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->pending_adds.push_back(fd);
  }
  Wake(shard);
}

void Reactor::Wake(Shard* shard) {
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(shard->event_fd, &one, sizeof(one));
}

void Reactor::RunShard(Shard* shard) {
  epoll_event events[kMaxEpollEvents];
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(shard->epoll_fd, events, kMaxEpollEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd == shard->event_fd) {
        uint64_t drained;
        while (::read(shard->event_fd, &drained, sizeof(drained)) > 0) {
        }
        DrainQueues(shard);
        continue;
      }
      const auto it = shard->conns.find(events[i].data.fd);
      if (it == shard->conns.end()) continue;
      std::shared_ptr<Conn> conn = it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        // Peer gone. If a request is mid-engine its completion finds
        // conn->closed and drops the reply.
        CloseConn(shard, conn);
        continue;
      }
      if (events[i].events & EPOLLIN) HandleReadable(shard, conn);
      if (conn->closed) continue;
      if (events[i].events & EPOLLOUT) FlushWrites(shard, conn);
    }
  }
}

void Reactor::DrainQueues(Shard* shard) {
  std::vector<int> adds;
  std::vector<std::pair<std::shared_ptr<Conn>, std::string>> done;
  {
    std::lock_guard<std::mutex> lock(shard->mu);
    adds.swap(shard->pending_adds);
    done.swap(shard->completions);
  }
  for (int fd : adds) RegisterConn(shard, fd);
  for (auto& [conn, response] : done) {
    if (conn->closed) continue;
    conn->busy = false;
    Enqueue(shard, conn, std::move(response));
    if (conn->closed || conn->close_after_write) continue;
    if (!(conn->events & EPOLLIN)) {
      UpdateEvents(shard, conn, conn->events | EPOLLIN);
    }
    // Pipelined requests may already be fully buffered in inbuf — the
    // socket will never go readable for them, so parse again now.
    ParseFrames(shard, conn);
  }
}

void Reactor::RegisterConn(Shard* shard, int fd) {
  int flag = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &flag, sizeof(flag));
  auto conn = std::make_shared<Conn>();
  conn->fd = fd;
  conn->events = EPOLLIN;
  epoll_event ev{};
  ev.events = conn->events;
  ev.data.fd = fd;
  if (::epoll_ctl(shard->epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    return;
  }
  shard->conns.emplace(fd, std::move(conn));
  ctx_.stats->connections_opened.fetch_add(1, std::memory_order_relaxed);
}

void Reactor::UpdateEvents(Shard* shard, const std::shared_ptr<Conn>& conn,
                           uint32_t events) {
  conn->events = events;
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = conn->fd;
  ::epoll_ctl(shard->epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
}

void Reactor::CloseConn(Shard* shard, const std::shared_ptr<Conn>& conn) {
  if (conn->closed) return;
  conn->closed = true;
  ::epoll_ctl(shard->epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  shard->conns.erase(conn->fd);
  ctx_.stats->connections_closed.fetch_add(1, std::memory_order_relaxed);
}

void Reactor::HandleReadable(Shard* shard,
                             const std::shared_ptr<Conn>& conn) {
  char buf[kReadChunk];
  for (;;) {
    const ssize_t got = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (got > 0) {
      conn->inbuf.append(buf, static_cast<size_t>(got));
      ctx_.stats->bytes_received.fetch_add(static_cast<uint64_t>(got),
                                           std::memory_order_relaxed);
      if (got < static_cast<ssize_t>(sizeof(buf))) break;
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    CloseConn(shard, conn);  // peer closed or hard error
    return;
  }
  if (!conn->busy && !conn->close_after_write) ParseFrames(shard, conn);
}

void Reactor::ParseFrames(Shard* shard, const std::shared_ptr<Conn>& conn) {
  while (!conn->busy && !conn->close_after_write &&
         conn->inbuf.size() >= kFrameHeaderSize) {
    FrameHeader header;
    const Status framing = DecodeFrameHeader(
        std::string_view(conn->inbuf.data(), kFrameHeaderSize), &header);
    if (!framing.ok()) {
      // The stream can no longer be trusted (the next "frame" could start
      // anywhere): answer once, flush, and close THIS connection.
      ctx_.stats->rejected_frames.fetch_add(1, std::memory_order_relaxed);
      ctx_.stats->RecordOutcome(framing);
      conn->close_after_write = true;
      UpdateEvents(shard, conn, conn->events & ~uint32_t{EPOLLIN});
      Enqueue(shard, conn,
              BuildResponseFrame(header.type, header.request_id, framing));
      return;
    }
    const size_t frame_len = kFrameHeaderSize + header.body_len;
    if (conn->inbuf.size() < frame_len) return;  // await the rest
    std::string body = conn->inbuf.substr(kFrameHeaderSize, header.body_len);
    conn->inbuf.erase(0, frame_len);
    Dispatch(shard, conn, header, std::move(body));
  }
}

void Reactor::Dispatch(Shard* shard, const std::shared_ptr<Conn>& conn,
                       const FrameHeader& header, std::string body) {
  if (ctx_.executor == nullptr) {
    // No engine pool: run the handler inline on the reactor thread (the
    // single-threaded engine mode; certification blocks this shard only).
    Enqueue(shard, conn, HandleFrame(ctx_, header, std::move(body)));
    return;
  }
  conn->busy = true;
  UpdateEvents(shard, conn, conn->events & ~uint32_t{EPOLLIN});
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  ctx_.executor->SubmitDetached(
      [this, shard, conn, header, body = std::move(body)]() {
        std::string response = HandleFrame(ctx_, header, body);
        {
          std::lock_guard<std::mutex> lock(shard->mu);
          shard->completions.emplace_back(conn, std::move(response));
        }
        Wake(shard);
        if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          std::lock_guard<std::mutex> lock(drain_mu_);
          drain_cv_.notify_all();
        }
      });
}

void Reactor::Enqueue(Shard* shard, const std::shared_ptr<Conn>& conn,
                      std::string bytes) {
  conn->outq.push_back(std::move(bytes));
  FlushWrites(shard, conn);
}

void Reactor::FlushWrites(Shard* shard, const std::shared_ptr<Conn>& conn) {
  while (!conn->outq.empty()) {
    const std::string& front = conn->outq.front();
    while (conn->outpos < front.size()) {
      const ssize_t sent =
          ::send(conn->fd, front.data() + conn->outpos,
                 front.size() - conn->outpos, MSG_NOSIGNAL);
      if (sent > 0) {
        conn->outpos += static_cast<size_t>(sent);
        ctx_.stats->bytes_sent.fetch_add(static_cast<uint64_t>(sent),
                                         std::memory_order_relaxed);
        continue;
      }
      if (sent < 0 && errno == EINTR) continue;
      if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!(conn->events & EPOLLOUT)) {
          UpdateEvents(shard, conn, conn->events | EPOLLOUT);
        }
        return;  // kernel buffer full; epoll resumes us
      }
      CloseConn(shard, conn);
      return;
    }
    conn->outpos = 0;
    conn->outq.pop_front();
  }
  if (conn->events & EPOLLOUT) {
    UpdateEvents(shard, conn, conn->events & ~uint32_t{EPOLLOUT});
  }
  if (conn->close_after_write) CloseConn(shard, conn);
}

}  // namespace provview
