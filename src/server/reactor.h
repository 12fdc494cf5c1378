// Epoll reactor front-end for podsd: a FIXED pool of reactor threads
// multiplexes every connection, so the daemon's thread count is bounded by
// --reactor-threads (plus engine workers), not by connection count — a
// thousand idle monitors cost a thousand fds and some buffer state, zero
// threads. Each reactor thread owns one epoll instance, an eventfd wakeup,
// and the connections sharded onto it (round-robin at accept); ALL
// epoll_ctl and connection-state mutation for a shard happens on its own
// thread, so connection state needs no locks.
//
// Per connection, a frame-reassembly state machine accumulates bytes until
// a full header+body is buffered, then dispatches the request. With a
// shared executor the dispatch is a detached engine task (the reactor
// thread never blocks on engine work); its response is posted back to the
// owning shard's completion queue and written by the reactor. One request
// is in flight per connection — EPOLLIN stays disarmed while busy, which
// is the natural per-connection backpressure (the kernel socket buffer
// absorbs pipelined requests until the reply goes out).
//
// The blast-radius table lives with the HandleFrame core (handler.h): a
// framing error gets one error response and closes that connection; every
// other failure is a typed response on a surviving connection.
#ifndef PROVVIEW_SERVER_REACTOR_H_
#define PROVVIEW_SERVER_REACTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/handler.h"

namespace provview {

class Reactor {
 public:
  /// `ctx` is the daemon's request context; the reactor forces
  /// caller_helps = false (dispatched handlers run ON executor workers,
  /// which already count toward engine parallelism). `num_threads` < 1 is
  /// clamped to 1.
  Reactor(const RequestContext& ctx, int num_threads);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  void Start();

  /// Stops reactor threads, waits for in-flight dispatched requests to
  /// drain (their completions are dropped), then closes every connection.
  /// Idempotent. The daemon must call this BEFORE destroying the executor.
  void Stop();

  /// Hands an accepted socket to a shard (round-robin). Takes ownership of
  /// `fd`; makes it nonblocking. Called from the acceptor thread.
  void AddConnection(int fd);

  int num_threads() const { return static_cast<int>(shards_.size()); }

 private:
  /// Per-connection state, touched only by the owning shard's thread
  /// (completions cross threads as {shared_ptr<Conn>, bytes} messages; the
  /// `closed` flag makes a completion for an already-closed connection a
  /// safe no-op even if the fd number was reused).
  struct Conn {
    int fd = -1;
    std::string inbuf;          ///< frame-reassembly buffer
    std::deque<std::string> outq;
    size_t outpos = 0;          ///< progress into outq.front()
    uint32_t events = 0;        ///< current epoll interest mask
    bool busy = false;          ///< one request in flight; EPOLLIN disarmed
    bool close_after_write = false;  ///< framing error: flush, then close
    bool closed = false;
  };

  /// One reactor thread's world. Queues are the only cross-thread surface.
  struct Shard {
    int epoll_fd = -1;
    int event_fd = -1;
    std::thread thread;
    std::map<int, std::shared_ptr<Conn>> conns;  ///< fd -> state
    std::mutex mu;  ///< guards the two queues below
    std::vector<int> pending_adds;
    std::vector<std::pair<std::shared_ptr<Conn>, std::string>> completions;
  };

  void RunShard(Shard* shard);
  void Wake(Shard* shard);
  void RegisterConn(Shard* shard, int fd);
  void UpdateEvents(Shard* shard, const std::shared_ptr<Conn>& conn,
                    uint32_t events);
  void CloseConn(Shard* shard, const std::shared_ptr<Conn>& conn);
  void HandleReadable(Shard* shard, const std::shared_ptr<Conn>& conn);
  /// Consumes complete frames from inbuf; dispatches at most one request
  /// (then the connection is busy until its completion).
  void ParseFrames(Shard* shard, const std::shared_ptr<Conn>& conn);
  void Dispatch(Shard* shard, const std::shared_ptr<Conn>& conn,
                const FrameHeader& header, std::string body);
  void Enqueue(Shard* shard, const std::shared_ptr<Conn>& conn,
               std::string bytes);
  /// Writes as much of outq as the socket takes; arms/disarms EPOLLOUT and
  /// honors close_after_write.
  void FlushWrites(Shard* shard, const std::shared_ptr<Conn>& conn);
  void DrainQueues(Shard* shard);

  RequestContext ctx_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<size_t> next_shard_{0};
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  /// Dispatched-but-uncompleted requests; Stop() drains this to zero
  /// before tearing down, so no detached engine task ever touches a dead
  /// reactor.
  std::atomic<int64_t> in_flight_{0};
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
};

}  // namespace provview

#endif  // PROVVIEW_SERVER_REACTOR_H_
