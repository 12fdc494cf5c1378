// The daemon's request core: the epoll reactor (reactor.h) reassembles
// frames and hands every well-framed request here. This is the daemon's
// error-isolation boundary. The discipline (borrowed from memcached):
// validate every external byte, convert every failure into a
// per-connection or per-request error, and never let one client's input
// take down the process or another client's request.
//
//   failure                          blast radius
//   ------------------------------   -------------------------------------
//   bad magic / version / body_len   error response, THIS connection closes
//                                    (the reactor, before HandleFrame)
//   unknown request type             error response, connection survives
//   malformed request body           error response, connection survives
//   unknown workflow name            NOT_FOUND response, connection survives
//   deadline / memory budget trip    typed response, connection survives
//   admission gate saturated         RESOURCE_EXHAUSTED, connection survives
//   engine exception                 INTERNAL response, connection survives
//   peer hangs up mid-frame          connection closes quietly
//
// HandleFrame needs no socket, so tests also drive it in-process and
// compare the reactor's responses to it.
#ifndef PROVVIEW_SERVER_HANDLER_H_
#define PROVVIEW_SERVER_HANDLER_H_

#include <string>
#include <string_view>

#include "server/admission.h"
#include "server/protocol.h"
#include "server/registry.h"
#include "server/stats.h"

namespace provview {

class TaskGraphExecutor;

/// Everything a request needs, owned by the daemon and outliving every
/// connection.
struct RequestContext {
  WorkflowRegistry* registry = nullptr;
  DaemonStats* stats = nullptr;
  /// Shared engine executor; null = engines run inline on the calling
  /// thread (single-core hosts).
  TaskGraphExecutor* executor = nullptr;
  /// The request-level admission gate + shared memory pool (never null).
  AdmissionController* admission = nullptr;
  /// Reported in STAT (the reactor sets its thread count here).
  int reactor_threads = 0;
  /// True when the calling thread is free to help the executor run its own
  /// graph (an in-process caller). False when the caller IS an executor
  /// worker (the reactor dispatch path) — it already counts.
  bool caller_helps = true;
};

/// Dispatches one well-framed request and returns the complete response
/// frame. Exceptions from the engines are caught inside (the request-level
/// catch wall) and become INTERNAL responses; this never throws.
std::string HandleFrame(const RequestContext& ctx, const FrameHeader& header,
                        std::string_view body);

}  // namespace provview

#endif  // PROVVIEW_SERVER_HANDLER_H_
