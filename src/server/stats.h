// Daemon-wide counters behind the STAT request. All fields are relaxed
// atomics bumped from connection threads; Snapshot() reads them without a
// lock (each counter is individually consistent — STAT is monitoring, not
// accounting, exactly like memcached's `stats`).
#ifndef PROVVIEW_SERVER_STATS_H_
#define PROVVIEW_SERVER_STATS_H_

#include <atomic>
#include <cstdint>

#include "server/protocol.h"

namespace provview {

class AdmissionController;
class VerdictCache;

class DaemonStats {
 public:
  std::atomic<uint64_t> connections_opened{0};
  std::atomic<uint64_t> connections_closed{0};
  /// Frames whose header failed validation (bad magic/version, oversized
  /// body_len) — each one also closes its connection.
  std::atomic<uint64_t> rejected_frames{0};

  std::atomic<uint64_t> requests_total{0};
  std::atomic<uint64_t> requests_ok{0};
  std::atomic<uint64_t> requests_error{0};
  std::atomic<uint64_t> ping_requests{0};
  std::atomic<uint64_t> stat_requests{0};
  std::atomic<uint64_t> certify_requests{0};
  std::atomic<uint64_t> batch_requests{0};
  std::atomic<uint64_t> register_requests{0};
  std::atomic<uint64_t> unregister_requests{0};

  /// Per-item verdicts across all certification responses.
  std::atomic<uint64_t> items_certified{0};
  std::atomic<uint64_t> items_rejected{0};
  /// Aggregated SafetyMemo counters (the shared verdict cache at work).
  std::atomic<uint64_t> memo_checker_calls{0};
  std::atomic<uint64_t> memo_cache_hits{0};

  /// Typed-failure tallies.
  std::atomic<uint64_t> deadline_exceeded{0};
  std::atomic<uint64_t> resource_exhausted{0};
  std::atomic<uint64_t> invalid_requests{0};

  std::atomic<uint64_t> bytes_received{0};
  std::atomic<uint64_t> bytes_sent{0};

  /// Records one request's peak engine-charged bytes; keeps the max.
  void RecordPeakRequestBytes(uint64_t peak) {
    uint64_t cur = peak_request_bytes_.load(std::memory_order_relaxed);
    while (peak > cur && !peak_request_bytes_.compare_exchange_weak(
                             cur, peak, std::memory_order_relaxed)) {
    }
  }
  uint64_t peak_request_bytes() const {
    return peak_request_bytes_.load(std::memory_order_relaxed);
  }

  /// Classifies a finished request into the ok/error + typed-failure
  /// counters.
  void RecordOutcome(const Status& status);

  /// Everything beyond the counters that the STAT snapshot reports: the
  /// shared verdict cache, the admission controller, the live registry
  /// size, and the reactor thread count. All optional — absent members
  /// skip their section.
  struct StatContext {
    const VerdictCache* cache = nullptr;
    const AdmissionController* admission = nullptr;
    uint64_t workflows_registered = 0;
    uint64_t reactor_threads = 0;
  };

  /// Key/value rendering for the STAT response (stable key order). When
  /// `cache` is non-null, appends the versioned verdict-cache section:
  /// a `stat_version` marker followed by `verdict_cache_*` keys. Sections
  /// are append-only — parsers keying off names (podsctl) never break, and
  /// `stat_version` tells newer tooling which sections to expect
  /// (2 = verdict cache; 3 = + registration/admission/reactor). The
  /// `verdict_cache_projection_*` keys are retired and always read 0.
  StatSnapshot Snapshot(const VerdictCache* cache = nullptr) const;
  StatSnapshot Snapshot(const StatContext& ctx) const;

 private:
  std::atomic<uint64_t> peak_request_bytes_{0};
};

}  // namespace provview

#endif  // PROVVIEW_SERVER_STATS_H_
