// Cooperative cancellation, deadlines and memory budgets for the privacy
// engines. A long-lived service cannot afford PV_CHECK-abort or unbounded
// walks: each request carries an ExecControl, the engines' hot loops poll it
// at chunk boundaries (an atomic load on the fast path; the clock is read
// only every `kClockStride` polls), and a tripped control makes the engine
// stop and surface a typed Status — DEADLINE_EXCEEDED for deadlines and
// external cancellation, RESOURCE_EXHAUSTED for memory-budget overruns —
// instead of running forever or taking the process down.
//
// One ExecControl is shared by every shard of a request (all members are
// atomics); it is NOT reusable across requests — make a fresh one per
// request so a tripped state never leaks into the next call.
#ifndef PROVVIEW_COMMON_EXEC_CONTROL_H_
#define PROVVIEW_COMMON_EXEC_CONTROL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

#include "common/status.h"

namespace provview {

/// A long-lived byte pool shared by MANY requests at once (the daemon's
/// request-level admission budget), in contrast to the per-request ceiling
/// inside ExecControl. Attach one to each request's control with
/// ExecControl::set_shared_budget: engine charges then draw from both, and
/// exhausting the POOL trips only the charging request (typed
/// RESOURCE_EXHAUSTED), never the pool itself — the pool recovers as other
/// requests release their bytes.
class MemoryBudget {
 public:
  /// `bytes` <= 0 means unbounded (every charge succeeds).
  explicit MemoryBudget(int64_t bytes)
      : budget_(bytes > 0 ? bytes : std::numeric_limits<int64_t>::max()),
        bounded_(bytes > 0) {}

  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  bool bounded() const { return bounded_; }
  int64_t budget() const { return budget_; }

  /// Reserves `bytes` from the pool; false (and nothing reserved) when the
  /// pool cannot cover them. Balanced by Release().
  bool TryCharge(int64_t bytes) {
    if (bytes <= 0) return true;
    int64_t used = bytes_in_use_.load(std::memory_order_relaxed);
    for (;;) {
      if (used > budget_ - bytes) {
        exhausted_charges_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      if (bytes_in_use_.compare_exchange_weak(used, used + bytes,
                                              std::memory_order_relaxed)) {
        break;
      }
    }
    const int64_t now_used = used + bytes;
    int64_t peak = peak_bytes_.load(std::memory_order_relaxed);
    while (now_used > peak &&
           !peak_bytes_.compare_exchange_weak(peak, now_used,
                                              std::memory_order_relaxed)) {
    }
    return true;
  }

  void Release(int64_t bytes) {
    if (bytes <= 0) return;
    bytes_in_use_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  int64_t bytes_in_use() const {
    return bytes_in_use_.load(std::memory_order_relaxed);
  }
  int64_t peak_bytes() const {
    return peak_bytes_.load(std::memory_order_relaxed);
  }
  /// Charges refused because the pool was exhausted.
  uint64_t exhausted_charges() const {
    return exhausted_charges_.load(std::memory_order_relaxed);
  }

 private:
  const int64_t budget_;
  const bool bounded_;
  std::atomic<int64_t> bytes_in_use_{0};
  std::atomic<int64_t> peak_bytes_{0};
  std::atomic<uint64_t> exhausted_charges_{0};
};

/// Per-request cancellation token: deadline + external cancel flag + memory
/// budget. Thread-safe; cheap to poll from many shards concurrently.
class ExecControl {
 public:
  ExecControl() = default;

  // All members are atomics, so the class is neither copyable nor movable:
  // configure a control in place, then share its address with every shard.

  /// Arms a deadline `ms` milliseconds from now (ms <= 0 trips on the first
  /// poll — the "deadline-doomed" request shape).
  void set_deadline_ms(int64_t ms) {
    set_deadline(std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(ms));
  }

  /// Arms the deadline. Call before handing the control to an engine.
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ns_.store(deadline.time_since_epoch().count(),
                       std::memory_order_relaxed);
    has_deadline_.store(true, std::memory_order_release);
  }

  /// Arms the memory budget (bytes of engine-tracked allocations).
  void set_memory_budget(int64_t bytes) {
    memory_budget_.store(bytes, std::memory_order_relaxed);
  }

  /// Additionally draws every charge from `shared` (a pool spanning many
  /// concurrent requests). A charge the pool cannot cover trips THIS
  /// control with RESOURCE_EXHAUSTED; the pool itself carries no trip
  /// state. Set before handing the control to an engine; the pool must
  /// outlive the request.
  void set_shared_budget(MemoryBudget* shared) { shared_budget_ = shared; }

  /// External cancellation (connection dropped, daemon shutting down).
  void Cancel() { cancelled_.store(true, std::memory_order_release); }

  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Cheap poll for the hot loops: true once the control has tripped
  /// (cancelled, past the deadline, or over the memory budget). The
  /// deadline clock is only consulted every `kClockStride` calls per
  /// calling thread, so polling per iteration stays nearly free.
  bool Expired() const {
    if (tripped_.load(std::memory_order_relaxed)) return true;
    if (cancelled_.load(std::memory_order_relaxed)) {
      trip(StatusCode::kDeadlineExceeded);
      return true;
    }
    if (!has_deadline_.load(std::memory_order_relaxed)) return false;
    thread_local uint32_t stride = 0;
    if (++stride % kClockStride != 0) return false;
    return CheckDeadlineNow();
  }

  /// Like Expired() but always reads the clock — use at request entry and
  /// at coarse boundaries (level barriers, chunk ends).
  bool ExpiredNow() const {
    if (tripped_.load(std::memory_order_relaxed)) return true;
    if (cancelled_.load(std::memory_order_relaxed)) {
      trip(StatusCode::kDeadlineExceeded);
      return true;
    }
    if (!has_deadline_.load(std::memory_order_relaxed)) return false;
    return CheckDeadlineNow();
  }

  /// Charges `bytes` against the memory budget. Returns false — and trips
  /// the control with RESOURCE_EXHAUSTED — if the charge would exceed it.
  /// Balanced by Release(); engines charge their dominant allocations
  /// (execution logs, per-walk walker state) so the ceiling is enforced on
  /// measured bytes, not guesses.
  bool TryCharge(int64_t bytes) const;

  /// Returns previously charged bytes to the budget.
  void Release(int64_t bytes) const;

  int64_t bytes_in_use() const {
    return bytes_in_use_.load(std::memory_order_relaxed);
  }
  int64_t peak_bytes() const {
    return peak_bytes_.load(std::memory_order_relaxed);
  }

  /// OK while the control has not tripped; afterwards the typed reason:
  /// DeadlineExceeded (deadline or Cancel()) or ResourceExhausted (budget).
  Status Check() const;

 private:
  static constexpr uint32_t kClockStride = 1024;

  bool CheckDeadlineNow() const {
    const int64_t now =
        std::chrono::steady_clock::now().time_since_epoch().count();
    if (now >= deadline_ns_.load(std::memory_order_relaxed)) {
      trip(StatusCode::kDeadlineExceeded);
      return true;
    }
    return false;
  }

  void trip(StatusCode code) const {
    StatusCode expected = StatusCode::kOk;
    trip_code_.compare_exchange_strong(expected, code,
                                       std::memory_order_acq_rel);
    tripped_.store(true, std::memory_order_release);
  }

  std::atomic<bool> has_deadline_{false};
  std::atomic<int64_t> deadline_ns_{std::numeric_limits<int64_t>::max()};
  std::atomic<bool> cancelled_{false};
  mutable std::atomic<bool> tripped_{false};
  mutable std::atomic<StatusCode> trip_code_{StatusCode::kOk};
  std::atomic<int64_t> memory_budget_{std::numeric_limits<int64_t>::max()};
  mutable std::atomic<int64_t> bytes_in_use_{0};
  mutable std::atomic<int64_t> peak_bytes_{0};
  MemoryBudget* shared_budget_ = nullptr;  // set before engines run
};

}  // namespace provview

#endif  // PROVVIEW_COMMON_EXEC_CONTROL_H_
