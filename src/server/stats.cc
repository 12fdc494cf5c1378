#include "server/stats.h"

#include <string>

#include "privacy/verdict_cache.h"
#include "server/admission.h"

namespace provview {

void DaemonStats::RecordOutcome(const Status& status) {
  requests_total.fetch_add(1, std::memory_order_relaxed);
  if (status.ok()) {
    requests_ok.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  requests_error.fetch_add(1, std::memory_order_relaxed);
  switch (status.code()) {
    case StatusCode::kDeadlineExceeded:
      deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
      break;
    case StatusCode::kResourceExhausted:
      resource_exhausted.fetch_add(1, std::memory_order_relaxed);
      break;
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
      invalid_requests.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      break;
  }
}

StatSnapshot DaemonStats::Snapshot(const VerdictCache* cache) const {
  StatContext ctx;
  ctx.cache = cache;
  return Snapshot(ctx);
}

StatSnapshot DaemonStats::Snapshot(const StatContext& ctx) const {
  const VerdictCache* cache = ctx.cache;
  const auto get = [](const std::atomic<uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  StatSnapshot snap{
      {"connections_opened", get(connections_opened)},
      {"connections_closed", get(connections_closed)},
      {"rejected_frames", get(rejected_frames)},
      {"requests_total", get(requests_total)},
      {"requests_ok", get(requests_ok)},
      {"requests_error", get(requests_error)},
      {"ping_requests", get(ping_requests)},
      {"stat_requests", get(stat_requests)},
      {"certify_requests", get(certify_requests)},
      {"batch_requests", get(batch_requests)},
      {"items_certified", get(items_certified)},
      {"items_rejected", get(items_rejected)},
      {"memo_checker_calls", get(memo_checker_calls)},
      {"memo_cache_hits", get(memo_cache_hits)},
      {"deadline_exceeded", get(deadline_exceeded)},
      {"resource_exhausted", get(resource_exhausted)},
      {"invalid_requests", get(invalid_requests)},
      {"bytes_received", get(bytes_received)},
      {"bytes_sent", get(bytes_sent)},
      {"peak_request_bytes", peak_request_bytes()},
  };
  const auto u64 = [](int64_t v) {
    return v < 0 ? uint64_t{0} : static_cast<uint64_t>(v);
  };
  if (cache != nullptr || ctx.admission != nullptr) {
    snap.emplace_back("stat_version",
                      ctx.admission != nullptr ? uint64_t{3} : uint64_t{2});
  }
  if (cache != nullptr) {
    const VerdictCacheStats cs = cache->Stats();
    snap.emplace_back("verdict_cache_byte_budget",
                      cache->bounded() ? u64(cs.byte_budget) : uint64_t{0});
    snap.emplace_back("verdict_cache_bytes", u64(cs.bytes_in_use));
    snap.emplace_back("verdict_cache_peak_bytes", u64(cs.peak_bytes));
    snap.emplace_back("verdict_cache_namespaces", u64(cs.namespaces));
    const auto per_class = [&](const char* prefix,
                               const VerdictCacheStats::PerClass& c) {
      const std::string p = std::string("verdict_cache_") + prefix;
      snap.emplace_back(p + "_hits", u64(c.hits));
      snap.emplace_back(p + "_misses", u64(c.misses));
      snap.emplace_back(p + "_inserts", u64(c.inserts));
      snap.emplace_back(p + "_evictions", u64(c.evictions));
      snap.emplace_back(p + "_bytes", u64(c.bytes));
      snap.emplace_back(p + "_entries", u64(c.entries));
    };
    per_class("signature", cs.signature);
    per_class("projection", cs.projection);  // retired: always 0
  }
  if (ctx.admission != nullptr) {
    // stat_version 3: wire registration, request-level admission, reactor.
    const AdmissionController& adm = *ctx.admission;
    snap.emplace_back("workflows_registered", ctx.workflows_registered);
    snap.emplace_back("register_requests", get(register_requests));
    snap.emplace_back("unregister_requests", get(unregister_requests));
    snap.emplace_back("admission_depth", u64(adm.depth()));
    snap.emplace_back("admission_peak_depth", u64(adm.peak_depth()));
    snap.emplace_back("admission_max_depth", u64(adm.max_depth()));
    snap.emplace_back("admission_rejected", adm.rejected());
    const MemoryBudget& pool = adm.memory();
    snap.emplace_back("admission_memory_budget",
                      pool.bounded() ? u64(pool.budget()) : uint64_t{0});
    snap.emplace_back("admission_memory_bytes", u64(pool.bytes_in_use()));
    snap.emplace_back("admission_memory_peak_bytes", u64(pool.peak_bytes()));
    snap.emplace_back("admission_memory_exhausted", pool.exhausted_charges());
    snap.emplace_back("reactor_threads", ctx.reactor_threads);
  }
  return snap;
}

}  // namespace provview
