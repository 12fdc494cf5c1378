// One shared, evicting, memory-accounted verdict cache. The certification
// decision (is this hidden set Γ-safe on this module?) is pure and
// endlessly re-asked — across subset-lattice levels, across
// CertifyWorkflowBatch requests, and across podsd connections — so the
// verdict store is a cache in the memcached sense, not a per-request map:
//
//   * sharded — the serialized key hashes to one of num_shards independent
//     segments, each behind its own mutex (striped locking), so concurrent
//     requests against the same workflow contend only when they touch the
//     same shard;
//   * segmented LRU — each shard keeps a probation and a protected list. A
//     new entry enters probation; a hit promotes it to protected; eviction
//     drains probation first, so one-shot scans cannot flush the working
//     set of repeated certifications;
//   * memory-accounted — a counting allocator charges every byte the
//     shard's containers allocate (keys, entries, index buckets) against a
//     per-shard atomic, so the hard byte budget is enforced on *measured*
//     bytes, memcached-style, not on guessed entry sizes.
//
// Keys are SafetyMemo's serialized effective-visible signatures, its one
// memo level. Verdicts are deterministic, so first-wins insertion is exact
// and eviction can only forget a verdict, never corrupt one.
//
// Namespaces partition the key space: each (workflow, private module)
// binds one namespace id, so one cache instance serves a whole daemon
// without cross-module collisions and STAT can report a namespace count.
// Dropping a namespace (an unregistered workflow) forgets its entries and
// returns their bytes.
#ifndef PROVVIEW_PRIVACY_VERDICT_CACHE_H_
#define PROVVIEW_PRIVACY_VERDICT_CACHE_H_

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace provview {

class ExecControl;

struct VerdictCacheConfig {
  /// Hard ceiling on measured cache bytes. Defaults to unbounded — the
  /// historical grow-forever memo behavior. The budget splits evenly
  /// across shards; each shard evicts from its own segments, so the
  /// global measured total never exceeds the budget.
  int64_t byte_budget = std::numeric_limits<int64_t>::max();
  /// Lock stripes / LRU segments; rounded up to a power of two. More
  /// shards = less contention but coarser per-shard budgets.
  int num_shards = 16;
  /// Fraction of a shard's budget the protected segment may occupy before
  /// promotions demote its LRU tail back to probation.
  double protected_fraction = 0.8;
};

/// Counters behind STAT's cache section. Hit/miss/insert/eviction tallies
/// are exact; byte/entry tallies are measured totals. Every tally lands in
/// `signature`; `projection` is the retired second key class and stays
/// zero (kept so STAT's append-only key set and existing readers of the
/// struct keep their shape).
struct VerdictCacheStats {
  struct PerClass {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;
    int64_t bytes = 0;    ///< measured bytes attributed to live entries
    int64_t entries = 0;  ///< live entries
  };
  PerClass signature;   ///< every verdict entry
  PerClass projection;  ///< retired: always zero
  int64_t bytes_in_use = 0;  ///< all measured bytes (entries + index)
  int64_t peak_bytes = 0;    ///< sum of per-shard measured peaks
  int64_t byte_budget = 0;
  uint64_t namespaces = 0;
};

/// Thread-safe sharded verdict store. Keys are opaque byte strings
/// (SafetyMemo serializes its signature keys); values are the Γ verdicts.
/// All methods are safe to call concurrently.
class VerdictCache {
 public:
  explicit VerdictCache(const VerdictCacheConfig& config = {});
  ~VerdictCache();

  VerdictCache(const VerdictCache&) = delete;
  VerdictCache& operator=(const VerdictCache&) = delete;

  /// Reserves a fresh key-space partition (e.g. one per private module of
  /// a registered workflow). `label` is diagnostic only.
  uint32_t RegisterNamespace(std::string label);

  /// Forgets every entry filed under `ns` and retires the id (ids are never
  /// reused). The caller guarantees no one looks up or inserts under `ns`
  /// any more. Dropped entries do not count as evictions.
  void DropNamespace(uint32_t ns);

  /// True on a hit (LRU-promoting); bumps the hit/miss counter.
  bool Lookup(uint32_t ns, std::string_view key, int64_t* gamma);

  /// First-wins insert: returns false (and leaves the cached value alone)
  /// when the key is already present. A non-null `control` is charged
  /// transiently with the entry's measured bytes — when the request's
  /// memory budget cannot cover them the control trips RESOURCE_EXHAUSTED
  /// and the insert is skipped, tying cache growth triggered by a request
  /// into that request's ExecControl budget. The cache's own byte budget
  /// is enforced afterwards by evicting LRU entries of the shard.
  bool Insert(uint32_t ns, std::string_view key, int64_t gamma,
              const ExecControl* control = nullptr);

  VerdictCacheStats Stats() const;
  int64_t bytes_in_use() const;
  int64_t byte_budget() const { return config_.byte_budget; }
  bool bounded() const {
    return config_.byte_budget != std::numeric_limits<int64_t>::max();
  }

 private:
  struct Shard;

  Shard* ShardFor(std::string_view full_key) const;

  VerdictCacheConfig config_;
  int64_t shard_budget_ = 0;
  int64_t protected_budget_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex ns_mu_;
  uint32_t next_namespace_ = 0;                       // guarded by ns_mu_
  std::map<uint32_t, std::string> namespace_labels_;  // live namespaces

};

}  // namespace provview

#endif  // PROVVIEW_PRIVACY_VERDICT_CACHE_H_
