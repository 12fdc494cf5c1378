#include "privacy/verdict_cache.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>

#include "common/exec_control.h"
#include "common/status.h"

namespace provview {

namespace {

// Container overhead the admission probe assumes per entry on top of the
// key and Entry bytes (list node links, index node, bucket share). The
// probe only gates admission against the request budget; the cache's own
// ceiling uses the exact allocator-measured counter.
constexpr int64_t kInsertOverheadEstimate = 96;

// splitmix64 finalizer over an FNV-1a accumulation: cheap, well-mixed
// shard + bucket hashing for short binary keys.
uint64_t HashBytes(std::string_view bytes) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : bytes) {
    h = (h ^ static_cast<uint8_t>(c)) * 0x100000001B3ull;
  }
  h += 0x9E3779B97F4A7C15ull;
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
  return h ^ (h >> 31);
}

int RoundUpPow2(int n) {
  int p = 1;
  while (p < n) p <<= 1;
  return p;
}

// Minimal STL allocator that charges every allocated byte to a shard's
// atomic byte counter — the memcached-style "measured, not guessed" hook.
// Every container a shard owns (entry lists, key vectors, the index map
// with its bucket arrays) runs on one of these, so the shard's counter IS
// its heap footprint.
template <typename T>
class CountingAllocator {
 public:
  using value_type = T;

  CountingAllocator() = default;
  explicit CountingAllocator(std::atomic<int64_t>* counter)
      : counter_(counter) {}
  template <typename U>
  CountingAllocator(const CountingAllocator<U>& other)  // NOLINT(runtime/explicit)
      : counter_(other.counter()) {}

  T* allocate(size_t n) {
    const size_t bytes = n * sizeof(T);
    counter_->fetch_add(static_cast<int64_t>(bytes),
                        std::memory_order_relaxed);
    return static_cast<T*>(::operator new(bytes));
  }
  void deallocate(T* p, size_t n) {
    counter_->fetch_sub(static_cast<int64_t>(n * sizeof(T)),
                        std::memory_order_relaxed);
    ::operator delete(p);
  }

  std::atomic<int64_t>* counter() const { return counter_; }

  template <typename U>
  bool operator==(const CountingAllocator<U>& other) const {
    return counter_ == other.counter();
  }
  template <typename U>
  bool operator!=(const CountingAllocator<U>& other) const {
    return counter_ != other.counter();
  }

 private:
  std::atomic<int64_t>* counter_ = nullptr;
};

struct KeyHash {
  size_t operator()(std::string_view key) const {
    return static_cast<size_t>(HashBytes(key));
  }
};

// Stack-first buffer for the serialized [ns | key] lookup key; verdict keys
// are tens of bytes, so lookups never touch the heap.
class SmallKey {
 public:
  SmallKey(uint32_t ns, std::string_view key) {
    const size_t total = kPrefix + key.size();
    char* out = buf_;
    if (total > sizeof(buf_)) {
      overflow_.resize(total);
      out = overflow_.data();
    }
    out[0] = static_cast<char>(ns & 0xFF);
    out[1] = static_cast<char>((ns >> 8) & 0xFF);
    out[2] = static_cast<char>((ns >> 16) & 0xFF);
    out[3] = static_cast<char>((ns >> 24) & 0xFF);
    std::memcpy(out + kPrefix, key.data(), key.size());
    view_ = std::string_view(out, total);
  }

  std::string_view view() const { return view_; }

 private:
  static constexpr size_t kPrefix = 4;
  char buf_[160];
  std::string overflow_;
  std::string_view view_;
};

// The namespace id a stored key was filed under (SmallKey's prefix).
template <typename Key>
uint32_t NamespaceOf(const Key& key) {
  uint32_t ns = 0;
  for (int i = 0; i < 4; ++i) {
    ns |= static_cast<uint32_t>(static_cast<uint8_t>(key[i])) << (8 * i);
  }
  return ns;
}

}  // namespace

struct VerdictCache::Shard {
  struct Entry {
    explicit Entry(const CountingAllocator<char>& alloc) : key(alloc) {}
    std::vector<char, CountingAllocator<char>> key;
    int64_t gamma = 0;
    // Measured byte delta this entry's insertion caused (list node, key
    // heap, index node, any bucket growth it triggered) — the unit the
    // SLRU segments and the byte tally are attributed in. The budget
    // itself is enforced on the live `bytes` counter, so attribution
    // coarseness never loosens the ceiling.
    int64_t charged = 0;
    bool in_protected = false;
  };
  using EntryList = std::list<Entry, CountingAllocator<Entry>>;
  using IndexMap =
      std::unordered_map<std::string_view, EntryList::iterator, KeyHash,
                         std::equal_to<std::string_view>,
                         CountingAllocator<std::pair<
                             const std::string_view, EntryList::iterator>>>;

  Shard()
      : probation(CountingAllocator<Entry>(&bytes)),
        protected_seg(CountingAllocator<Entry>(&bytes)),
        index(0, KeyHash{}, std::equal_to<std::string_view>{},
              IndexMap::allocator_type(&bytes)) {}

  // All measured bytes this shard's containers hold; written by the
  // allocator (under mu for this shard's containers), read lock-free by
  // bytes_in_use().
  std::atomic<int64_t> bytes{0};

  std::mutex mu;
  EntryList probation;      // new entries, evicted first (LRU at back)
  EntryList protected_seg;  // re-referenced entries (LRU at back)
  IndexMap index;           // full key bytes -> list entry

  int64_t probation_bytes = 0;
  int64_t protected_bytes = 0;
  int64_t peak_bytes = 0;

  VerdictCacheStats::PerClass tally;

  // Move a hit entry up: probation -> protected front (SLRU promotion) or
  // protected -> its own front. Promotions that overflow the protected
  // budget demote that segment's LRU tail back to probation, keeping
  // one-shot scans from pinning the whole shard.
  void Touch(EntryList::iterator it, int64_t protected_budget) {
    if (it->in_protected) {
      protected_seg.splice(protected_seg.begin(), protected_seg, it);
      return;
    }
    protected_seg.splice(protected_seg.begin(), probation, it);
    it->in_protected = true;
    probation_bytes -= it->charged;
    protected_bytes += it->charged;
    while (protected_bytes > protected_budget && protected_seg.size() > 1) {
      EntryList::iterator tail = std::prev(protected_seg.end());
      tail->in_protected = false;
      protected_bytes -= tail->charged;
      probation_bytes += tail->charged;
      probation.splice(probation.begin(), protected_seg, tail);
    }
  }

  void EvictOne() {
    EntryList* from = !probation.empty() ? &probation : &protected_seg;
    EntryList::iterator victim = std::prev(from->end());
    ++tally.evictions;
    tally.bytes -= victim->charged;
    --tally.entries;
    (victim->in_protected ? protected_bytes : probation_bytes) -=
        victim->charged;
    index.erase(std::string_view(victim->key.data(), victim->key.size()));
    from->erase(victim);
  }

  // Forgets every entry whose key carries namespace prefix `ns`, then gives
  // the index's bucket bytes back the same way EnforceBudget does.
  void Drop(uint32_t ns) {
    bool dropped = false;
    for (EntryList* seg : {&probation, &protected_seg}) {
      for (EntryList::iterator it = seg->begin(); it != seg->end();) {
        if (NamespaceOf(it->key) != ns) {
          ++it;
          continue;
        }
        tally.bytes -= it->charged;
        --tally.entries;
        (it->in_protected ? protected_bytes : probation_bytes) -= it->charged;
        index.erase(std::string_view(it->key.data(), it->key.size()));
        it = seg->erase(it);
        dropped = true;
      }
    }
    if (!dropped) return;
    if (index.empty()) {
      IndexMap fresh(0, KeyHash{}, std::equal_to<std::string_view>{},
                     index.get_allocator());
      index.swap(fresh);
    } else if (index.bucket_count() > 64 &&
               index.size() * 4 < index.bucket_count()) {
      index.rehash(index.size() * 2);
    }
  }

  // Enforce the per-shard budget on the measured counter. Erasing map
  // nodes does not shrink the bucket array, so shrink it when occupancy
  // drops far below capacity — and when the shard drains entirely, swap in
  // a fresh map so even the bucket array's bytes return to ~0.
  void EnforceBudget(int64_t budget) {
    while (bytes.load(std::memory_order_relaxed) > budget) {
      if (probation.empty() && protected_seg.empty()) {
        IndexMap fresh(0, KeyHash{}, std::equal_to<std::string_view>{},
                       index.get_allocator());
        index.swap(fresh);
        break;
      }
      EvictOne();
      if (index.bucket_count() > 64 &&
          index.size() * 4 < index.bucket_count()) {
        index.rehash(index.size() * 2);
      }
    }
  }
};

VerdictCache::VerdictCache(const VerdictCacheConfig& config)
    : config_(config) {
  config_.num_shards = RoundUpPow2(std::max(1, config_.num_shards));
  shards_.reserve(static_cast<size_t>(config_.num_shards));
  for (int i = 0; i < config_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_budget_ = config_.byte_budget == std::numeric_limits<int64_t>::max()
                      ? config_.byte_budget
                      : config_.byte_budget / config_.num_shards;
  const double fraction =
      std::min(1.0, std::max(0.0, config_.protected_fraction));
  protected_budget_ =
      shard_budget_ == std::numeric_limits<int64_t>::max()
          ? shard_budget_
          : static_cast<int64_t>(static_cast<double>(shard_budget_) *
                                 fraction);
}

VerdictCache::~VerdictCache() = default;

VerdictCache::Shard* VerdictCache::ShardFor(std::string_view full_key) const {
  const uint64_t h = HashBytes(full_key);
  return shards_[static_cast<size_t>(
                     h & static_cast<uint64_t>(config_.num_shards - 1))]
      .get();
}

uint32_t VerdictCache::RegisterNamespace(std::string label) {
  std::lock_guard<std::mutex> g(ns_mu_);
  const uint32_t ns = next_namespace_++;
  namespace_labels_.emplace(ns, std::move(label));
  return ns;
}

void VerdictCache::DropNamespace(uint32_t ns) {
  {
    std::lock_guard<std::mutex> g(ns_mu_);
    namespace_labels_.erase(ns);
  }
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> g(shard->mu);
    shard->Drop(ns);
  }
}

bool VerdictCache::Lookup(uint32_t ns, std::string_view key,
                          int64_t* gamma) {
  const SmallKey full(ns, key);
  Shard* shard = ShardFor(full.view());
  std::lock_guard<std::mutex> g(shard->mu);
  auto it = shard->index.find(full.view());
  if (it == shard->index.end()) {
    ++shard->tally.misses;
    return false;
  }
  ++shard->tally.hits;
  *gamma = it->second->gamma;
  shard->Touch(it->second, protected_budget_);
  return true;
}

bool VerdictCache::Insert(uint32_t ns, std::string_view key, int64_t gamma,
                          const ExecControl* control) {
  const SmallKey full(ns, key);
  // Admission probe against the *request's* budget: a request that cannot
  // afford the entry's bytes must not grow the service-wide cache. The
  // charge is transient (the entry outlives the request); an over-budget
  // probe trips the control with RESOURCE_EXHAUSTED, which the engines
  // surface as the request's typed status.
  if (control != nullptr) {
    const int64_t probe =
        static_cast<int64_t>(full.view().size() + sizeof(Shard::Entry)) +
        kInsertOverheadEstimate;
    if (!control->TryCharge(probe)) return false;
    control->Release(probe);
  }
  Shard* shard = ShardFor(full.view());
  std::lock_guard<std::mutex> g(shard->mu);
  if (shard->index.find(full.view()) != shard->index.end()) {
    return false;  // first-wins: verdicts are deterministic
  }
  const int64_t before = shard->bytes.load(std::memory_order_relaxed);
  shard->probation.emplace_front(CountingAllocator<char>(&shard->bytes));
  Shard::Entry& entry = shard->probation.front();
  entry.key.assign(full.view().begin(), full.view().end());
  entry.gamma = gamma;
  shard->index.emplace(
      std::string_view(entry.key.data(), entry.key.size()),
      shard->probation.begin());
  const int64_t delta =
      shard->bytes.load(std::memory_order_relaxed) - before;
  entry.charged = delta;
  shard->probation_bytes += delta;
  ++shard->tally.inserts;
  shard->tally.bytes += delta;
  ++shard->tally.entries;
  shard->peak_bytes = std::max(
      shard->peak_bytes, shard->bytes.load(std::memory_order_relaxed));
  shard->EnforceBudget(shard_budget_);
  return true;
}

VerdictCacheStats VerdictCache::Stats() const {
  VerdictCacheStats out;
  out.byte_budget = config_.byte_budget;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> g(shard->mu);
    out.bytes_in_use += shard->bytes.load(std::memory_order_relaxed);
    out.peak_bytes += shard->peak_bytes;
    const VerdictCacheStats::PerClass& t = shard->tally;
    out.signature.hits += t.hits;
    out.signature.misses += t.misses;
    out.signature.inserts += t.inserts;
    out.signature.evictions += t.evictions;
    out.signature.bytes += t.bytes;
    out.signature.entries += t.entries;
  }
  {
    std::lock_guard<std::mutex> g(ns_mu_);
    out.namespaces = namespace_labels_.size();
  }
  return out;
}

int64_t VerdictCache::bytes_in_use() const {
  int64_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    total += shard->bytes.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace provview
