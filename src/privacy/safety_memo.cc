#include "privacy/safety_memo.h"

#include <algorithm>
#include <array>
#include <limits>
#include <memory>
#include <numeric>

#include "common/combinatorics.h"
#include "common/exec_control.h"
#include "privacy/standalone_privacy.h"

namespace provview {

namespace {

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

// The flat-row Γ pass: over `num_rows` rows of `width` values, the minimum
// over the groups of equal visible-input projection of the number of
// distinct visible-output projections (INT64_MAX for no rows). `cols` holds
// the visible input columns, then the visible output columns from
// `cols[num_in]` on. Sorting the row indices by (input projection, output
// projection) makes every group, and every distinct output within it, one
// contiguous run, so one sweep over adjacent rows counts them.
int64_t MinDistinctOutputs(const Value* rows, size_t width, size_t num_rows,
                           const std::vector<int>& cols, size_t num_in) {
  if (num_rows == 0) return std::numeric_limits<int64_t>::max();
  std::array<uint32_t, SafetyMemo::kFlatStackRows> stack_idx{};
  std::vector<uint32_t> heap_idx;
  uint32_t* idx = stack_idx.data();
  if (num_rows > stack_idx.size()) {
    heap_idx.resize(num_rows);
    idx = heap_idx.data();
  }
  std::iota(idx, idx + num_rows, uint32_t{0});
  // First position of `cols` where rows a and b differ (cols.size() if
  // none).
  auto first_diff = [&](uint32_t a, uint32_t b) {
    const Value* ra = rows + size_t{a} * width;
    const Value* rb = rows + size_t{b} * width;
    size_t c = 0;
    while (c < cols.size() && ra[cols[c]] == rb[cols[c]]) ++c;
    return c;
  };
  std::sort(idx, idx + num_rows, [&](uint32_t a, uint32_t b) {
    const size_t c = first_diff(a, b);
    return c < cols.size() &&
           rows[size_t{a} * width + static_cast<size_t>(cols[c])] <
               rows[size_t{b} * width + static_cast<size_t>(cols[c])];
  });
  int64_t min_count = std::numeric_limits<int64_t>::max();
  int64_t count = 1;  // distinct outputs of the current group so far
  for (size_t i = 1; i < num_rows; ++i) {
    const size_t c = first_diff(idx[i - 1], idx[i]);
    if (c < num_in) {  // a new visible-input group starts
      min_count = std::min(min_count, count);
      count = 1;
    } else if (c < cols.size()) {  // a new output within the group
      ++count;
    }
  }
  return std::min(min_count, count);
}

}  // namespace

SafetyMemo::SafetyMemo(const Relation& rel, std::vector<AttrId> inputs,
                       std::vector<AttrId> outputs)
    : view_(RelationView::Borrowed(rel)),
      inputs_(std::move(inputs)),
      outputs_(std::move(outputs)) {
  BindPrivateCache();
  Init();
}

SafetyMemo::SafetyMemo(const Module& module, int64_t materialize_threshold)
    : view_(module.View(materialize_threshold)),
      inputs_(module.inputs()),
      outputs_(module.outputs()) {
  BindPrivateCache();
  Init();
}

SafetyMemo::SafetyMemo(const Module& module, int64_t materialize_threshold,
                       std::shared_ptr<VerdictCache> cache, uint32_t ns)
    : cache_(std::move(cache)),
      ns_(ns),
      view_(module.View(materialize_threshold)),
      inputs_(module.inputs()),
      outputs_(module.outputs()) {
  PV_CHECK_MSG(cache_ != nullptr, "SafetyMemo needs a verdict cache");
  Init();
}

SafetyMemo::SafetyMemo(RelationView view, std::vector<AttrId> inputs,
                       std::vector<AttrId> outputs)
    : view_(std::move(view)),
      inputs_(std::move(inputs)),
      outputs_(std::move(outputs)) {
  BindPrivateCache();
  Init();
}

void SafetyMemo::BindPrivateCache() {
  // Single-owner store: unbounded (the historical grow-with-the-search
  // behavior) and unsharded (no concurrent readers to stripe for).
  VerdictCacheConfig config;
  config.num_shards = 1;
  cache_ = std::make_shared<VerdictCache>(config);
  ns_ = cache_->RegisterNamespace("memo");
}

void SafetyMemo::Init() {
  const Schema& schema = view_.schema();
  const AttributeCatalog& catalog = *schema.catalog();
  const int universe = catalog.size();

  std::vector<AttrId> local = inputs_;
  local.insert(local.end(), outputs_.begin(), outputs_.end());
  local_pos_.reserve(local.size());
  for (AttrId id : local) {
    const int p = schema.PositionOf(id);
    PV_CHECK_MSG(p >= 0, "view schema misses module attr " << id);
    local_pos_.push_back(p);
  }

  // An attribute cannot change the verdict if its domain has one value or
  // it is constant across R (its presence changes neither the visible-input
  // grouping nor the visible-output distinct counts). One streaming pass
  // detects the constant columns and, for a materialized view, copies the
  // local columns into the flat rows ScanGamma sorts.
  std::vector<uint8_t> constant(local.size(), 1);
  std::vector<Value> first(local.size(), 0);
  bool have_first = false;
  std::vector<Value> block;
  std::vector<Value> flat;
  if (view_.materialized()) {
    PV_CHECK_MSG(view_.num_rows() <= std::numeric_limits<uint32_t>::max(),
                 "relation too large for the flat-row pass");
    flat.reserve(static_cast<size_t>(view_.num_rows()) * local.size());
  }
  const size_t arity = static_cast<size_t>(schema.arity());
  std::unique_ptr<RowSupplier> rows = view_.NewSupplier();
  int64_t n;
  while ((n = rows->NextBlock(&block)) > 0) {
    for (int64_t r = 0; r < n; ++r) {
      const Value* row = &block[static_cast<size_t>(r) * arity];
      if (view_.materialized()) {
        for (int p : local_pos_) flat.push_back(row[p]);
      }
      if (!have_first) {
        for (size_t c = 0; c < local.size(); ++c) {
          first[c] = row[local_pos_[c]];
        }
        have_first = true;
        continue;
      }
      for (size_t c = 0; c < local.size(); ++c) {
        if (constant[c] && row[local_pos_[c]] != first[c]) constant[c] = 0;
      }
    }
  }

  if (view_.materialized()) {
    flat_rows_ = std::make_shared<const std::vector<Value>>(std::move(flat));
  }

  effective_ = Bitset64(universe);
  for (size_t c = 0; c < local.size(); ++c) {
    if (catalog.DomainSize(local[c]) <= 1) continue;
    if (have_first && constant[c]) continue;
    effective_.Set(local[c]);
  }
}

int64_t SafetyMemo::ScanGamma(const SignatureKey& sig) const {
  const auto& [effective_visible, hidden_ext] = sig;
  // Effective-visible local columns (indices into inputs_ ++ outputs_),
  // inputs first.
  std::vector<int> cols;
  for (size_t j = 0; j < inputs_.size(); ++j) {
    if (effective_visible.Test(inputs_[j])) cols.push_back(static_cast<int>(j));
  }
  const size_t num_in = cols.size();
  for (size_t j = 0; j < outputs_.size(); ++j) {
    if (effective_visible.Test(outputs_[j])) {
      cols.push_back(static_cast<int>(inputs_.size() + j));
    }
  }

  int64_t min_count;
  if (!streaming()) {
    min_count = MinDistinctOutputs(flat_rows_->data(), local_pos_.size(),
                                   static_cast<size_t>(view_.num_rows()),
                                   cols, num_in);
  } else {
    // Streaming: map the columns to row positions of the view's schema.
    std::vector<int> in_pos, out_pos;
    for (size_t c = 0; c < cols.size(); ++c) {
      (c < num_in ? in_pos : out_pos)
          .push_back(local_pos_[static_cast<size_t>(cols[c])]);
    }
    std::unique_ptr<RowSupplier> rows = view_.NewSupplier();
    min_count = ScanVisibleGroups(rows.get(), in_pos, out_pos);
  }
  return min_count == std::numeric_limits<int64_t>::max()
             ? min_count  // empty relation
             : SaturatingMul(min_count, hidden_ext);
}

std::unique_ptr<SafetyMemo> SafetyMemo::NewOverlay() const {
  PV_CHECK_MSG(base_ == nullptr, "overlay of an overlay memo");
  std::unique_ptr<SafetyMemo> overlay(new SafetyMemo());
  overlay->view_ = view_;
  overlay->inputs_ = inputs_;
  overlay->outputs_ = outputs_;
  overlay->effective_ = effective_;
  overlay->local_pos_ = local_pos_;
  overlay->flat_rows_ = flat_rows_;  // shared, never copied
  overlay->base_ = this;
  return overlay;
}

void SafetyMemo::Absorb(const SafetyMemo& worker) {
  for (const auto& [sig, gamma] : worker.signature_staging_) {
    StoreSignature(sig, gamma, nullptr);
  }
}

std::string SafetyMemo::SignatureKeyBytes(const SignatureKey& sig) const {
  std::string bytes;
  bytes.reserve(8 + sig.first.blocks().size() * 8);
  AppendU64(&bytes, static_cast<uint64_t>(sig.second));
  for (uint64_t block : sig.first.blocks()) AppendU64(&bytes, block);
  return bytes;
}

bool SafetyMemo::FindSignature(const SignatureKey& sig,
                               int64_t* gamma) const {
  if (base_ != nullptr) {
    auto it = signature_staging_.find(sig);
    if (it != signature_staging_.end()) {
      *gamma = it->second;
      return true;
    }
    return base_->FindSignature(sig, gamma);
  }
  return cache_->Lookup(ns_, SignatureKeyBytes(sig), gamma);
}

void SafetyMemo::StoreSignature(const SignatureKey& sig, int64_t gamma,
                                const ExecControl* control) {
  if (base_ != nullptr) {
    signature_staging_.emplace(sig, gamma);
    return;
  }
  cache_->Insert(ns_, SignatureKeyBytes(sig), gamma, control);
}

SafetyMemo::SignatureKey SafetyMemo::MakeSignature(
    const Bitset64& hidden) const {
  const AttributeCatalog& catalog = *view_.schema().catalog();
  int64_t hidden_ext = 1;
  for (AttrId id : outputs_) {
    if (id < hidden.size() && hidden.Test(id)) {
      hidden_ext = SaturatingMul(hidden_ext, catalog.DomainSize(id));
    }
  }
  return SignatureKey(Difference(effective_, hidden), hidden_ext);
}

int64_t SafetyMemo::MaxGamma(const Bitset64& hidden, SafeSearchStats* stats,
                             LookupLog* log, const ExecControl* control) {
  PV_CHECK_MSG(stats != nullptr || log != nullptr,
               "MaxGamma needs stats (direct mode) or a log (worker mode)");
  SignatureKey sig = MakeSignature(hidden);
  int64_t cached = 0;
  if (FindSignature(sig, &cached)) {
    if (log != nullptr) {
      log->records.push_back({std::move(sig), cached, false});
    } else {
      ++stats->cache_hits;
    }
    return cached;
  }
  const int64_t gamma = ScanGamma(sig);
  StoreSignature(sig, gamma, control);
  if (log != nullptr) {
    log->records.push_back({std::move(sig), gamma, true});
  } else {
    ++stats->checker_calls;
  }
  return gamma;
}

bool SafetyMemo::IsSafe(const Bitset64& hidden, int64_t gamma,
                        SafeSearchStats* stats, LookupLog* log,
                        const ExecControl* control) {
  PV_CHECK_MSG(gamma >= 1, "gamma must be >= 1");
  return MaxGamma(hidden, stats, log, control) >= gamma;
}

void SafetyMemo::AbsorbLog(const LookupLog& log, SafeSearchStats* stats) {
  for (const LookupLog::Record& rec : log.records) {
    int64_t cached = 0;
    if (FindSignature(rec.sig, &cached)) {
      ++stats->cache_hits;
      continue;
    }
    // Settle the miss. When the worker ran no pass it answered from a
    // settled signature that a bounded shared cache evicted before this
    // replay: the verdict is deterministic, so re-seed it and account the
    // hit the worker actually had.
    StoreSignature(rec.sig, rec.gamma, nullptr);
    if (rec.scanned) {
      ++stats->checker_calls;
    } else {
      ++stats->cache_hits;
    }
  }
}

}  // namespace provview
