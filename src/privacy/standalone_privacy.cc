#include "privacy/standalone_privacy.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <set>
#include <unordered_set>
#include <utility>

#include "common/combinatorics.h"
#include "common/interner.h"

namespace provview {

namespace {

constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

// Splits `attrs` into (visible, hidden) sublists preserving order.
void SplitByVisibility(const std::vector<AttrId>& attrs,
                       const Bitset64& visible, std::vector<AttrId>* vis,
                       std::vector<AttrId>* hid) {
  for (AttrId id : attrs) {
    bool v = id < visible.size() && visible.Test(id);
    (v ? vis : hid)->push_back(id);
  }
}

// ∏ |Δ_a| over `attrs` (saturating).
int64_t DomainProduct(const AttributeCatalog& catalog,
                      const std::vector<AttrId>& attrs) {
  int64_t prod = 1;
  for (AttrId id : attrs) prod = SaturatingMul(prod, catalog.DomainSize(id));
  return prod;
}

}  // namespace

int64_t MaxStandaloneGamma(const Relation& rel,
                           const std::vector<AttrId>& inputs,
                           const std::vector<AttrId>& outputs,
                           const Bitset64& visible) {
  if (rel.empty()) return kMax;
  const AttributeCatalog& catalog = *rel.schema().catalog();
  std::vector<AttrId> vis_in, hid_in, vis_out, hid_out;
  SplitByVisibility(inputs, visible, &vis_in, &hid_in);
  SplitByVisibility(outputs, visible, &vis_out, &hid_out);
  const int64_t hidden_ext = DomainProduct(catalog, hid_out);

  // Distinct visible-output values per visible-input group, on interned ids:
  // each row becomes a (group id, output id) int pair, so the grouping is a
  // sort of integer pairs instead of a map of tuple sets. Duplicate rows
  // collapse with the duplicate pairs, so no up-front row dedup is needed.
  TupleInterner in_interner, out_interner;
  std::vector<std::pair<int32_t, int32_t>> pairs;
  pairs.reserve(rel.rows().size());
  for (const Tuple& row : rel.rows()) {
    pairs.emplace_back(in_interner.Intern(rel.ProjectRow(row, vis_in)),
                       out_interner.Intern(rel.ProjectRow(row, vis_out)));
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

  int64_t min_out = kMax;
  for (size_t i = 0; i < pairs.size();) {
    size_t j = i;
    while (j < pairs.size() && pairs[j].first == pairs[i].first) ++j;
    min_out = std::min(
        min_out, SaturatingMul(static_cast<int64_t>(j - i), hidden_ext));
    i = j;
  }
  return min_out;
}

bool IsStandaloneSafe(const Relation& rel, const std::vector<AttrId>& inputs,
                      const std::vector<AttrId>& outputs,
                      const Bitset64& visible, int64_t gamma) {
  PV_CHECK_MSG(gamma >= 1, "gamma must be >= 1");
  return MaxStandaloneGamma(rel, inputs, outputs, visible) >= gamma;
}

int64_t ScanVisibleGroups(RowSupplier* rows, const std::vector<int>& in_pos,
                          const std::vector<int>& out_pos) {
  // Intern each row's group and output projections to dense ids,
  // deduplicate the packed pairs, and count distinct outputs per group.
  TupleInterner in_interner, out_interner;
  std::unordered_set<uint64_t> seen_pairs;
  std::vector<int64_t> group_count;
  Tuple in_buf, out_buf;
  std::vector<Value> block;
  const size_t arity = static_cast<size_t>(rows->schema().arity());
  rows->Reset();
  int64_t n;
  while ((n = rows->NextBlock(&block)) > 0) {
    for (int64_t r = 0; r < n; ++r) {
      const Value* row = &block[static_cast<size_t>(r) * arity];
      in_buf.clear();
      for (int p : in_pos) in_buf.push_back(row[p]);
      out_buf.clear();
      for (int p : out_pos) out_buf.push_back(row[p]);
      const int32_t gid = in_interner.Intern(in_buf);
      const int32_t oid = out_interner.Intern(out_buf);
      const uint64_t pair =
          (static_cast<uint64_t>(static_cast<uint32_t>(gid)) << 32) |
          static_cast<uint32_t>(oid);
      if (!seen_pairs.insert(pair).second) continue;
      if (static_cast<size_t>(gid) >= group_count.size()) {
        group_count.resize(static_cast<size_t>(gid) + 1, 0);
      }
      ++group_count[static_cast<size_t>(gid)];
    }
  }
  int64_t min_count = kMax;  // no rows: stays INT64_MAX
  for (int64_t c : group_count) min_count = std::min(min_count, c);
  return min_count;
}

int64_t MaxStandaloneGamma(RowSupplier* rows, const std::vector<AttrId>& inputs,
                           const std::vector<AttrId>& outputs,
                           const Bitset64& visible) {
  const Schema& schema = rows->schema();
  const AttributeCatalog& catalog = *schema.catalog();
  std::vector<AttrId> vis_in, hid_in, vis_out, hid_out;
  SplitByVisibility(inputs, visible, &vis_in, &hid_in);
  SplitByVisibility(outputs, visible, &vis_out, &hid_out);
  const int64_t hidden_ext = DomainProduct(catalog, hid_out);

  // Row positions of the visible attributes within the supplier's schema.
  std::vector<int> vis_in_pos, vis_out_pos;
  for (AttrId id : vis_in) {
    const int p = schema.PositionOf(id);
    PV_CHECK_MSG(p >= 0, "supplier schema misses input attr " << id);
    vis_in_pos.push_back(p);
  }
  for (AttrId id : vis_out) {
    const int p = schema.PositionOf(id);
    PV_CHECK_MSG(p >= 0, "supplier schema misses output attr " << id);
    vis_out_pos.push_back(p);
  }

  const int64_t min_count =
      ScanVisibleGroups(rows, vis_in_pos, vis_out_pos);
  if (min_count == kMax) return kMax;  // empty relation
  // min over groups of count * hidden_ext = hidden_ext * the minimum count.
  return SaturatingMul(min_count, hidden_ext);
}

bool IsStandaloneSafe(RowSupplier* rows, const std::vector<AttrId>& inputs,
                      const std::vector<AttrId>& outputs,
                      const Bitset64& visible, int64_t gamma) {
  PV_CHECK_MSG(gamma >= 1, "gamma must be >= 1");
  return MaxStandaloneGamma(rows, inputs, outputs, visible) >= gamma;
}

int64_t MaxStandaloneGamma(const Module& module, const Bitset64& visible,
                           int64_t materialize_threshold) {
  RelationView view = module.View(materialize_threshold);
  if (view.materialized()) {
    return MaxStandaloneGamma(*view.relation(), module.inputs(),
                              module.outputs(), visible);
  }
  std::unique_ptr<RowSupplier> rows = view.NewSupplier();
  return MaxStandaloneGamma(rows.get(), module.inputs(), module.outputs(),
                            visible);
}

bool IsStandaloneSafe(const Module& module, const Bitset64& visible,
                      int64_t gamma, int64_t materialize_threshold) {
  PV_CHECK_MSG(gamma >= 1, "gamma must be >= 1");
  return MaxStandaloneGamma(module, visible, materialize_threshold) >= gamma;
}

int64_t OutSetSize(const Relation& rel, const std::vector<AttrId>& inputs,
                   const std::vector<AttrId>& outputs, const Bitset64& visible,
                   const Tuple& x) {
  PV_CHECK_MSG(x.size() == inputs.size(), "input arity mismatch");
  const AttributeCatalog& catalog = *rel.schema().catalog();
  std::vector<AttrId> vis_in, hid_in, vis_out, hid_out;
  SplitByVisibility(inputs, visible, &vis_in, &hid_in);
  SplitByVisibility(outputs, visible, &vis_out, &hid_out);
  const int64_t hidden_ext = DomainProduct(catalog, hid_out);

  // Visible part of x: project by position within `inputs`.
  Tuple x_vis;
  for (size_t i = 0; i < inputs.size(); ++i) {
    AttrId id = inputs[i];
    if (id < visible.size() && visible.Test(id)) x_vis.push_back(x[i]);
  }
  std::set<Tuple> vis_outputs;
  for (const Tuple& row : rel.SortedDistinctRows()) {
    if (rel.ProjectRow(row, vis_in) == x_vis) {
      vis_outputs.insert(rel.ProjectRow(row, vis_out));
    }
  }
  return SaturatingMul(static_cast<int64_t>(vis_outputs.size()), hidden_ext);
}

std::vector<Tuple> OutSet(const Relation& rel,
                          const std::vector<AttrId>& inputs,
                          const std::vector<AttrId>& outputs,
                          const Bitset64& visible, const Tuple& x,
                          int64_t max_results) {
  PV_CHECK_MSG(OutSetSize(rel, inputs, outputs, visible, x) <= max_results,
               "OUT set too large to materialize");
  const AttributeCatalog& catalog = *rel.schema().catalog();
  std::vector<AttrId> vis_in, hid_in, vis_out, hid_out;
  SplitByVisibility(inputs, visible, &vis_in, &hid_in);
  SplitByVisibility(outputs, visible, &vis_out, &hid_out);

  Tuple x_vis;
  for (size_t i = 0; i < inputs.size(); ++i) {
    AttrId id = inputs[i];
    if (id < visible.size() && visible.Test(id)) x_vis.push_back(x[i]);
  }
  // Distinct visible-output stubs compatible with x.
  std::set<Tuple> stubs;
  for (const Tuple& row : rel.SortedDistinctRows()) {
    if (rel.ProjectRow(row, vis_in) == x_vis) {
      stubs.insert(rel.ProjectRow(row, vis_out));
    }
  }
  // Extend each stub over the hidden outputs in every possible way,
  // assembling full outputs aligned with `outputs`.
  std::vector<int> hidden_radices;
  for (AttrId id : hid_out) hidden_radices.push_back(catalog.DomainSize(id));

  std::set<Tuple> result;
  for (const Tuple& stub : stubs) {
    MixedRadixCounter counter(hidden_radices);
    do {
      Tuple y(outputs.size());
      size_t vi = 0, hi = 0;
      for (size_t oi = 0; oi < outputs.size(); ++oi) {
        AttrId id = outputs[oi];
        if (id < visible.size() && visible.Test(id)) {
          y[oi] = stub[vi++];
        } else {
          y[oi] = counter.values()[hi++];
        }
      }
      result.insert(std::move(y));
    } while (counter.Advance());
  }
  return std::vector<Tuple>(result.begin(), result.end());
}

}  // namespace provview
