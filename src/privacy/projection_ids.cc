#include "privacy/projection_ids.h"

#include <algorithm>

#include "common/combinatorics.h"

namespace provview {

void ProjectionIds::Build(const WorkflowTables& tables,
                          const std::vector<AttrId>& attrs,
                          const int32_t* start, int32_t num_start,
                          std::vector<int32_t>* ids) {
  const int64_t num_execs = tables.num_execs;
  const size_t prov_arity = tables.prov_ids.size();
  auto radix = [&](size_t a) {
    const size_t id = static_cast<size_t>(attrs[a]);
    return tables.value_offset[id + 1] - tables.value_offset[id];
  };
  ids->resize(static_cast<size_t>(num_execs));
  for (int64_t e = 0; e < num_execs; ++e) {
    (*ids)[static_cast<size_t>(e)] =
        start != nullptr ? start[static_cast<size_t>(e)] : 0;
  }
  int64_t nodes = start != nullptr ? num_start : 1;
  // A level's table: at most 16 entries per execution (nodes never
  // outnumber executions), within [2^8, 2^22].
  const int64_t max_entries = std::clamp<int64_t>(
      SaturatingMul(num_execs, 16), int64_t{1} << 8, int64_t{1} << 22);
  attrs_ = attrs;
  strides_.resize(attrs.size());
  num_levels_ = 0;
  size_t a = 0;
  while (a < attrs.size()) {
    if (levels_.size() == num_levels_) levels_.emplace_back();
    Level& level = levels_[num_levels_++];
    const size_t begin = a;
    int64_t span = 1;
    do {
      strides_[a] = span;
      span = SaturatingMul(span, radix(a));
      ++a;
    } while (a < attrs.size() &&
             SaturatingMul(SaturatingMul(nodes, span), radix(a)) <=
                 max_entries);
    level.attr_end = a;
    level.span = span;
    level.next.assign(static_cast<size_t>(nodes * span), -1);
    int32_t count = 0;
    for (int64_t e = 0; e < num_execs; ++e) {
      const int32_t* row =
          &tables.orig_rows[static_cast<size_t>(e) * prov_arity];
      int64_t code = 0;
      for (size_t q = begin; q < a; ++q) {
        code += static_cast<int64_t>(
                    row[static_cast<size_t>(
                        tables.prov_pos[static_cast<size_t>(attrs[q])])]) *
                strides_[q];
      }
      int32_t& id = (*ids)[static_cast<size_t>(e)];
      int32_t& next = level.next[static_cast<size_t>(id * span + code)];
      if (next < 0) next = count++;
      id = next;
    }
    nodes = count;
  }
  size_ = static_cast<int32_t>(nodes);
}

}  // namespace provview
