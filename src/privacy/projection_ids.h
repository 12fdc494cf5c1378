// Dense ids for projections of a workflow's original execution log, keyed
// by mixed-radix codes instead of interned tuples. The feasible-set
// fixpoint numbers the determined-visible row prefixes with them, and the
// world walk numbers its prefix groups and its target view the same way.
#ifndef PROVVIEW_PRIVACY_PROJECTION_IDS_H_
#define PROVVIEW_PRIVACY_PROJECTION_IDS_H_

#include <cstdint>
#include <vector>

#include "privacy/possible_worlds.h"

namespace provview {

/// A trie over a list of provenance attributes whose levels are flat
/// tables. Each level covers a run of consecutive attributes: it maps
/// (node entering the level, mixed-radix code of those attributes' values)
/// to the node leaving it, -1 for a combination no original row has. A
/// level grows by attributes while its table stays within 16 entries per
/// execution (clamped to [2^8, 2^22]), and always takes at least one
/// attribute, so on small catalogs the whole projection is one table
/// lookup. Nodes are dense, in first-appearance order over the log.
class ProjectionIds {
 public:
  /// Numbers the projections of the original rows onto `attrs` (provenance
  /// attributes, in order). Execution e starts at node start[e] of
  /// `num_start` start nodes (nullptr: one root, node 0) and its final node
  /// lands in ids[e]. Reuses the tables of earlier builds.
  void Build(const WorkflowTables& tables, const std::vector<AttrId>& attrs,
             const int32_t* start, int32_t num_start,
             std::vector<int32_t>* ids);

  /// Distinct final nodes of the last Build.
  int32_t size() const { return size_; }

  /// The final node reached from `start` by `vals` (values indexed by
  /// attribute id), -1 when no original row from `start` projects to them.
  int32_t Find(int32_t start, const int32_t* vals) const {
    int32_t node = start;
    size_t a = 0;
    for (size_t l = 0; l < num_levels_; ++l) {
      const Level& level = levels_[l];
      int64_t code = 0;
      for (; a < level.attr_end; ++a) {
        code += static_cast<int64_t>(vals[static_cast<size_t>(attrs_[a])]) *
                strides_[a];
      }
      node = level.next[static_cast<size_t>(node * level.span + code)];
      if (node < 0) return -1;
    }
    return node;
  }

 private:
  struct Level {
    size_t attr_end = 0;  // one past the level's last attribute
    int64_t span = 1;     // ∏ radices of the level's attributes
    std::vector<int32_t> next;
  };

  std::vector<AttrId> attrs_;
  std::vector<int64_t> strides_;  // per attribute, within its level
  std::vector<Level> levels_;     // capacity kept across builds
  size_t num_levels_ = 0;
  int32_t size_ = 0;
};

}  // namespace provview

#endif  // PROVVIEW_PRIVACY_PROJECTION_IDS_H_
