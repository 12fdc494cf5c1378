#include "privacy/feasible_sets.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "common/combinatorics.h"
#include "common/interner.h"
#include "workflow/workflow.h"

namespace provview {

namespace {

// Dense value-set representation: one byte per domain value. Domains here
// are attribute domains (small by construction), so bitmaps beat sorted
// vectors for the repeated intersect-and-test pattern of the fixpoint.
using ValueSet = std::vector<uint8_t>;

// Intersects `dst` with `other`; returns true when dst shrank.
bool IntersectInto(ValueSet* dst, const ValueSet& other) {
  bool shrank = false;
  for (size_t v = 0; v < dst->size(); ++v) {
    if ((*dst)[v] && !other[v]) {
      (*dst)[v] = 0;
      shrank = true;
    }
  }
  return shrank;
}

std::vector<int32_t> ToSortedValues(const ValueSet& s) {
  std::vector<int32_t> out;
  for (size_t v = 0; v < s.size(); ++v) {
    if (s[v]) out.push_back(static_cast<int32_t>(v));
  }
  return out;
}

}  // namespace

DeterminedSlotPruner::DeterminedSlotPruner(const WorkflowTables& tables,
                                           int module,
                                           const Bitset64& visible)
    : tables_(&tables), module_(module) {
  const size_t smi = static_cast<size_t>(module);
  vis_attr_.assign(static_cast<size_t>(tables.num_attrs), false);
  for (int a = 0; a < tables.num_attrs; ++a) {
    vis_attr_[static_cast<size_t>(a)] =
        a < visible.size() && visible.Test(a);
  }
  std::vector<int> pos_of_attr(static_cast<size_t>(tables.num_attrs), -1);
  for (size_t p = 0; p < tables.prov_ids.size(); ++p) {
    pos_of_attr[static_cast<size_t>(tables.prov_ids[p])] =
        static_cast<int>(p);
  }
  for (size_t j = 0; j < tables.out_attrs[smi].size(); ++j) {
    const AttrId id = tables.out_attrs[smi][j];
    if (vis_attr_[static_cast<size_t>(id)]) {
      vis_out_pos_.push_back(pos_of_attr[static_cast<size_t>(id)]);
      vis_out_local_.push_back(j);
    }
  }
}

void DeterminedSlotPruner::RescanLog(const std::vector<bool>& det_attr) {
  const WorkflowTables& tables = *tables_;
  const size_t smi = static_cast<size_t>(module_);
  const size_t prov_arity = tables.prov_ids.size();
  const int n = tables.num_modules;

  det_vis_pos_.clear();
  for (size_t p = 0; p < prov_arity; ++p) {
    const AttrId id = tables.prov_ids[p];
    if (det_attr[static_cast<size_t>(id)] &&
        vis_attr_[static_cast<size_t>(id)]) {
      det_vis_pos_.push_back(static_cast<int>(p));
    }
  }
  allowed_ = TupleInterner();
  prefixes_.clear();
  Tuple key(det_vis_pos_.size() + vis_out_pos_.size());
  Tuple prefix(det_vis_pos_.size());
  for (int64_t e = 0; e < tables.num_execs; ++e) {
    const int32_t* row =
        &tables.orig_rows[static_cast<size_t>(e) * prov_arity];
    size_t q = 0;
    for (int p : det_vis_pos_) key[q++] = row[static_cast<size_t>(p)];
    for (size_t j = 0; j < det_vis_pos_.size(); ++j) prefix[j] = key[j];
    for (int p : vis_out_pos_) key[q++] = row[static_cast<size_t>(p)];
    allowed_.Intern(key);
    prefixes_[tables.orig_in_code[static_cast<size_t>(e) *
                                      static_cast<size_t>(n) +
                                  smi]]
        .insert(prefix);
  }
  scanned_ = true;
}

std::vector<std::vector<int32_t>> DeterminedSlotPruner::CandidateLists(
    const ValueFilter& value_ok) const {
  PV_CHECK_MSG(scanned_, "call RescanLog before CandidateLists");
  const WorkflowTables& tables = *tables_;
  const size_t smi = static_cast<size_t>(module_);
  const int64_t range = tables.range_size[smi];
  const size_t n_out = tables.out_attrs[smi].size();

  std::vector<std::vector<int32_t>> lists;
  lists.reserve(prefixes_.size());
  Tuple key;
  for (const auto& [d, prefix_set] : prefixes_) {
    (void)d;
    std::vector<int32_t> codes;
    for (int64_t c = 0; c < range; ++c) {
      const int32_t* vals =
          &tables.out_values[smi][static_cast<size_t>(c) * n_out];
      bool ok = true;
      if (value_ok) {
        for (size_t j = 0; ok && j < n_out; ++j) ok = value_ok(j, vals[j]);
      }
      for (auto it = prefix_set.begin(); ok && it != prefix_set.end(); ++it) {
        key.assign(it->begin(), it->end());
        for (size_t j : vis_out_local_) key.push_back(vals[j]);
        ok = allowed_.Find(key) >= 0;
      }
      if (ok) codes.push_back(static_cast<int32_t>(c));
    }
    lists.push_back(std::move(codes));
  }
  return lists;
}

FeasibleSetAnalysis AnalyzeFeasibleSets(const WorkflowTables& tables,
                                        const Bitset64& visible,
                                        const std::vector<int>& fixed_modules) {
  PV_CHECK_MSG(tables.status.ok(),
               "feasible-set analysis needs completed tables: "
                   << tables.status.message());
  const Workflow& workflow = *tables.workflow;
  const AttributeCatalog& catalog = *workflow.catalog();
  const int n = tables.num_modules;
  const int num_attrs = tables.num_attrs;
  const size_t prov_arity = tables.prov_ids.size();

  FeasibleSetAnalysis result;
  result.pinned_attr.assign(static_cast<size_t>(num_attrs), false);
  result.determined.assign(static_cast<size_t>(n), false);
  result.forced.assign(static_cast<size_t>(n), false);
  result.det_slot_codes.resize(static_cast<size_t>(n));
  result.feasible_in_codes.resize(static_cast<size_t>(n));
  result.feasible_out_codes.resize(static_cast<size_t>(n));

  std::vector<bool> fixed(static_cast<size_t>(n), false);
  for (int i : fixed_modules) {
    PV_CHECK(i >= 0 && i < n);
    fixed[static_cast<size_t>(i)] = true;
  }

  std::vector<bool> vis_attr(static_cast<size_t>(num_attrs), false);
  for (int a = 0; a < num_attrs; ++a) {
    vis_attr[static_cast<size_t>(a)] = a < visible.size() && visible.Test(a);
  }
  std::vector<int> pos_of_attr(static_cast<size_t>(num_attrs), -1);
  for (size_t p = 0; p < prov_arity; ++p) {
    pos_of_attr[static_cast<size_t>(tables.prov_ids[p])] = static_cast<int>(p);
  }

  // Distinct original values per provenance attribute: the narrowing applied
  // to visible attributes (their view column) and to attributes that become
  // pinned (only original values can then occur).
  std::vector<ValueSet> orig_vals(static_cast<size_t>(num_attrs));
  for (int a = 0; a < num_attrs; ++a) {
    orig_vals[static_cast<size_t>(a)].assign(
        static_cast<size_t>(catalog.DomainSize(a)), 0);
  }
  for (int64_t e = 0; e < tables.num_execs; ++e) {
    const int32_t* row = &tables.orig_rows[static_cast<size_t>(e) * prov_arity];
    for (size_t p = 0; p < prov_arity; ++p) {
      orig_vals[static_cast<size_t>(tables.prov_ids[p])]
               [static_cast<size_t>(row[p])] = 1;
    }
  }

  // feasible_values as bitmaps; start at the full domain, then apply the
  // visible-column narrowing for attributes the provenance view exposes.
  std::vector<ValueSet> feas(static_cast<size_t>(num_attrs));
  for (int a = 0; a < num_attrs; ++a) {
    feas[static_cast<size_t>(a)].assign(
        static_cast<size_t>(catalog.DomainSize(a)), 1);
    if (pos_of_attr[static_cast<size_t>(a)] >= 0 &&
        vis_attr[static_cast<size_t>(a)]) {
      IntersectInto(&feas[static_cast<size_t>(a)],
                    orig_vals[static_cast<size_t>(a)]);
    }
  }

  // Monotone-state versions. `state_version` bumps on every pin and every
  // feasible-set shrink: a determined module's candidate lists are a pure
  // function of that state, so recomputation is skipped while the version a
  // module last computed against still matches (in particular the whole
  // confirming final sweep recomputes nothing). `pin_version` bumps on pins
  // only — the log-scan structures depend on nothing else.
  int64_t state_version = 0;
  int64_t pin_version = 0;

  auto pin = [&](AttrId a, bool* changed) {
    if (result.pinned_attr[static_cast<size_t>(a)]) return;
    result.pinned_attr[static_cast<size_t>(a)] = true;
    if (pos_of_attr[static_cast<size_t>(a)] >= 0) {
      IntersectInto(&feas[static_cast<size_t>(a)],
                    orig_vals[static_cast<size_t>(a)]);
    }
    ++state_version;
    ++pin_version;
    *changed = true;
  };
  {
    bool ignored = false;
    for (AttrId a : workflow.initial_input_ids()) pin(a, &ignored);
  }

  // Input-attribute value of domain code d (little-endian strides).
  auto in_value = [&](int mi, int64_t d, size_t j) {
    const size_t smi = static_cast<size_t>(mi);
    return static_cast<int32_t>((d / tables.in_strides[smi][j]) %
                                tables.in_radices[smi][j]);
  };

  // Recomputes module mi's per-reached-slot candidate lists (mi determined
  // and free) through the DeterminedSlotPruner's visible-projection test,
  // with the extended pinned set and intersected with the per-attribute
  // feasible sets of ALL outputs (hidden ones included: that is where
  // downstream narrowing bites). The O(num_execs) log scan depends only on
  // the pinned-visible set, so it is cached per module and redone only
  // when a pin landed since the module's last scan; feasible-set shrinks
  // alone rerun just the per-code filter.
  std::vector<std::unique_ptr<DeterminedSlotPruner>> pruners(
      static_cast<size_t>(n));
  std::vector<int64_t> scan_pin_version(static_cast<size_t>(n), -1);
  auto compute_det_lists = [&](int mi) {
    const size_t smi = static_cast<size_t>(mi);
    if (pruners[smi] == nullptr) {
      pruners[smi] =
          std::make_unique<DeterminedSlotPruner>(tables, mi, visible);
    }
    if (scan_pin_version[smi] != pin_version) {
      pruners[smi]->RescanLog(result.pinned_attr);
      scan_pin_version[smi] = pin_version;
    }
    std::vector<std::vector<int32_t>> lists =
        pruners[smi]->CandidateLists([&](size_t j, int32_t v) {
          const AttrId id = tables.out_attrs[smi][j];
          return feas[static_cast<size_t>(id)][static_cast<size_t>(v)] != 0;
        });
    bool all_singleton = true;
    for (const auto& codes : lists) {
      PV_CHECK_MSG(!codes.empty(),
                   "feasible-set analysis emptied a reached slot of module "
                       << workflow.module(mi).name()
                       << " (the original code must always survive)");
      if (codes.size() != 1) all_singleton = false;
    }
    result.det_slot_codes[smi] = std::move(lists);
    return all_singleton;
  };

  // The fixpoint loop. Every component is monotone (pinned bits set, value
  // sets and candidate lists shrink), so the sweep count is finite; see the
  // header's termination argument.
  std::vector<ValueSet> out_feasible(static_cast<size_t>(n));
  std::vector<int64_t> lists_version(static_cast<size_t>(n), -1);
  bool changed = true;
  while (changed) {
    changed = false;
    ++result.iterations;

    // (1) Determinedness, candidate lists, forcing — in topological order so
    // pinnedness crosses a whole chain of forced stages in one sweep.
    for (int mi : workflow.topo_order()) {
      const size_t smi = static_cast<size_t>(mi);
      bool det = true;
      for (AttrId id : tables.in_attrs[smi]) {
        det = det && result.pinned_attr[static_cast<size_t>(id)];
      }
      if (det && !result.determined[smi]) changed = true;
      result.determined[smi] = det;
      if (!det) continue;
      if (fixed[smi]) {
        for (AttrId id : tables.out_attrs[smi]) pin(id, &changed);
        continue;
      }
      // Once forced, every list is the {original code} singleton — minimal
      // under any further narrowing — so the (full-log) recomputation can
      // be skipped on later sweeps; only re-pin the outputs.
      if (result.forced[smi]) {
        for (AttrId id : tables.out_attrs[smi]) pin(id, &changed);
        continue;
      }
      if (lists_version[smi] == state_version) continue;  // inputs unchanged
      result.forced[smi] = compute_det_lists(mi);
      lists_version[smi] = state_version;
      if (result.forced[smi]) {
        changed = true;
        for (AttrId id : tables.out_attrs[smi]) pin(id, &changed);
      }
    }

    // (2) Forward value propagation: image of the feasible input-code set
    // under the module (fixed: its function; free: every output code whose
    // attribute values are feasible — for determined free modules, the
    // union of the per-slot candidate lists).
    for (int mi : workflow.topo_order()) {
      const size_t smi = static_cast<size_t>(mi);
      const int64_t range = tables.range_size[smi];
      const size_t n_out = tables.out_attrs[smi].size();
      ValueSet& out_ok = out_feasible[smi];
      out_ok.assign(static_cast<size_t>(range), 0);
      if (fixed[smi]) {
        if (result.determined[smi]) {
          for (int32_t d : tables.orig_input_codes[smi]) {
            out_ok[static_cast<size_t>(
                tables.original_fn[smi][static_cast<size_t>(d)])] = 1;
          }
        } else {
          for (int64_t d = 0; d < tables.dom_size[smi]; ++d) {
            bool ok = true;
            for (size_t j = 0; ok && j < tables.in_attrs[smi].size(); ++j) {
              const AttrId id = tables.in_attrs[smi][j];
              ok = feas[static_cast<size_t>(id)]
                       [static_cast<size_t>(in_value(mi, d, j))];
            }
            if (ok) {
              out_ok[static_cast<size_t>(
                  tables.original_fn[smi][static_cast<size_t>(d)])] = 1;
            }
          }
        }
      } else if (result.determined[smi]) {
        for (const auto& codes : result.det_slot_codes[smi]) {
          for (int32_t c : codes) out_ok[static_cast<size_t>(c)] = 1;
        }
      } else {
        for (int64_t c = 0; c < range; ++c) {
          const int32_t* vals =
              &tables.out_values[smi][static_cast<size_t>(c) * n_out];
          bool ok = true;
          for (size_t j = 0; ok && j < n_out; ++j) {
            const AttrId id = tables.out_attrs[smi][j];
            ok = feas[static_cast<size_t>(id)][static_cast<size_t>(vals[j])];
          }
          if (ok) out_ok[static_cast<size_t>(c)] = 1;
        }
      }
      // Narrow each output attribute to the projection of the surviving
      // codes.
      for (size_t j = 0; j < n_out; ++j) {
        const AttrId id = tables.out_attrs[smi][j];
        ValueSet proj(feas[static_cast<size_t>(id)].size(), 0);
        for (int64_t c = 0; c < range; ++c) {
          if (!out_ok[static_cast<size_t>(c)]) continue;
          proj[static_cast<size_t>(
              tables.out_values[smi][static_cast<size_t>(c) * n_out + j])] = 1;
        }
        if (IntersectInto(&feas[static_cast<size_t>(id)], proj)) {
          ++state_version;
          changed = true;
        }
      }
    }

    // (3) Backward narrowing through fixed modules: drop input codes whose
    // image left the feasible output-code set, then narrow the input
    // attributes to the survivors' projections. Free modules transmit no
    // constraint backward (any input can map to any feasible output).
    const std::vector<int>& topo = workflow.topo_order();
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      const int mi = *it;
      const size_t smi = static_cast<size_t>(mi);
      if (!fixed[smi] || result.determined[smi]) continue;
      const size_t n_in = tables.in_attrs[smi].size();
      const size_t n_out = tables.out_attrs[smi].size();
      // Feasible output codes under the current per-attribute sets.
      std::vector<ValueSet> in_proj(n_in);
      for (size_t j = 0; j < n_in; ++j) {
        in_proj[j].assign(
            feas[static_cast<size_t>(tables.in_attrs[smi][j])].size(), 0);
      }
      for (int64_t d = 0; d < tables.dom_size[smi]; ++d) {
        bool ok = true;
        for (size_t j = 0; ok && j < n_in; ++j) {
          const AttrId id = tables.in_attrs[smi][j];
          ok = feas[static_cast<size_t>(id)]
                   [static_cast<size_t>(in_value(mi, d, j))];
        }
        const int32_t c = tables.original_fn[smi][static_cast<size_t>(d)];
        const int32_t* vals =
            &tables.out_values[smi][static_cast<size_t>(c) * n_out];
        for (size_t j = 0; ok && j < n_out; ++j) {
          const AttrId id = tables.out_attrs[smi][j];
          ok = feas[static_cast<size_t>(id)][static_cast<size_t>(vals[j])];
        }
        if (!ok) continue;
        for (size_t j = 0; j < n_in; ++j) {
          in_proj[j][static_cast<size_t>(in_value(mi, d, j))] = 1;
        }
      }
      for (size_t j = 0; j < n_in; ++j) {
        const AttrId id = tables.in_attrs[smi][j];
        if (IntersectInto(&feas[static_cast<size_t>(id)], in_proj[j])) {
          ++state_version;
          changed = true;
        }
      }
    }
  }

  // Finalize the exported sets.
  result.feasible_values.resize(static_cast<size_t>(num_attrs));
  for (int a = 0; a < num_attrs; ++a) {
    result.feasible_values[static_cast<size_t>(a)] =
        ToSortedValues(feas[static_cast<size_t>(a)]);
  }
  for (int mi = 0; mi < n; ++mi) {
    const size_t smi = static_cast<size_t>(mi);
    result.feasible_out_codes[smi] = ToSortedValues(out_feasible[smi]);
    if (result.determined[smi]) continue;
    std::vector<int32_t>& din = result.feasible_in_codes[smi];
    for (int64_t d = 0; d < tables.dom_size[smi]; ++d) {
      bool ok = true;
      for (size_t j = 0; ok && j < tables.in_attrs[smi].size(); ++j) {
        const AttrId id = tables.in_attrs[smi][j];
        ok = feas[static_cast<size_t>(id)]
                 [static_cast<size_t>(in_value(mi, d, j))];
      }
      if (ok) din.push_back(static_cast<int32_t>(d));
    }
    result.factored_free_slots +=
        tables.dom_size[smi] - static_cast<int64_t>(din.size());
    // Tracked OUT-set inputs are original codes and must never be factored.
    PV_CHECK(std::includes(din.begin(), din.end(),
                           tables.orig_input_codes[smi].begin(),
                           tables.orig_input_codes[smi].end()));
  }
  return result;
}

}  // namespace provview
