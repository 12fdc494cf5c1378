#include "privacy/feasible_sets.h"

#include <algorithm>

#include "privacy/projection_ids.h"
#include "workflow/workflow.h"

namespace provview {

namespace {

// dst[0, len) &= other[0, len); returns true when dst shrank. Value sets
// are bytes in the flat per-value layout: attribute domains are small by
// construction, so bitmaps beat sorted vectors for the repeated
// intersect-and-test pattern of the fixpoint.
bool IntersectInto(uint8_t* dst, const uint8_t* other, int64_t len) {
  bool shrank = false;
  for (int64_t v = 0; v < len; ++v) {
    if (dst[v] && !other[v]) {
      dst[v] = 0;
      shrank = true;
    }
  }
  return shrank;
}

// Sorts and deduplicates `keys` in place.
void SortUnique(std::vector<int64_t>* keys) {
  std::sort(keys->begin(), keys->end());
  keys->erase(std::unique(keys->begin(), keys->end()), keys->end());
}

// The determined-slot test's log scans for one module, kept while no pin
// lands (see the header). Keys are flat and sorted: `allowed` holds
// prefix · vis_space + (code of the visible output values) over the log,
// `reach` holds (input code) · num_prefixes + prefix over the executions.
struct SlotScan {
  int64_t pin_version = -1;
  std::vector<size_t> vis_local;   // indices of the visible outputs
  int64_t vis_space = 1;           // ∏ radices of the visible outputs
  std::vector<int64_t> vis_of_code;  // per output code: its visible code
  std::vector<int64_t> allowed;
  std::vector<int64_t> reach;
};

}  // namespace

void RunFeasibleSetFixpoint(const WorkflowTables& tables,
                            const Bitset64& visible,
                            const std::vector<int>& fixed_modules,
                            FlatFeasibleSets* out) {
  PV_CHECK_MSG(tables.status.ok(),
               "feasible-set analysis needs completed tables: "
                   << tables.status.message());
  const Workflow& workflow = *tables.workflow;
  const int n = tables.num_modules;
  const int num_attrs = tables.num_attrs;
  const int64_t num_execs = tables.num_execs;
  const size_t prov_arity = tables.prov_ids.size();
  const std::vector<int64_t>& voff = tables.value_offset;
  const size_t sn = static_cast<size_t>(n);

  FlatFeasibleSets& r = *out;
  r.iterations = 0;
  r.pinned.assign(static_cast<size_t>(num_attrs), 0);
  r.determined.assign(sn, 0);
  r.forced.assign(sn, 0);
  r.det_lists.resize(sn);
  for (FlatFeasibleSets::SlotLists& lists : r.det_lists) {
    lists.codes.clear();
    lists.ends.clear();
  }
  r.factored_free_slots = 0;
  r.range_offset.resize(sn + 1);
  r.dom_offset.resize(sn + 1);
  r.range_offset[0] = 0;
  r.dom_offset[0] = 0;
  for (size_t i = 0; i < sn; ++i) {
    r.range_offset[i + 1] = r.range_offset[i] + tables.range_size[i];
    r.dom_offset[i + 1] = r.dom_offset[i] + tables.dom_size[i];
  }
  r.out_ok.assign(static_cast<size_t>(r.range_offset[sn]), 0);
  r.in_ok.assign(static_cast<size_t>(r.dom_offset[sn]), 0);

  std::vector<uint8_t> fixed(sn, 0);
  for (int i : fixed_modules) {
    PV_CHECK(i >= 0 && i < n);
    fixed[static_cast<size_t>(i)] = 1;
  }
  std::vector<uint8_t> vis_attr(static_cast<size_t>(num_attrs), 0);
  for (int a = 0; a < num_attrs; ++a) {
    vis_attr[static_cast<size_t>(a)] = a < visible.size() && visible.Test(a);
  }
  auto domain = [&](AttrId a) {
    return voff[static_cast<size_t>(a) + 1] - voff[static_cast<size_t>(a)];
  };
  auto feasible = [&](AttrId a, int32_t v) {
    return r.feasible[static_cast<size_t>(voff[static_cast<size_t>(a)] + v)] !=
           0;
  };
  // Whether every value of a decoded code (vals[j] for attrs[j]) is
  // feasible.
  auto all_feasible = [&](const std::vector<AttrId>& attrs,
                          const int32_t* vals) {
    for (size_t j = 0; j < attrs.size(); ++j) {
      if (!feasible(attrs[j], vals[j])) return false;
    }
    return true;
  };
  // Narrows attribute a to the bitmap `other` (same per-value layout, or a
  // scratch span of a's domain); true when it shrank.
  auto narrow = [&](AttrId a, const uint8_t* other) {
    return IntersectInto(&r.feasible[static_cast<size_t>(
                             voff[static_cast<size_t>(a)])],
                         other, domain(a));
  };
  auto orig_values_of = [&](AttrId a) {
    return &tables.orig_values[static_cast<size_t>(
        voff[static_cast<size_t>(a)])];
  };

  // feasible_values start at the full domain; attributes the provenance
  // view exposes narrow to their distinct original values.
  r.feasible.assign(static_cast<size_t>(voff[static_cast<size_t>(num_attrs)]),
                    1);
  for (int a = 0; a < num_attrs; ++a) {
    if (tables.prov_pos[static_cast<size_t>(a)] >= 0 &&
        vis_attr[static_cast<size_t>(a)]) {
      narrow(a, orig_values_of(a));
    }
  }

  // Monotone-state versions. `state_version` bumps on every pin and every
  // feasible-set shrink: a determined module's candidate lists are a pure
  // function of that state, so recomputation is skipped while the version a
  // module last computed against still matches (in particular the whole
  // confirming final sweep recomputes nothing). `pin_version` bumps on pins
  // only — the log scans depend on nothing else.
  int64_t state_version = 0;
  int64_t pin_version = 0;

  auto pin = [&](AttrId a, bool* changed) {
    if (r.pinned[static_cast<size_t>(a)]) return;
    r.pinned[static_cast<size_t>(a)] = 1;
    if (tables.prov_pos[static_cast<size_t>(a)] >= 0) {
      narrow(a, orig_values_of(a));
    }
    ++state_version;
    ++pin_version;
    *changed = true;
  };
  {
    bool ignored = false;
    for (AttrId a : workflow.initial_input_ids()) pin(a, &ignored);
  }

  // The determined-visible row prefixes, numbered once per pin version for
  // every module.
  ProjectionIds prefix_ids;
  std::vector<AttrId> det_vis_attrs;
  det_vis_attrs.reserve(prov_arity);
  std::vector<int32_t> prefix_of_exec;
  int64_t prefix_pin_version = -1;
  std::vector<SlotScan> scans(sn);
  std::vector<int32_t> hits;  // per visible code: prefixes allowing it

  // Recomputes module mi's per-reached-slot candidate lists (mi determined
  // and free) by the determined-slot test, with the extended pinned set and
  // intersected with the per-attribute feasible sets of ALL outputs (hidden
  // ones included: that is where downstream narrowing bites). The log
  // scans depend only on the pinned-visible set, so they are redone only
  // when a pin landed since the module's last scan; feasible-set shrinks
  // alone rerun just the per-code filter.
  auto compute_det_lists = [&](int mi) {
    const size_t smi = static_cast<size_t>(mi);
    const std::vector<AttrId>& outs = tables.out_attrs[smi];
    const size_t n_out = outs.size();
    const int64_t range = tables.range_size[smi];
    const int32_t* out_values = tables.out_values[smi].data();
    if (prefix_pin_version != pin_version) {
      det_vis_attrs.clear();
      for (size_t p = 0; p < prov_arity; ++p) {
        const AttrId id = tables.prov_ids[p];
        if (r.pinned[static_cast<size_t>(id)] &&
            vis_attr[static_cast<size_t>(id)]) {
          det_vis_attrs.push_back(id);
        }
      }
      prefix_ids.Build(tables, det_vis_attrs, nullptr, 0, &prefix_of_exec);
      prefix_pin_version = pin_version;
    }
    SlotScan& scan = scans[smi];
    // Mixed-radix code of the visible outputs' values, value(j) for output
    // j.
    auto vis_code = [&](auto&& value) {
      int64_t code = 0;
      int64_t stride = 1;
      for (size_t j : scan.vis_local) {
        code += value(j) * stride;
        stride *= domain(outs[j]);
      }
      return code;
    };
    if (scan.pin_version < 0) {
      scan.vis_local.reserve(n_out);
      scan.allowed.reserve(static_cast<size_t>(num_execs));
      scan.reach.reserve(static_cast<size_t>(num_execs));
      for (size_t j = 0; j < n_out; ++j) {
        if (!vis_attr[static_cast<size_t>(outs[j])]) continue;
        scan.vis_local.push_back(j);
        scan.vis_space *= domain(outs[j]);
      }
      scan.vis_of_code.resize(static_cast<size_t>(range));
      for (int64_t c = 0; c < range; ++c) {
        const int32_t* vals = &out_values[static_cast<size_t>(c) * n_out];
        scan.vis_of_code[static_cast<size_t>(c)] =
            vis_code([&](size_t j) { return vals[j]; });
      }
    }
    if (scan.pin_version != pin_version) {
      const int64_t num_prefixes = prefix_ids.size();
      scan.allowed.clear();
      scan.reach.clear();
      for (int64_t e = 0; e < num_execs; ++e) {
        const int32_t* row =
            &tables.orig_rows[static_cast<size_t>(e) * prov_arity];
        const int64_t code = vis_code([&](size_t j) {
          return row[static_cast<size_t>(
              tables.prov_pos[static_cast<size_t>(outs[j])])];
        });
        const int64_t prefix = prefix_of_exec[static_cast<size_t>(e)];
        scan.allowed.push_back(prefix * scan.vis_space + code);
        scan.reach.push_back(
            tables.orig_in_code[static_cast<size_t>(e) * sn + smi] *
                num_prefixes +
            prefix);
      }
      SortUnique(&scan.allowed);
      SortUnique(&scan.reach);
      scan.pin_version = pin_version;
    }

    // Per reached slot (ascending input code, so aligned with
    // orig_input_codes): count for every visible code the slot's prefixes
    // that allow it; a code survives iff all of them do.
    FlatFeasibleSets::SlotLists& lists = r.det_lists[smi];
    lists.codes.clear();
    lists.ends.clear();
    // Room for every slot's list at full range, up to one log's worth.
    lists.ends.reserve(tables.orig_input_codes[smi].size());
    lists.codes.reserve(std::min<size_t>(
        static_cast<size_t>(range) * tables.orig_input_codes[smi].size(),
        static_cast<size_t>(num_execs) + static_cast<size_t>(range)));
    hits.assign(static_cast<size_t>(scan.vis_space), 0);
    const int64_t num_prefixes = prefix_ids.size();
    // Applies fn to the hit counter of every visible code the log allows
    // after the prefix of reach key `key`.
    auto for_each_allowed = [&](int64_t key, auto&& fn) {
      const int64_t base = (key % num_prefixes) * scan.vis_space;
      for (auto it = std::lower_bound(scan.allowed.begin(),
                                      scan.allowed.end(), base);
           it != scan.allowed.end() && *it < base + scan.vis_space; ++it) {
        fn(hits[static_cast<size_t>(*it - base)]);
      }
    };
    bool all_singleton = true;
    for (size_t k = 0; k < scan.reach.size();) {
      const int64_t in_code = scan.reach[k] / num_prefixes;
      const size_t first = k;
      for (; k < scan.reach.size() && scan.reach[k] / num_prefixes == in_code;
           ++k) {
        for_each_allowed(scan.reach[k], [](int32_t& h) { ++h; });
      }
      const int32_t slot_prefixes = static_cast<int32_t>(k - first);
      const size_t begin = lists.codes.size();
      for (int64_t c = 0; c < range; ++c) {
        if (hits[static_cast<size_t>(
                scan.vis_of_code[static_cast<size_t>(c)])] != slot_prefixes) {
          continue;
        }
        if (all_feasible(outs, &out_values[static_cast<size_t>(c) * n_out])) {
          lists.codes.push_back(static_cast<int32_t>(c));
        }
      }
      // Reset the counters this slot touched.
      for (size_t q = first; q < k; ++q) {
        for_each_allowed(scan.reach[q], [](int32_t& h) { h = 0; });
      }
      const size_t width = lists.codes.size() - begin;
      PV_CHECK_MSG(width > 0,
                   "feasible-set analysis emptied a reached slot of module "
                       << workflow.module(mi).name()
                       << " (the original code must always survive)");
      if (width != 1) all_singleton = false;
      lists.ends.push_back(static_cast<int32_t>(lists.codes.size()));
    }
    return all_singleton;
  };

  // Scratch reused by every sweep: one attribute's projection, and a fixed
  // module's per-input projections back-to-back.
  std::vector<uint8_t> proj;
  std::vector<uint8_t> in_proj;
  std::vector<int64_t> in_proj_offset;

  // The fixpoint loop. Every component is monotone (pinned bits set, value
  // sets and candidate lists shrink), so the sweep count is finite; see the
  // header's termination argument.
  const std::vector<int>& topo = workflow.topo_order();
  std::vector<int64_t> lists_version(sn, -1);
  bool changed = true;
  while (changed) {
    changed = false;
    ++r.iterations;

    // (1) Determinedness, candidate lists, forcing — in topological order so
    // pinnedness crosses a whole chain of forced stages in one sweep.
    for (int mi : topo) {
      const size_t smi = static_cast<size_t>(mi);
      bool det = true;
      for (AttrId id : tables.in_attrs[smi]) {
        det = det && r.pinned[static_cast<size_t>(id)];
      }
      if (det && !r.determined[smi]) changed = true;
      r.determined[smi] = det;
      if (!det) continue;
      // Once forced, every list is the {original code} singleton — minimal
      // under any further narrowing — so the (full-log) recomputation can
      // be skipped on later sweeps; only re-pin the outputs.
      if (fixed[smi] || r.forced[smi]) {
        for (AttrId id : tables.out_attrs[smi]) pin(id, &changed);
        continue;
      }
      if (lists_version[smi] == state_version) continue;  // inputs unchanged
      r.forced[smi] = compute_det_lists(mi);
      lists_version[smi] = state_version;
      if (r.forced[smi]) {
        changed = true;
        for (AttrId id : tables.out_attrs[smi]) pin(id, &changed);
      }
    }

    // (2) Forward value propagation: image of the feasible input-code set
    // under the module (fixed: its function; free: every output code whose
    // attribute values are feasible — for determined free modules, the
    // union of the per-slot candidate lists).
    for (int mi : topo) {
      const size_t smi = static_cast<size_t>(mi);
      const int64_t range = tables.range_size[smi];
      const std::vector<AttrId>& ins = tables.in_attrs[smi];
      const std::vector<AttrId>& outs = tables.out_attrs[smi];
      const size_t n_in = ins.size();
      const size_t n_out = outs.size();
      const int32_t* in_values = tables.in_values[smi].data();
      const int32_t* out_values = tables.out_values[smi].data();
      const int32_t* fn = tables.original_fn[smi].data();
      uint8_t* out_ok = &r.out_ok[static_cast<size_t>(r.range_offset[smi])];
      std::fill(out_ok, out_ok + range, 0);
      if (fixed[smi]) {
        if (r.determined[smi]) {
          for (int32_t d : tables.orig_input_codes[smi]) {
            out_ok[fn[d]] = 1;
          }
        } else {
          for (int64_t d = 0; d < tables.dom_size[smi]; ++d) {
            if (all_feasible(ins, &in_values[static_cast<size_t>(d) * n_in])) {
              out_ok[fn[d]] = 1;
            }
          }
        }
      } else if (r.determined[smi]) {
        for (int32_t c : r.det_lists[smi].codes) out_ok[c] = 1;
      } else {
        for (int64_t c = 0; c < range; ++c) {
          out_ok[c] =
              all_feasible(outs, &out_values[static_cast<size_t>(c) * n_out]);
        }
      }
      // Narrow each output attribute to the projection of the surviving
      // codes.
      for (size_t j = 0; j < n_out; ++j) {
        proj.assign(static_cast<size_t>(domain(outs[j])), 0);
        for (int64_t c = 0; c < range; ++c) {
          if (out_ok[c]) {
            proj[static_cast<size_t>(out_values[c * n_out + j])] = 1;
          }
        }
        if (narrow(outs[j], proj.data())) {
          ++state_version;
          changed = true;
        }
      }
    }

    // (3) Backward narrowing through fixed modules: drop input codes whose
    // image left the feasible output-code set, then narrow the input
    // attributes to the survivors' projections. Free modules transmit no
    // constraint backward (any input can map to any feasible output).
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      const size_t smi = static_cast<size_t>(*it);
      if (!fixed[smi] || r.determined[smi]) continue;
      const std::vector<AttrId>& ins = tables.in_attrs[smi];
      const std::vector<AttrId>& outs = tables.out_attrs[smi];
      const size_t n_in = ins.size();
      const size_t n_out = outs.size();
      const int32_t* in_values = tables.in_values[smi].data();
      const int32_t* out_values = tables.out_values[smi].data();
      in_proj_offset.assign(n_in + 1, 0);
      for (size_t j = 0; j < n_in; ++j) {
        in_proj_offset[j + 1] = in_proj_offset[j] + domain(ins[j]);
      }
      in_proj.assign(static_cast<size_t>(in_proj_offset[n_in]), 0);
      for (int64_t d = 0; d < tables.dom_size[smi]; ++d) {
        const int32_t* vals = &in_values[static_cast<size_t>(d) * n_in];
        const int32_t c = tables.original_fn[smi][static_cast<size_t>(d)];
        if (!all_feasible(ins, vals) ||
            !all_feasible(outs, &out_values[static_cast<size_t>(c) * n_out])) {
          continue;
        }
        for (size_t j = 0; j < n_in; ++j) {
          in_proj[static_cast<size_t>(in_proj_offset[j] + vals[j])] = 1;
        }
      }
      for (size_t j = 0; j < n_in; ++j) {
        if (narrow(ins[j], &in_proj[static_cast<size_t>(in_proj_offset[j])])) {
          ++state_version;
          changed = true;
        }
      }
    }
  }

  // The feasible input codes of non-determined modules.
  for (int mi = 0; mi < n; ++mi) {
    const size_t smi = static_cast<size_t>(mi);
    if (r.determined[smi]) continue;
    const std::vector<AttrId>& ins = tables.in_attrs[smi];
    const size_t n_in = ins.size();
    const int32_t* in_values = tables.in_values[smi].data();
    uint8_t* in_ok = &r.in_ok[static_cast<size_t>(r.dom_offset[smi])];
    int64_t feasible_points = 0;
    for (int64_t d = 0; d < tables.dom_size[smi]; ++d) {
      in_ok[d] = all_feasible(ins, &in_values[static_cast<size_t>(d) * n_in]);
      feasible_points += in_ok[d];
    }
    r.factored_free_slots += tables.dom_size[smi] - feasible_points;
    // Tracked OUT-set inputs are original codes and must never be factored.
    for (int32_t d : tables.orig_input_codes[smi]) PV_CHECK(in_ok[d]);
  }
}

FeasibleSetAnalysis AnalyzeFeasibleSets(const WorkflowTables& tables,
                                        const Bitset64& visible,
                                        const std::vector<int>& fixed_modules) {
  FlatFeasibleSets flat;
  RunFeasibleSetFixpoint(tables, visible, fixed_modules, &flat);
  const size_t n = static_cast<size_t>(tables.num_modules);
  const size_t num_attrs = static_cast<size_t>(tables.num_attrs);
  // The set bits of bitmap[begin, begin + len), as sorted codes.
  auto codes_of = [](const uint8_t* bitmap, int64_t len) {
    std::vector<int32_t> codes;
    for (int64_t c = 0; c < len; ++c) {
      if (bitmap[c]) codes.push_back(static_cast<int32_t>(c));
    }
    return codes;
  };

  FeasibleSetAnalysis result;
  result.iterations = flat.iterations;
  result.factored_free_slots = flat.factored_free_slots;
  result.feasible_values.resize(num_attrs);
  result.pinned_attr.resize(num_attrs);
  for (size_t a = 0; a < num_attrs; ++a) {
    result.feasible_values[a] =
        codes_of(&flat.feasible[static_cast<size_t>(tables.value_offset[a])],
                 tables.value_offset[a + 1] - tables.value_offset[a]);
    result.pinned_attr[a] = flat.pinned[a] != 0;
  }
  result.determined.resize(n);
  result.forced.resize(n);
  result.det_slot_codes.resize(n);
  result.feasible_in_codes.resize(n);
  result.feasible_out_codes.resize(n);
  for (size_t i = 0; i < n; ++i) {
    result.determined[i] = flat.determined[i] != 0;
    result.forced[i] = flat.forced[i] != 0;
    const FlatFeasibleSets::SlotLists& lists = flat.det_lists[i];
    int32_t begin = 0;
    for (int32_t end : lists.ends) {
      result.det_slot_codes[i].emplace_back(lists.codes.begin() + begin,
                                            lists.codes.begin() + end);
      begin = end;
    }
    if (!flat.determined[i]) {
      result.feasible_in_codes[i] =
          codes_of(&flat.in_ok[static_cast<size_t>(flat.dom_offset[i])],
                   tables.dom_size[i]);
    }
    result.feasible_out_codes[i] =
        codes_of(&flat.out_ok[static_cast<size_t>(flat.range_offset[i])],
                 tables.range_size[i]);
  }
  return result;
}

}  // namespace provview
