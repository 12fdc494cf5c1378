#include "privacy/possible_worlds.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <limits>
#include <mutex>
#include <numeric>
#include <unordered_set>

#include "common/combinatorics.h"
#include "common/interner.h"
#include "common/task_graph.h"
#include "privacy/feasible_sets.h"
#include "privacy/projection_ids.h"
#include "workflow/execution_supplier.h"

namespace provview {

namespace {

constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

// Positions (within `attrs`) of the attributes visible under `visible`.
std::vector<int> VisiblePositions(const std::vector<AttrId>& attrs,
                                  const Bitset64& visible) {
  std::vector<int> pos;
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (attrs[i] < visible.size() && visible.Test(attrs[i])) {
      pos.push_back(static_cast<int>(i));
    }
  }
  return pos;
}

// Runs fn(shard, begin, end) over the non-empty TaskRanges of `shards`
// partitioning [0, total), as the independent tasks of one graph on
// `shared` or a private executor of `shards` runners. The world walks
// shard their first branch point's codes this way; each shard writes only
// its own partial, merged by the caller. A single shard is a plain call,
// with no graph. Batch ground truth passes its own executor as `shared`, so
// a request's shards nest there and idle runners steal them. Under Γ the
// workflow walk shards only after its Γ-directed probe (see WfWalk) has
// given up, so the shards mostly run complete walks.
void RunRanges(TaskGraphExecutor* shared, int64_t total, int shards,
               const std::function<void(int, int64_t, int64_t)>& fn) {
  if (shards <= 1) {
    fn(0, 0, total);
    return;
  }
  TaskGraph graph;
  for (int s = 0; s < shards; ++s) {
    const auto [begin, end] = TaskRange(total, shards, s);
    if (begin >= end) break;
    graph.Add([&fn, s, begin = begin, end = end] { fn(s, begin, end); });
  }
  const EngineExecutor executor(shared, shards);
  (void)graph.Run(executor.get());
}

// ----------------------------------------------------------------------------
// Pruned incremental engine.
//
// The target view is interned to dense ids 0..T-1. For each input slot i only
// the output codes whose visible projection occurs in the target are feasible
// (any other choice makes the projected relation a strict non-subset of the
// view, so no world uses it). A world is then consistent iff the T target
// ids are all covered by the current digit choices, which we track with a
// count-per-id multiset updated incrementally on every odometer step.
// ----------------------------------------------------------------------------

// Read-only description of the pruned candidate space, shared by all shards.
struct PrunedInstance {
  int n = 0;            // input slots
  int32_t num_targets = 0;
  // codes[i] = feasible output codes of slot i; tids[i][j] = target id of
  // the visible projection induced by choosing codes[i][j] for slot i.
  std::vector<std::vector<int32_t>> codes;
  std::vector<std::vector<int32_t>> tids;
};

// Union of the (pair, feasible-index) marks seen in a consistent world,
// shared by both walks. A pair is one tracked OUT set: an input slot of the
// standalone walk, a (free module, original input) of the workflow walk.
// The union is shared across shards so the Γ short-circuit fires on the
// global OUT sets. Marks are rare (bounded by Σ_p |feasible_p| per shard),
// so a single mutex is fine. The marks of every pair sit in one flat array,
// pair p's at seen[offset[p] .. offset[p + 1]).
struct SeenUnion {
  // widths[p] = feasible codes of pair p. With gamma_target > 0 the
  // short-circuit waits on every pair p with gamma_tracked[p].
  SeenUnion(const std::vector<size_t>& widths,
            const std::vector<bool>& gamma_tracked, int64_t gamma_target) {
    offset.reserve(widths.size() + 1);
    offset.push_back(0);
    for (size_t w : widths) offset.push_back(offset.back() + w);
    seen.assign(offset.back(), 0);
    if (gamma_target > 0) {
      remaining.assign(widths.size(), 0);
      for (size_t p = 0; p < widths.size(); ++p) {
        if (!gamma_tracked[p]) continue;
        remaining[p] = gamma_target;
        ++pairs_below;
      }
    }
  }

  // Under a Γ target: true while Γ-tracked pair p is short of it. Reads
  // without the lock: only a walker that runs alone (the workflow walk's
  // probe) asks.
  bool Short(size_t pair) const { return remaining[pair] > 0; }

  // Records (pair, j); when every Γ-tracked pair's distinct count reaches
  // the target, flips `stop`.
  void Mark(size_t pair, int32_t j, std::atomic<bool>* stop) {
    std::lock_guard<std::mutex> lock(mu);
    uint8_t& s = seen[offset[pair] + static_cast<size_t>(j)];
    if (s) return;
    s = 1;
    if (!remaining.empty() && remaining[pair] > 0 &&
        --remaining[pair] == 0 && --pairs_below == 0) {
      stop->store(true, std::memory_order_relaxed);
    }
  }

  std::mutex mu;
  std::vector<size_t> offset;
  std::vector<uint8_t> seen;
  std::vector<int64_t> remaining;  // per pair: marks left to reach Γ
  int64_t pairs_below = 0;         // Γ-tracked pairs still short
};

// Shard-local first-seen flags over the union's pairs, in the union's
// layout: spare the union's lock for pairs this shard already reported.
// Once every pair is seen, `unseen` is 0 and the walks skip the marking
// loop entirely.
struct ShardMarks {
  explicit ShardMarks(const SeenUnion& seen_union)
      : offset(seen_union.offset),
        seen(seen_union.seen.size(), 0),
        left(offset.size() - 1),
        unseen(static_cast<int64_t>(seen.size())) {
    for (size_t p = 0; p + 1 < offset.size(); ++p) {
      left[p] = static_cast<int64_t>(offset[p + 1] - offset[p]);
    }
  }

  void Mark(size_t pair, int32_t j, SeenUnion* seen_union,
            std::atomic<bool>* stop) {
    uint8_t& s = seen[offset[pair] + static_cast<size_t>(j)];
    if (s) return;
    s = 1;
    --left[pair];
    --unseen;
    seen_union->Mark(pair, j, stop);
  }

  // Marks every feasible index of `pair`: a leaf of the lazy workflow walk
  // stands for every code of a slot no execution reached.
  void MarkAll(size_t pair, SeenUnion* seen_union, std::atomic<bool>* stop) {
    if (left[pair] == 0) return;
    const size_t width = offset[pair + 1] - offset[pair];
    for (size_t j = 0; j < width; ++j) {
      Mark(pair, static_cast<int32_t>(j), seen_union, stop);
    }
  }

  const std::vector<size_t>& offset;
  std::vector<uint8_t> seen;
  std::vector<int64_t> left;  // per pair: indices not yet seen
  int64_t unseen = 0;
};

struct ShardResult {
  int64_t num_worlds = 0;
};

// Walks the sub-space where slot 0's feasible index runs over [begin, end)
// and every other slot runs over its full feasible list. Slot 0 is the
// most-significant digit, so shards are contiguous ranges of the global
// walk. The covered-target multiset is maintained incrementally: one digit
// changes per step (amortized O(1) updates).
void WalkShard(const PrunedInstance& inst, int64_t begin, int64_t end,
               SeenUnion* seen_union, std::atomic<bool>* stop,
               const ExecControl* control, ShardResult* out) {
  if (begin >= end) return;
  const int n = inst.n;
  std::vector<int32_t> idx(static_cast<size_t>(n), 0);
  idx[0] = static_cast<int32_t>(begin);

  std::vector<int32_t> counts(static_cast<size_t>(inst.num_targets), 0);
  int32_t uncovered = inst.num_targets;
  auto cover = [&](int32_t tid) {
    if (counts[static_cast<size_t>(tid)]++ == 0) --uncovered;
  };
  auto uncover = [&](int32_t tid) {
    if (--counts[static_cast<size_t>(tid)] == 0) ++uncovered;
  };
  for (int i = 0; i < n; ++i) {
    cover(inst.tids[static_cast<size_t>(i)][static_cast<size_t>(idx[i])]);
  }

  ShardMarks marks(*seen_union);
  for (;;) {
    if (stop->load(std::memory_order_relaxed)) return;
    if (control != nullptr && control->Expired()) {
      stop->store(true, std::memory_order_relaxed);
      return;
    }
    if (uncovered == 0) {
      ++out->num_worlds;
      if (marks.unseen > 0) {
        for (int i = 0; i < n; ++i) {
          marks.Mark(static_cast<size_t>(i), idx[static_cast<size_t>(i)],
                     seen_union, stop);
        }
      }
    }
    // Advance one digit: slots 1..n-1 cycle fastest, slot 0 last (within
    // this shard's [begin, end) range).
    int d = n > 1 ? 1 : 0;
    for (;;) {
      const auto& tids_d = inst.tids[static_cast<size_t>(d)];
      uncover(tids_d[static_cast<size_t>(idx[static_cast<size_t>(d)])]);
      if (d == 0) {
        if (++idx[0] == end) return;  // shard exhausted
        cover(tids_d[static_cast<size_t>(idx[0])]);
        break;
      }
      if (++idx[static_cast<size_t>(d)] <
          static_cast<int32_t>(inst.codes[static_cast<size_t>(d)].size())) {
        cover(tids_d[static_cast<size_t>(idx[static_cast<size_t>(d)])]);
        break;
      }
      idx[static_cast<size_t>(d)] = 0;
      cover(tids_d[0]);
      if (++d == n) d = 0;  // carry into the next digit, slot 0 last
    }
  }
}

}  // namespace

int64_t StandaloneWorlds::MinOutSize() const {
  int64_t min_out = kMax;
  for (const auto& [x, outs] : out_sets) {
    (void)x;
    min_out = std::min(min_out, static_cast<int64_t>(outs.size()));
  }
  return min_out;
}

StandaloneWorlds EnumerateStandaloneWorlds(const Relation& rel,
                                           const std::vector<AttrId>& inputs,
                                           const std::vector<AttrId>& outputs,
                                           const Bitset64& visible,
                                           const EnumerationOptions& opts) {
  MaterializedRowSupplier rows(rel);
  return EnumerateStandaloneWorlds(&rows, inputs, outputs, visible, opts);
}

StandaloneWorlds EnumerateStandaloneWorlds(RowSupplier* rows,
                                           const std::vector<AttrId>& inputs,
                                           const std::vector<AttrId>& outputs,
                                           const Bitset64& visible,
                                           const EnumerationOptions& opts) {
  StandaloneWorlds result;
  const ExecControl* control = opts.control;
  if (control != nullptr && control->ExpiredNow()) {
    result.status = control->Check();
    return result;
  }
  const Schema& row_schema = rows->schema();
  const AttributeCatalog& catalog = *row_schema.catalog();

  const std::vector<int> vis_in_pos = VisiblePositions(inputs, visible);
  const std::vector<int> vis_out_pos = VisiblePositions(outputs, visible);

  // Row positions of the module attributes within the supplier's schema.
  std::vector<int> in_pos, out_pos;
  for (AttrId id : inputs) {
    const int p = row_schema.PositionOf(id);
    PV_CHECK_MSG(p >= 0, "supplier schema misses input attr " << id);
    in_pos.push_back(p);
  }
  for (AttrId id : outputs) {
    const int p = row_schema.PositionOf(id);
    PV_CHECK_MSG(p >= 0, "supplier schema misses output attr " << id);
    out_pos.push_back(p);
  }

  // One streaming pass interning (a) the distinct inputs of R — slot i owns
  // input TupleOf(i) — and (b) the target view: every distinct
  // (vis_in ++ vis_out) projection, as dense target ids.
  TupleInterner input_interner;
  TupleInterner target_interner;
  {
    std::vector<Value> block;
    const size_t arity = static_cast<size_t>(row_schema.arity());
    Tuple x(inputs.size()), v;
    rows->Reset();
    int64_t got;
    while ((got = rows->NextBlock(&block)) > 0) {
      if (control != nullptr && control->ExpiredNow()) {
        result.status = control->Check();
        return result;
      }
      for (int64_t r = 0; r < got; ++r) {
        const Value* row = &block[static_cast<size_t>(r) * arity];
        for (size_t j = 0; j < in_pos.size(); ++j) {
          x[j] = row[in_pos[j]];
        }
        input_interner.Intern(x);
        v.clear();
        for (int p : vis_in_pos) v.push_back(x[static_cast<size_t>(p)]);
        for (int p : vis_out_pos) {
          v.push_back(row[out_pos[static_cast<size_t>(p)]]);
        }
        target_interner.Intern(v);
      }
    }
  }
  const int n = input_interner.size();
  if (n == 0) return result;

  std::vector<int> out_radices;
  for (AttrId id : outputs) out_radices.push_back(catalog.DomainSize(id));
  int64_t range = 1;
  for (int r : out_radices) range = SaturatingMul(range, r);
  // Candidate-space guards return a typed RESOURCE_EXHAUSTED. The per-slot
  // feasibility scan materializes O(|Range|) tuples and walks n*|Range|
  // codes before the pruned space is known, so the scan itself is bounded
  // by the caller's budget (|Range| ≤ |Range|^N, so this rejects nothing
  // the naive guard allows).
  if (range > std::numeric_limits<int>::max() || range > opts.max_candidates) {
    result.status = Status::ResourceExhausted(
        "standalone world space too large: output range " +
        std::to_string(range));
    return result;
  }
  result.naive_candidates = SaturatingPow(range, n);

  // Visible-output fragment of every output code, computed once and shared
  // by all slots' feasibility scans.
  std::vector<Tuple> vis_out_of_code(static_cast<size_t>(range));
  for (int64_t code = 0; code < range; ++code) {
    Tuple y = DecodeMixedRadix(code, out_radices);
    Tuple& v = vis_out_of_code[static_cast<size_t>(code)];
    v.reserve(vis_out_pos.size());
    for (int p : vis_out_pos) v.push_back(y[static_cast<size_t>(p)]);
  }

  // Per-slot pruning: keep only codes whose visible projection occurs in
  // the target. Everything else can never appear in a consistent world.
  PrunedInstance inst;
  inst.n = n;
  inst.num_targets = target_interner.size();
  inst.codes.resize(static_cast<size_t>(n));
  inst.tids.resize(static_cast<size_t>(n));
  result.pruned_candidates = 1;
  for (int i = 0; i < n; ++i) {
    if (control != nullptr && control->ExpiredNow()) {
      result.status = control->Check();
      return result;
    }
    const Tuple& x = input_interner.TupleOf(i);
    Tuple v;
    v.reserve(vis_in_pos.size() + vis_out_pos.size());
    for (int p : vis_in_pos) v.push_back(x[static_cast<size_t>(p)]);
    const size_t prefix = v.size();
    for (int64_t code = 0; code < range; ++code) {
      v.resize(prefix);
      const Tuple& tail = vis_out_of_code[static_cast<size_t>(code)];
      v.insert(v.end(), tail.begin(), tail.end());
      int32_t tid = target_interner.Find(v);
      if (tid < 0) continue;
      inst.codes[static_cast<size_t>(i)].push_back(static_cast<int32_t>(code));
      inst.tids[static_cast<size_t>(i)].push_back(tid);
    }
    result.pruned_candidates = SaturatingMul(
        result.pruned_candidates,
        static_cast<int64_t>(inst.codes[static_cast<size_t>(i)].size()));
  }
  if (result.pruned_candidates > opts.max_candidates) {
    result.status = Status::ResourceExhausted(
        "standalone world space too large after pruning: " +
        std::to_string(result.pruned_candidates));
    return result;
  }
  if (result.pruned_candidates == 0) return result;  // some slot infeasible

  // Shard the walk over slot 0's feasible codes.
  const int64_t slot0 = static_cast<int64_t>(inst.codes[0].size());
  int threads = ResolveThreads(opts.num_threads);
  if (result.pruned_candidates <= opts.min_parallel_candidates) threads = 1;
  const int shards = static_cast<int>(std::min<int64_t>(threads, slot0));

  // Every input slot is one tracked pair.
  std::vector<size_t> widths;
  for (const auto& c : inst.codes) widths.push_back(c.size());
  SeenUnion seen_union(widths, std::vector<bool>(widths.size(), true),
                       opts.gamma);
  std::atomic<bool> stop(false);
  std::vector<ShardResult> partials(static_cast<size_t>(shards));
  RunRanges(/*shared=*/nullptr, slot0, shards,
            [&](int shard, int64_t begin, int64_t end) {
              WalkShard(inst, begin, end, &seen_union, &stop, control,
                        &partials[static_cast<size_t>(shard)]);
            });
  for (const ShardResult& p : partials) result.num_worlds += p.num_worlds;
  result.early_stopped = stop.load();
  if (control != nullptr) result.status = control->Check();

  // Materialize OUT sets from the union of seen (slot, code) pairs.
  for (int i = 0; i < n; ++i) {
    const Tuple& x = input_interner.TupleOf(i);
    const size_t first = seen_union.offset[static_cast<size_t>(i)];
    for (size_t j = 0; j < widths[static_cast<size_t>(i)]; ++j) {
      if (!seen_union.seen[first + j]) continue;
      result.out_sets[x].insert(DecodeMixedRadix(
          inst.codes[static_cast<size_t>(i)][j], out_radices));
    }
  }
  return result;
}

StandaloneWorlds EnumerateStandaloneWorldsNaive(
    const Relation& rel, const std::vector<AttrId>& inputs,
    const std::vector<AttrId>& outputs, const Bitset64& visible,
    int64_t max_candidates) {
  StandaloneWorlds result;
  const AttributeCatalog& catalog = *rel.schema().catalog();

  // Distinct inputs of R, in a fixed order.
  std::set<Tuple> input_set;
  for (const Tuple& row : rel.SortedDistinctRows()) {
    input_set.insert(rel.ProjectRow(row, inputs));
  }
  std::vector<Tuple> xs(input_set.begin(), input_set.end());
  const int n = static_cast<int>(xs.size());
  if (n == 0) return result;

  std::vector<int> out_radices;
  for (AttrId id : outputs) out_radices.push_back(catalog.DomainSize(id));
  int64_t range = 1;
  for (int r : out_radices) range = SaturatingMul(range, r);
  PV_CHECK_MSG(range <= std::numeric_limits<int>::max(),
               "output range too large for world enumeration");

  int64_t candidates = SaturatingPow(range, n);
  result.naive_candidates = candidates;
  result.pruned_candidates = candidates;
  PV_CHECK_MSG(candidates <= max_candidates,
               "standalone world space too large: " << candidates);

  // Target visible projection of R, as a set of (vis_in ++ vis_out) tuples.
  std::vector<int> vis_in_pos = VisiblePositions(inputs, visible);
  std::vector<int> vis_out_pos = VisiblePositions(outputs, visible);
  auto visible_of = [&](const Tuple& x, const Tuple& y) {
    Tuple v;
    v.reserve(vis_in_pos.size() + vis_out_pos.size());
    for (int p : vis_in_pos) v.push_back(x[static_cast<size_t>(p)]);
    for (int p : vis_out_pos) v.push_back(y[static_cast<size_t>(p)]);
    return v;
  };

  std::set<Tuple> target;
  for (const Tuple& row : rel.SortedDistinctRows()) {
    target.insert(visible_of(rel.ProjectRow(row, inputs),
                             rel.ProjectRow(row, outputs)));
  }

  // Pre-decode all possible outputs.
  std::vector<Tuple> decoded(static_cast<size_t>(range));
  for (int64_t code = 0; code < range; ++code) {
    decoded[static_cast<size_t>(code)] = DecodeMixedRadix(code, out_radices);
  }

  // Odometer over the N function slots, each with `range` choices.
  std::vector<int> slots(static_cast<size_t>(n), static_cast<int>(range));
  MixedRadixCounter counter(slots);
  do {
    std::set<Tuple> projected;
    for (int i = 0; i < n; ++i) {
      projected.insert(
          visible_of(xs[static_cast<size_t>(i)],
                     decoded[static_cast<size_t>(counter.values()[i])]));
    }
    if (projected == target) {
      ++result.num_worlds;
      for (int i = 0; i < n; ++i) {
        result.out_sets[xs[static_cast<size_t>(i)]].insert(
            decoded[static_cast<size_t>(counter.values()[i])]);
      }
    }
  } while (counter.Advance());
  return result;
}

bool IsStandaloneSafeByEnumeration(const Relation& rel,
                                   const std::vector<AttrId>& inputs,
                                   const std::vector<AttrId>& outputs,
                                   const Bitset64& visible, int64_t gamma,
                                   EnumerationOptions opts) {
  PV_CHECK_MSG(gamma >= 1, "gamma must be >= 1");
  opts.gamma = gamma;
  StandaloneWorlds worlds =
      EnumerateStandaloneWorlds(rel, inputs, outputs, visible, opts);
  // No status channel: an over-budget (or stopped) enumeration has empty or
  // partial OUT sets, which must not read as a verdict.
  PV_CHECK_MSG(worlds.status.ok(), worlds.status.message());
  if (worlds.early_stopped) return true;  // every OUT set reached Γ
  return worlds.MinOutSize() >= gamma;
}

int64_t WorkflowWorlds::MinOutSize(int module_index) const {
  PV_CHECK(module_index >= 0 &&
           module_index < static_cast<int>(out_sets.size()));
  int64_t min_out = kMax;
  for (const auto& [x, outs] : out_sets[static_cast<size_t>(module_index)]) {
    (void)x;
    min_out = std::min(min_out, static_cast<int64_t>(outs.size()));
  }
  return min_out;
}

// ----------------------------------------------------------------------------
// Workflow tables: the per-workflow precomputation shared across enumerations.
// ----------------------------------------------------------------------------

std::shared_ptr<const WorkflowTables> BuildWorkflowTables(
    const Workflow& workflow, const WorkflowTablesOptions& opts) {
  auto t = std::make_shared<WorkflowTables>();
  const ExecControl* control = opts.control;
  if (control != nullptr && control->ExpiredNow()) {
    t->status = control->Check();
    return t;
  }
  t->workflow = &workflow;
  const AttributeCatalog& catalog = *workflow.catalog();
  t->num_attrs = catalog.size();
  const int n = workflow.num_modules();
  t->num_modules = n;

  t->in_attrs.resize(static_cast<size_t>(n));
  t->out_attrs.resize(static_cast<size_t>(n));
  t->in_radices.resize(static_cast<size_t>(n));
  t->out_radices.resize(static_cast<size_t>(n));
  t->in_strides.resize(static_cast<size_t>(n));
  t->out_strides.resize(static_cast<size_t>(n));
  t->dom_size.assign(static_cast<size_t>(n), 1);
  t->range_size.assign(static_cast<size_t>(n), 1);
  t->original_fn.resize(static_cast<size_t>(n));
  t->orig_input_codes.resize(static_cast<size_t>(n));
  t->out_values.resize(static_cast<size_t>(n));
  t->in_values.resize(static_cast<size_t>(n));
  t->all_out_codes.resize(static_cast<size_t>(n));
  // One shared execution plan for the whole build. The cheap per-module
  // metadata (attrs, radices, strides, size guards, budget charges) is
  // computed inline in module order — deterministic trip points — while
  // the two table fills (the plan's function sweep and the output-decode
  // table) are deferred: the task-graph mode runs them as per-module tasks
  // overlapping the streamed scan.
  std::shared_ptr<ExecutionPlan> plan =
      ExecutionSupplier::MakePlanShell(workflow);
  for (int i = 0; i < n; ++i) {
    const size_t si = static_cast<size_t>(i);
    const Module& m = workflow.module(i);
    t->in_attrs[si].assign(m.inputs().begin(), m.inputs().end());
    t->out_attrs[si].assign(m.outputs().begin(), m.outputs().end());
    int64_t dom = 1, range = 1;
    for (AttrId id : m.inputs()) {
      t->in_strides[si].push_back(dom);
      const int r = catalog.DomainSize(id);
      t->in_radices[si].push_back(r);
      dom = SaturatingMul(dom, r);
    }
    for (AttrId id : m.outputs()) {
      t->out_strides[si].push_back(range);
      const int r = catalog.DomainSize(id);
      t->out_radices[si].push_back(r);
      range = SaturatingMul(range, r);
    }
    t->dom_size[si] = dom;
    t->range_size[si] = range;
    if (dom > (1 << 20) || range > std::numeric_limits<int>::max()) {
      t->status = Status::ResourceExhausted(
          "module " + m.name() + " too large for world enumeration");
      return t;
    }
    // out_values, all_out_codes and in_values.
    const int64_t decode_bytes =
        (range * static_cast<int64_t>(t->out_attrs[si].size() + 1) +
         dom * static_cast<int64_t>(t->in_attrs[si].size())) *
        static_cast<int64_t>(sizeof(int32_t));
    if (control != nullptr) {
      if (!control->TryCharge(decode_bytes)) {
        t->status = control->Check();
        return t;
      }
      t->charged_bytes += decode_bytes;
    }
  }
  // The per-attribute layout: value offsets, original-value bitmaps and
  // provenance positions.
  const int64_t num_values = [&] {
    int64_t total = 0;
    for (int a = 0; a < t->num_attrs; ++a) total += catalog.DomainSize(a);
    return total;
  }();
  const int64_t attr_bytes =
      num_values +
      static_cast<int64_t>(t->num_attrs) *
          static_cast<int64_t>(sizeof(int64_t) + sizeof(int32_t)) +
      static_cast<int64_t>(sizeof(int64_t));
  if (control != nullptr) {
    if (!control->TryCharge(attr_bytes)) {
      t->status = control->Check();
      return t;
    }
    t->charged_bytes += attr_bytes;
  }
  t->value_offset.resize(static_cast<size_t>(t->num_attrs) + 1);
  t->value_offset[0] = 0;
  for (int a = 0; a < t->num_attrs; ++a) {
    t->value_offset[static_cast<size_t>(a) + 1] =
        t->value_offset[static_cast<size_t>(a)] + catalog.DomainSize(a);
  }
  t->orig_values.assign(static_cast<size_t>(num_values), 0);
  t->prov_pos.assign(static_cast<size_t>(t->num_attrs), -1);

  // The per-module fills. The execution plan sweeps the module's domain in
  // the same odometer order / little-endian output encoding original_fn
  // needs, so one sweep serves both tables.
  auto fill_fn = [&, plan](int i) {
    const size_t si = static_cast<size_t>(i);
    ExecutionSupplier::TabulateModule(plan.get(), i);
    PV_CHECK(static_cast<int64_t>(plan->modules[si].fn.size()) ==
             t->dom_size[si]);
    t->original_fn[si] = plan->modules[si].fn;
  };
  auto fill_decode = [&](int i) {
    const size_t si = static_cast<size_t>(i);
    const size_t n_out = t->out_attrs[si].size();
    const int64_t range = t->range_size[si];
    t->out_values[si].resize(static_cast<size_t>(range) * n_out);
    for (int64_t c = 0; c < range; ++c) {
      for (size_t j = 0; j < n_out; ++j) {
        t->out_values[si][static_cast<size_t>(c) * n_out + j] =
            static_cast<int32_t>((c / t->out_strides[si][j]) %
                                 t->out_radices[si][j]);
      }
    }
    t->all_out_codes[si].resize(static_cast<size_t>(range));
    std::iota(t->all_out_codes[si].begin(), t->all_out_codes[si].end(), 0);
    const size_t n_in = t->in_attrs[si].size();
    const int64_t dom = t->dom_size[si];
    t->in_values[si].resize(static_cast<size_t>(dom) * n_in);
    for (int64_t d = 0; d < dom; ++d) {
      for (size_t j = 0; j < n_in; ++j) {
        t->in_values[si][static_cast<size_t>(d) * n_in + j] =
            static_cast<int32_t>((d / t->in_strides[si][j]) %
                                 t->in_radices[si][j]);
      }
    }
  };

  for (AttrId id : workflow.initial_input_ids()) {
    t->init_radices.push_back(catalog.DomainSize(id));
  }
  int64_t execs = 1;
  for (int r : t->init_radices) execs = SaturatingMul(execs, r);
  if (execs > opts.max_executions) {
    t->status = Status::ResourceExhausted(
        "initial-input space too large for world enumeration: " +
        std::to_string(execs));
    return t;
  }
  t->num_execs = execs;
  t->prov_ids = workflow.ProvenanceAttrIds();
  for (size_t p = 0; p < t->prov_ids.size(); ++p) {
    t->prov_pos[static_cast<size_t>(t->prov_ids[p])] = static_cast<int32_t>(p);
  }

  // The original run, streamed from the initial-input odometer in
  // chunk-sized blocks of provenance rows into the per-execution arrays
  // (provenance row, per-module input code, initial values) the world
  // walkers replay. Shards own disjoint execution ranges and so disjoint
  // slices of the arrays: the parallel scan needs no synchronization.
  const size_t prov_arity = t->prov_ids.size();
  const std::vector<AttrId>& init_ids = workflow.initial_input_ids();
  const size_t num_init = init_ids.size();
  // The per-execution arrays are the dominant footprint of the build;
  // charge them against the request's budget before allocating so an
  // oversized request trips RESOURCE_EXHAUSTED instead of OOM-ing the
  // daemon. The charge is recorded on the tables and released by their
  // owner once its walks are done.
  const int64_t log_bytes =
      execs * static_cast<int64_t>(
                  (prov_arity + static_cast<size_t>(n) + num_init) *
                  sizeof(int32_t));
  if (control != nullptr) {
    if (!control->TryCharge(log_bytes)) {
      t->status = control->Check();
      return t;
    }
    t->charged_bytes += log_bytes;
  }
  t->orig_rows.resize(static_cast<size_t>(execs) * prov_arity);
  t->orig_in_code.resize(static_cast<size_t>(execs) * static_cast<size_t>(n));
  t->init_values.resize(static_cast<size_t>(execs) * num_init);
  std::vector<int> init_pos;  // initial-input positions in the prov row
  {
    const Schema prov_schema = workflow.ProvenanceSchema();
    for (AttrId id : init_ids) init_pos.push_back(prov_schema.PositionOf(id));
  }

  const int64_t chunk = std::max<int64_t>(1, opts.chunk_executions);
  const int threads = ResolveThreads(opts.num_threads);
  const int shards = static_cast<int>(
      std::min<int64_t>(threads, std::max<int64_t>(1, execs / chunk)));
  auto scan = [&](int64_t begin, int64_t end) {
    ExecutionSupplier supplier(plan, begin, end);
    std::vector<Value> block;
    int64_t e = begin;
    int64_t got;
    while ((got = supplier.NextBlock(&block, chunk)) > 0) {
      if (control != nullptr && control->Expired()) return;
      for (int64_t r = 0; r < got; ++r, ++e) {
        const Value* row = &block[static_cast<size_t>(r) * prov_arity];
        for (int i = 0; i < n; ++i) {
          t->orig_in_code[static_cast<size_t>(e) * static_cast<size_t>(n) +
                          static_cast<size_t>(i)] =
              static_cast<int32_t>(supplier.InputCodeOf(row, i));
        }
        std::copy(row, row + prov_arity,
                  &t->orig_rows[static_cast<size_t>(e) * prov_arity]);
        for (size_t k = 0; k < num_init; ++k) {
          t->init_values[static_cast<size_t>(e) * num_init + k] =
              row[init_pos[k]];
        }
      }
    }
  };
  // Per-module sweeps run as independent tasks, the scan shards depend
  // only on the sweeps (which the streamed supplier reads), and the
  // decode tables overlap the scan. One thread runs the same graph
  // inline.
  TaskGraph graph;
  std::vector<TaskGraph::TaskId> fn_tasks;
  fn_tasks.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const TaskGraph::TaskId fi = graph.Add([&fill_fn, i] { fill_fn(i); });
    fn_tasks.push_back(fi);
    graph.Add([&fill_decode, i] { fill_decode(i); }, {fi});
  }
  for (int s = 0; s < shards; ++s) {
    const auto [begin, end] = TaskRange(execs, shards, s);
    if (begin >= end) break;
    graph.Add([&scan, begin = begin, end = end] { scan(begin, end); },
              fn_tasks);
  }
  const EngineExecutor executor(opts.executor, threads);
  // Without a control the run is always OK (task exceptions rethrow).
  t->status = graph.Run(executor.get(), control);
  if (!t->status.ok()) return t;  // partially-scanned tables are unusable
  // The original-value bitmaps and the distinct original input codes per
  // module, sorted, from the log.
  for (int64_t e = 0; e < execs; ++e) {
    const int32_t* row = &t->orig_rows[static_cast<size_t>(e) * prov_arity];
    for (size_t p = 0; p < prov_arity; ++p) {
      t->orig_values[static_cast<size_t>(
          t->value_offset[static_cast<size_t>(t->prov_ids[p])] + row[p])] = 1;
    }
  }
  for (int i = 0; i < n; ++i) {
    const size_t si = static_cast<size_t>(i);
    std::vector<uint8_t> reached(static_cast<size_t>(t->dom_size[si]), 0);
    for (int64_t e = 0; e < execs; ++e) {
      reached[static_cast<size_t>(
          t->orig_in_code[static_cast<size_t>(e) * static_cast<size_t>(n) +
                          si])] = 1;
    }
    for (size_t d = 0; d < reached.size(); ++d) {
      if (reached[d]) t->orig_input_codes[si].push_back(static_cast<int32_t>(d));
    }
  }
  return t;
}

// ----------------------------------------------------------------------------
// Lazy workflow walk.
//
// One slot per walked (free module, domain point). Modules whose inputs are
// pinned in every world (privacy/feasible_sets.h) always receive their
// original input codes, so their unreached domain points are factored out of
// the walk and their reached slots keep only the fixpoint's candidate codes.
// Domain points of other free modules that the fixpoint proved unreachable
// in every consistent world are factored out too; a branch in which an
// execution still reaches one is cut.
//
// The walk is depth-first over the executions in log order. A slot gets a
// code only when an execution first reaches it, and the walk branches over
// its feasible list there; every other slot stays unassigned. A branch is
// cut as soon as a finished execution's row is outside the target view, or
// the executions left cannot cover the target ids still uncovered. A leaf
// (every execution finished, every target id covered) is consistent for
// every code of every slot it left unassigned, since no execution reads
// them: it stands for the product of their widths in function choices,
// marks a tracked pair on an unassigned slot with its whole feasible list,
// and adds one candidate relation. Full runs therefore give the joint
// odometer's counts, OUT sets and distinct relations exactly.
//
// The walk keeps an explicit frame stack, one frame per assigned slot, so
// its depth is bounded by the slots and never by the execution count.
// Backtracking to a frame uncovers the rows of the executions since it
// that read its slot or a later one, and resumes that frame's execution at
// the module that reached the slot.
//
// Under Γ a plain depth-first walk meets a second code of a slot only
// after exhausting the subtree beneath its first, which can be most of the
// space. So a Γ-directed probe runs first, as one walker: after each
// consistent leaf it backs up to the shallowest slot still short of Γ and
// varies that slot next (the visiting order of limited-discrepancy search,
// Harvey & Ginsberg, IJCAI 1995). The probe skips subtrees, so if it ends
// without the Γ short-circuit firing, the complete walk runs from the
// start, sharded; it keeps the probe's OUT-set marks, since every probe
// leaf is a consistent world, and recounts everything else.
// ----------------------------------------------------------------------------

namespace {

struct WfInstance {
  const WorkflowTables* tables = nullptr;
  const std::vector<int>* topo = nullptr;  // module evaluation order
  std::vector<uint8_t> is_free;            // per module

  // Per walked slot: its feasible output codes, held by the fixpoint (a
  // determined module's lists) or by the tables (a full range).
  std::vector<const int32_t*> slot_codes;
  std::vector<int32_t> slot_len;
  // Free module i's input code d -> walked slot index at
  // slot_of[slot_of_base[i] + d]. -1 marks a factored slot, which no
  // execution can ever query.
  std::vector<int64_t> slot_of_base;
  std::vector<int32_t> slot_of;
  // ∏ |feasible_s| over the walked slots: the pruned space.
  int64_t space = 1;

  // Row -> target id. An execution's candidate row always keeps its
  // determined visible values, so the executions sharing a determined
  // visible prefix form one group, and the target id of a finished row is
  // the group's projection node reached by the row's non-determined
  // visible values (-1: not in the target view). Both are numbered from
  // the original rows' mixed-radix codes (ProjectionIds).
  std::vector<int32_t> group_of_exec;
  ProjectionIds targets;

  // Flattened (free module, original input) pairs whose OUT sets are
  // recorded: the SeenUnion's pairs, in order. input_widths[p] is the
  // feasible-code count of pair p's slot; input_gamma[p] whether the Γ
  // short-circuit waits on it (private modules only).
  struct TrackedInput {
    int module = 0;
    int32_t in_code = 0;
    int32_t slot = 0;
  };
  std::vector<TrackedInput> inputs;
  std::vector<size_t> input_widths;
  std::vector<bool> input_gamma;
  // Per walked slot: the Γ-tracked pair it holds, -1 if none (a slot is
  // one domain point of one module, so it holds at most one pair).
  std::vector<int32_t> gamma_pair_of_slot;
  bool collect_distinct = true;
};

struct WfShardResult {
  int64_t num_function_choices = 0;
  // Sorted-deduplicated candidate relations, rows flattened back to back.
  std::unordered_set<std::vector<int32_t>, TupleVectorHasher>
      distinct_relations;
};

// One assigned slot on the walk's stack.
struct WfFrame {
  int32_t slot = 0;
  int32_t end = 0;   // one past the last feasible index this walk tries
  int64_t exec = 0;  // the execution that first reached the slot
  size_t pos = 0;    // topo position of the module that reached it
};

// RunExec's results other than a slot index.
constexpr int32_t kExecFinished = -1;
constexpr int32_t kExecDeadEnd = -2;  // reached a factored domain point

// Runs execution e from topo position *pos under the partial assignment
// `idx` (-1 = unassigned), writing its attribute values into `vals`. With
// `frame_of`, raises *dep to the largest frame_of[s] over the slots it
// reads. Returns the first unassigned slot it reaches, with *pos at the
// module that reached it; kExecDeadEnd when it reaches a domain point no
// consistent world reaches; else kExecFinished once it has finished.
int32_t RunExec(const WfInstance& inst, const int32_t* idx,
                const int32_t* frame_of, int64_t e, int32_t* vals,
                size_t* pos, int32_t* dep) {
  const WorkflowTables& t = *inst.tables;
  const std::vector<int>& topo = *inst.topo;
  if (*pos == 0) {
    const std::vector<AttrId>& init_ids = t.workflow->initial_input_ids();
    const int32_t* init =
        &t.init_values[static_cast<size_t>(e) * init_ids.size()];
    for (size_t k = 0; k < init_ids.size(); ++k) {
      vals[static_cast<size_t>(init_ids[k])] = init[k];
    }
  }
  for (size_t p = *pos; p < topo.size(); ++p) {
    const size_t mi = static_cast<size_t>(topo[p]);
    int64_t in_code = 0;
    const auto& ins = t.in_attrs[mi];
    for (size_t j = 0; j < ins.size(); ++j) {
      in_code += static_cast<int64_t>(vals[static_cast<size_t>(ins[j])]) *
                 t.in_strides[mi][j];
    }
    int32_t out_code;
    if (!inst.is_free[mi]) {
      out_code = t.original_fn[mi][static_cast<size_t>(in_code)];
    } else {
      const int32_t s =
          inst.slot_of[static_cast<size_t>(inst.slot_of_base[mi] + in_code)];
      if (s < 0) return kExecDeadEnd;
      const int32_t j = idx[s];
      if (j < 0) {
        *pos = p;
        return s;
      }
      if (frame_of != nullptr) *dep = std::max(*dep, frame_of[s]);
      out_code = inst.slot_codes[static_cast<size_t>(s)][j];
    }
    const auto& outs = t.out_attrs[mi];
    const int32_t* out_vals =
        &t.out_values[mi][static_cast<size_t>(out_code) * outs.size()];
    for (size_t j = 0; j < outs.size(); ++j) {
      vals[static_cast<size_t>(outs[j])] = out_vals[j];
    }
  }
  return kExecFinished;
}

// Target id of finished execution e's visible row, -1 if the row is
// outside the target view.
int32_t RowTid(const WfInstance& inst, int64_t e, const int32_t* vals) {
  return inst.targets.Find(inst.group_of_exec[static_cast<size_t>(e)], vals);
}

// Width of the walk's first multi-code branch point. Every slot the walk
// reaches before it is a singleton, so the walk is forced up to there and
// shards can split that point's codes. 1 when the walk reaches none.
int64_t FirstBranchWidth(const WfInstance& inst) {
  const WorkflowTables& t = *inst.tables;
  std::vector<int32_t> idx(inst.slot_len.size(), -1);
  std::vector<int32_t> vals(static_cast<size_t>(t.num_attrs), -1);
  int32_t dep = -1;
  for (int64_t e = 0; e < t.num_execs; ++e) {
    size_t pos = 0;
    int32_t s;
    while ((s = RunExec(inst, idx.data(), nullptr, e, vals.data(), &pos,
                        &dep)) >= 0) {
      if (inst.slot_len[static_cast<size_t>(s)] > 1) {
        return inst.slot_len[static_cast<size_t>(s)];
      }
      idx[static_cast<size_t>(s)] = 0;
    }
    if (s == kExecDeadEnd) break;
  }
  return 1;
}

// Walks every consistent partial assignment, trying only the feasible
// indices [split_begin, split_end) at the first multi-code branch point
// (a shard's share; [0, kMax) walks them all).
//
// With `probe` set this is the Γ-directed probe instead, run alone over the
// whole space: after each consistent leaf it drops every frame deeper than
// the shallowest one whose slot holds a Γ-tracked pair still short of Γ,
// so the backtrack varies that slot next rather than exhausting the
// subtree beneath it. The probe skips subtrees and so is not a complete
// walk, but every leaf it records is a consistent world.
//
// A finished execution remembers dep[e], the deepest frame among the slots
// it read. Only the slots of frames >= k differ when the walk backtracks
// to frame k, and they were all first reached at or after frame k's
// execution, so exactly the executions from there on with dep >= k lose
// their rows; the others stay finished and covered. That holds however
// many frames one backtrack pops, the probe's included.
void WfWalk(const WfInstance& inst, int64_t split_begin, int64_t split_end,
            bool probe, SeenUnion* seen_union, std::atomic<bool>* stop,
            const ExecControl* control, WfShardResult* out) {
  constexpr int32_t kUnfinished = -2;
  const WorkflowTables& t = *inst.tables;
  const int64_t num_execs = t.num_execs;
  const size_t prov_arity = t.prov_ids.size();
  const size_t num_attrs = static_cast<size_t>(t.num_attrs);

  // The walker's int32 state in one buffer, laid out as the walk's memory
  // charge counts it: per slot the assigned index and frame, per
  // execution its attribute values, row id and frame dependency, and per
  // target id its cover count.
  const size_t num_slots = inst.slot_len.size();
  const size_t execs = static_cast<size_t>(num_execs);
  const size_t num_targets = static_cast<size_t>(inst.targets.size());
  std::vector<int32_t> state(2 * num_slots + execs * (num_attrs + 2) +
                             num_targets);
  int32_t* const idx = state.data();
  int32_t* const frame_of = idx + num_slots;
  int32_t* const values = frame_of + num_slots;
  int32_t* const row_tid = values + execs * num_attrs;
  int32_t* const dep = row_tid + execs;
  int32_t* const counts = dep + execs;
  std::fill(idx, counts, -1);
  std::fill(dep, counts, kUnfinished);
  std::fill(counts, counts + num_targets, 0);
  std::vector<WfFrame> frames;
  frames.reserve(num_slots);
  int32_t uncovered = inst.targets.size();
  int64_t finished = 0;  // executions whose rows are covered
  ShardMarks marks(*seen_union);
  bool split_ahead = true;  // the first multi-code branch point not reached
  int64_t free_product = inst.space;  // ∏ widths of the unassigned slots

  // Scratch for distinct-relation capture: rows flattened back to back plus
  // a row-index permutation, reused across leaves.
  std::vector<int32_t> rows_flat;
  std::vector<int32_t> row_order;
  if (inst.collect_distinct) {
    rows_flat.resize(static_cast<size_t>(num_execs) * prov_arity);
    row_order.resize(static_cast<size_t>(num_execs));
  }
  std::vector<int32_t> rel_key;
  auto row_less = [&](int32_t a, int32_t b) {
    const int32_t* ra = &rows_flat[static_cast<size_t>(a) * prov_arity];
    const int32_t* rb = &rows_flat[static_cast<size_t>(b) * prov_arity];
    return std::lexicographical_compare(ra, ra + prov_arity, rb,
                                        rb + prov_arity);
  };
  auto pop_frame = [&] {
    const int32_t slot = frames.back().slot;
    idx[static_cast<size_t>(slot)] = -1;
    free_product *= inst.slot_len[static_cast<size_t>(slot)];
    frames.pop_back();
  };
  // The probe's rule: keep frames up to the shallowest one still short of
  // Γ. After a leaf every Γ-tracked pair on an unassigned slot is marked
  // with its whole feasible list, at least Γ wide, so a short pair sits
  // on a frame unless the short-circuit has fired.
  auto back_up_to_short_frame = [&] {
    for (size_t k = 0; k < frames.size(); ++k) {
      const int32_t p =
          inst.gamma_pair_of_slot[static_cast<size_t>(frames[k].slot)];
      if (p >= 0 && seen_union->Short(static_cast<size_t>(p))) {
        while (frames.size() > k + 1) pop_frame();
        return;
      }
    }
  };
  auto record_leaf = [&] {
    out->num_function_choices += free_product;
    if (inst.collect_distinct) {
      for (int64_t e = 0; e < num_execs; ++e) {
        const int32_t* vals = &values[static_cast<size_t>(e) * num_attrs];
        int32_t* row = &rows_flat[static_cast<size_t>(e) * prov_arity];
        for (size_t p = 0; p < prov_arity; ++p) {
          row[p] = vals[static_cast<size_t>(t.prov_ids[p])];
        }
        row_order[static_cast<size_t>(e)] = static_cast<int32_t>(e);
      }
      std::sort(row_order.begin(), row_order.end(), row_less);
      rel_key.clear();
      for (size_t r = 0; r < row_order.size(); ++r) {
        const int32_t* row =
            &rows_flat[static_cast<size_t>(row_order[r]) * prov_arity];
        if (r > 0) {  // drop duplicate rows (set semantics)
          const int32_t* prev =
              &rows_flat[static_cast<size_t>(row_order[r - 1]) * prov_arity];
          if (std::equal(row, row + prov_arity, prev)) continue;
        }
        rel_key.insert(rel_key.end(), row, row + prov_arity);
      }
      out->distinct_relations.insert(rel_key);
    }
    if (marks.unseen > 0) {
      for (size_t p = 0; p < inst.inputs.size(); ++p) {
        const int32_t j = idx[static_cast<size_t>(inst.inputs[p].slot)];
        if (j >= 0) {
          marks.Mark(p, j, seen_union, stop);
        } else {
          marks.MarkAll(p, seen_union, stop);
        }
      }
    }
  };

  int64_t e = 0;   // the next execution to (re)run
  size_t pos = 0;  // topo position at which execution e resumes
  int32_t e_dep = -1;
  for (;;) {
    // Descend: finish the unfinished executions in order until a row
    // leaves the view, the cover bound fails, or all are finished (a leaf).
    for (;;) {
      while (e < num_execs && dep[static_cast<size_t>(e)] != kUnfinished) {
        ++e;
      }
      if (e == num_execs) {
        record_leaf();
        if (probe) back_up_to_short_frame();
        break;
      }
      int32_t* vals = &values[static_cast<size_t>(e) * num_attrs];
      const int32_t s = RunExec(inst, idx, frame_of, e, vals, &pos, &e_dep);
      if (s >= 0) {
        // First reach of slot s: branch over its feasible list.
        const int32_t width = inst.slot_len[static_cast<size_t>(s)];
        int64_t begin = 0;
        int64_t end = width;
        if (split_ahead && width > 1) {
          split_ahead = false;
          begin = split_begin;
          end = std::min<int64_t>(split_end, width);
        }
        frame_of[static_cast<size_t>(s)] =
            static_cast<int32_t>(frames.size());
        frames.push_back(WfFrame{s, static_cast<int32_t>(end), e, pos});
        idx[static_cast<size_t>(s)] = static_cast<int32_t>(begin);
        free_product /= width;
        continue;
      }
      if (s == kExecDeadEnd) break;
      const int32_t tid = RowTid(inst, e, vals);
      if (tid < 0) break;
      row_tid[static_cast<size_t>(e)] = tid;
      dep[static_cast<size_t>(e)] = e_dep;
      if (counts[static_cast<size_t>(tid)]++ == 0) --uncovered;
      ++finished;
      ++e;
      pos = 0;
      e_dep = -1;
      if (uncovered > num_execs - finished) break;
    }
    // Backtrack to the deepest frame with a code left to try.
    for (;;) {
      if (frames.empty()) return;  // walk exhausted
      if (stop->load(std::memory_order_relaxed)) return;
      if (control != nullptr && control->Expired()) {
        stop->store(true, std::memory_order_relaxed);
        return;
      }
      if (++idx[static_cast<size_t>(frames.back().slot)] <
          frames.back().end) {
        break;
      }
      pop_frame();
    }
    // Unfinish the executions that read the advanced slot or a popped one.
    const WfFrame& f = frames.back();
    const int32_t k = static_cast<int32_t>(frames.size()) - 1;
    for (int64_t x = f.exec; x < num_execs; ++x) {
      int32_t& d = dep[static_cast<size_t>(x)];
      if (d < k) continue;  // unfinished, or reads only frames below k
      if (--counts[static_cast<size_t>(row_tid[static_cast<size_t>(x)])] ==
          0) {
        ++uncovered;
      }
      d = kUnfinished;
      --finished;
    }
    e = f.exec;
    pos = f.pos;
    e_dep = k;
  }
}

// One workflow walk up to its seen marks. `worlds` holds every result
// field but out_sets; EnumerateWorkflowWorlds materializes those from the
// marks, WalkWorkflowWorlds reads the minimum OUT sizes off them.
struct WfRun {
  WorkflowWorlds worlds;
  bool started = false;  // passed the status checks (out_sets are sized)
  bool walked = false;   // the walk ran and the marks are final
  FlatFeasibleSets analysis;  // owns the determined slots' candidate codes
  WfInstance inst;
  // The seen marks, pair p's at seen[seen_offset[p] .. seen_offset[p + 1]).
  std::vector<size_t> seen_offset;
  std::vector<uint8_t> seen;
};

void RunWorkflowWalk(const WorkflowTables& tables, const Bitset64& visible,
                     const std::vector<int>& fixed_modules,
                     const WorkflowEnumerationOptions& opts, WfRun* run) {
  WorkflowWorlds& result = run->worlds;
  const ExecControl* control = opts.control;
  if (!tables.status.ok()) {
    // Tables from an aborted service-mode build carry their trip status;
    // never walk them.
    result.status = tables.status;
    return;
  }
  if (control != nullptr && control->ExpiredNow()) {
    result.status = control->Check();
    return;
  }
  run->started = true;
  const Workflow& workflow = *tables.workflow;
  const int n = tables.num_modules;

  WfInstance& inst = run->inst;
  inst.tables = &tables;
  inst.topo = &workflow.topo_order();
  inst.collect_distinct = opts.collect_distinct_relations;
  inst.is_free.assign(static_cast<size_t>(n), 1);
  for (int i : fixed_modules) {
    PV_CHECK(i >= 0 && i < n);
    inst.is_free[static_cast<size_t>(i)] = 0;
  }

  result.naive_candidates = 1;
  for (int i = 0; i < n; ++i) {
    if (!inst.is_free[static_cast<size_t>(i)]) continue;
    result.naive_candidates = SaturatingMul(
        result.naive_candidates,
        SaturatingPow(tables.range_size[static_cast<size_t>(i)],
                      static_cast<int>(tables.dom_size[static_cast<size_t>(i)])));
  }

  // The feasible-set fixpoint: attributes pinned to their original values
  // in every world, modules whose inputs are all pinned, per-slot candidate
  // lists and the domain points no consistent world reaches.
  RunFeasibleSetFixpoint(tables, visible, fixed_modules, &run->analysis);
  const FlatFeasibleSets& analysis = run->analysis;

  // Target view: the visible projections of the original rows, numbered
  // per determined-visible prefix group (see WfInstance).
  {
    std::vector<AttrId> det_vis;  // in provenance order
    std::vector<AttrId> nd_vis;
    det_vis.reserve(tables.prov_ids.size());
    nd_vis.reserve(tables.prov_ids.size());
    for (AttrId id : tables.prov_ids) {
      if (id >= visible.size() || !visible.Test(id)) continue;
      (analysis.pinned[static_cast<size_t>(id)] ? det_vis : nd_vis)
          .push_back(id);
    }
    // The groups first, then the target ids from them, on one set of
    // level tables.
    inst.targets.Build(tables, det_vis, nullptr, 0, &inst.group_of_exec);
    const int32_t num_groups = inst.targets.size();
    std::vector<int32_t> tid_of_exec;
    inst.targets.Build(tables, nd_vis, inst.group_of_exec.data(), num_groups,
                       &tid_of_exec);
  }
  if (control != nullptr && control->Expired()) {
    result.status = control->Check();
    return;
  }

  // Build the walked slots. Non-determined modules keep the full output
  // range on every slot the fixpoint left reachable (their reachedness
  // varies across worlds, so no code can be excluded soundly); determined
  // modules keep the fixpoint's candidate lists on their reached slots.
  // Domain points no consistent world reaches are factored out: they
  // multiply the function choices by |Range| each, and a branch in which
  // an execution reaches one is cut.
  int64_t factored_multiplier = 1;
  inst.slot_of_base.assign(static_cast<size_t>(n), 0);
  {
    size_t points = 0;
    size_t tracked = 0;
    for (int i = 0; i < n; ++i) {
      const size_t si = static_cast<size_t>(i);
      if (!inst.is_free[si]) continue;
      points += static_cast<size_t>(tables.dom_size[si]);
      tracked += tables.orig_input_codes[si].size();
    }
    inst.slot_of.reserve(points);
    inst.slot_codes.reserve(points);
    inst.slot_len.reserve(points);
    inst.inputs.reserve(tracked);
    inst.input_widths.reserve(tracked);
    inst.input_gamma.reserve(tracked);
  }
  for (int i = 0; i < n; ++i) {
    const size_t si = static_cast<size_t>(i);
    if (!inst.is_free[si]) continue;
    inst.slot_of_base[si] = static_cast<int64_t>(inst.slot_of.size());
    inst.slot_of.resize(inst.slot_of.size() +
                            static_cast<size_t>(tables.dom_size[si]),
                        -1);
    int32_t* slot_of =
        &inst.slot_of[static_cast<size_t>(inst.slot_of_base[si])];
    auto add_slot = [&](int32_t d, const int32_t* codes, int32_t len) {
      slot_of[d] = static_cast<int32_t>(inst.slot_codes.size());
      inst.slot_codes.push_back(codes);
      inst.slot_len.push_back(len);
      inst.space = SaturatingMul(inst.space, len);
    };
    int64_t walked = 0;
    if (analysis.determined[si]) {
      // The reached domain points, with the fixpoint's candidate lists.
      const FlatFeasibleSets::SlotLists& lists = analysis.det_lists[si];
      const std::vector<int32_t>& points = tables.orig_input_codes[si];
      PV_CHECK(lists.ends.size() == points.size());
      int32_t begin = 0;
      for (size_t k = 0; k < points.size(); ++k) {
        add_slot(points[k], lists.codes.data() + begin, lists.ends[k] - begin);
        begin = lists.ends[k];
      }
      walked = static_cast<int64_t>(points.size());
    } else {
      // The fixpoint's feasible domain points, at full range.
      const uint8_t* in_ok =
          &analysis.in_ok[static_cast<size_t>(analysis.dom_offset[si])];
      const int32_t range = static_cast<int32_t>(tables.range_size[si]);
      for (int32_t d = 0; d < tables.dom_size[si]; ++d) {
        if (!in_ok[d]) continue;
        add_slot(d, tables.all_out_codes[si].data(), range);
        ++walked;
      }
    }
    factored_multiplier = SaturatingMul(
        factored_multiplier,
        SaturatingPow(tables.range_size[si],
                      static_cast<int>(tables.dom_size[si] - walked)));
  }
  result.pruned_candidates = inst.space;
  if (result.pruned_candidates > opts.max_candidates) {
    result.status = Status::ResourceExhausted(
        "workflow world space too large after pruning: " +
        std::to_string(result.pruned_candidates));
    return;
  }
  if (result.pruned_candidates == 0) return;  // some slot infeasible

  // OUT-set marks: one pair per (free module, original input code). The
  // Γ short-circuit tracks every free private module (fixed modules have
  // singleton OUT sets and would never reach Γ > 1). The Γ-directed probe
  // pays off only if the short-circuit can fire, which needs every tracked
  // pair's feasible list to be at least Γ wide.
  int64_t tracked_pairs = 0;
  bool probe = opts.gamma > 0;
  const size_t num_slots = inst.slot_len.size();
  inst.gamma_pair_of_slot.assign(num_slots, -1);
  for (int i = 0; i < n; ++i) {
    const size_t si = static_cast<size_t>(i);
    if (!inst.is_free[si]) continue;
    const bool gamma_tracked = !workflow.module(i).is_public();
    for (int32_t d : tables.orig_input_codes[si]) {
      const int32_t s =
          inst.slot_of[static_cast<size_t>(inst.slot_of_base[si] + d)];
      PV_CHECK(s >= 0);
      const size_t width =
          static_cast<size_t>(inst.slot_len[static_cast<size_t>(s)]);
      if (gamma_tracked) {
        inst.gamma_pair_of_slot[static_cast<size_t>(s)] =
            static_cast<int32_t>(inst.inputs.size());
        probe = probe && static_cast<int64_t>(width) >= opts.gamma;
        ++tracked_pairs;
      }
      inst.inputs.push_back(WfInstance::TrackedInput{i, d, s});
      inst.input_widths.push_back(width);
      inst.input_gamma.push_back(gamma_tracked);
    }
  }
  if (opts.gamma > 0 && tracked_pairs == 0) {
    // No tracked free-module input to protect: Γ is vacuously satisfied.
    result.early_stopped = true;
    return;
  }

  // The complete walk shards over the codes of its first multi-code branch
  // point.
  int threads = ResolveThreads(opts.num_threads);
  if (result.pruned_candidates <= opts.min_parallel_candidates) threads = 1;
  const int64_t branch_width = threads > 1 ? FirstBranchWidth(inst) : 1;
  const int shards = static_cast<int>(std::min<int64_t>(threads, branch_width));

  SeenUnion seen_union(inst.input_widths, inst.input_gamma, opts.gamma);
  std::atomic<bool> stop(false);
  std::vector<WfShardResult> partials(static_cast<size_t>(shards));
  // Each shard keeps per-execution values, row ids and frame dependencies,
  // the target counts, the per-slot assignment and frame index, and the
  // frame stack, plus the distinct-relation scratch when it is collected.
  // Charge the whole fleet against the request budget up front (released
  // after the walk — the charge covers peak transient footprint, not
  // retained state). The probe is one walker that finishes before the
  // fleet starts, so the fleet's charge covers it.
  const int64_t execs = tables.num_execs;
  const size_t prov_arity = tables.prov_ids.size();
  int64_t shard_bytes =
      (execs * (tables.num_attrs + 2) + inst.targets.size() +
       2 * static_cast<int64_t>(num_slots)) *
          static_cast<int64_t>(sizeof(int32_t)) +
      static_cast<int64_t>(num_slots) * static_cast<int64_t>(sizeof(WfFrame));
  if (inst.collect_distinct) {
    shard_bytes += execs * static_cast<int64_t>(prov_arity + 1) *
                   static_cast<int64_t>(sizeof(int32_t));
  }
  const int64_t walk_bytes = shards * shard_bytes;
  if (control != nullptr && !control->TryCharge(walk_bytes)) {
    result.status = control->Check();
    return;
  }
  // Under Γ the probe goes first, on the calling thread. If it ends
  // without the short-circuit firing, the complete walk starts over: the
  // probe's counts and relations are dropped, while its marks stay in the
  // seen union (each came from a consistent world).
  if (probe) {
    WfWalk(inst, 0, kMax, /*probe=*/true, &seen_union, &stop, control,
           &partials[0]);
    if (!stop.load()) partials[0] = WfShardResult{};
  }
  if (!stop.load()) {
    RunRanges(opts.executor, branch_width, shards,
              [&](int shard, int64_t begin, int64_t end) {
                // One shard tries every code of the branch point.
                WfWalk(inst, begin, shards == 1 ? kMax : end,
                       /*probe=*/false, &seen_union, &stop, control,
                       &partials[static_cast<size_t>(shard)]);
              });
  }
  if (control != nullptr) {
    control->Release(walk_bytes);
    result.status = control->Check();
  }
  result.early_stopped = stop.load();
  std::unordered_set<std::vector<int32_t>, TupleVectorHasher> distinct;
  for (WfShardResult& p : partials) {
    result.num_function_choices += p.num_function_choices;
    if (opts.collect_distinct_relations) {
      distinct.merge(std::move(p.distinct_relations));
    }
  }
  result.num_distinct_relations = static_cast<int64_t>(distinct.size());
  result.num_function_choices =
      SaturatingMul(result.num_function_choices, factored_multiplier);
  run->seen_offset = std::move(seen_union.offset);
  run->seen = std::move(seen_union.seen);
  run->walked = true;
}

// Whether a walked run's fixed modules keep their original function on a
// consistent world: some world was counted, or the short-circuit fired.
bool FixedOutSetsRecorded(const WfRun& run) {
  return run.worlds.num_function_choices > 0 || run.worlds.early_stopped;
}

}  // namespace

WorkflowWorlds EnumerateWorkflowWorlds(const WorkflowTables& tables,
                                       const Bitset64& visible,
                                       const std::vector<int>& fixed_modules,
                                       const WorkflowEnumerationOptions& opts) {
  WfRun run;
  RunWorkflowWalk(tables, visible, fixed_modules, opts, &run);
  WorkflowWorlds& result = run.worlds;
  if (run.started) {
    result.out_sets.resize(static_cast<size_t>(tables.num_modules));
  }
  if (!run.walked) return std::move(result);
  // Materialize OUT sets: free modules from the union of seen marks, fixed
  // modules keep their original function on every consistent world.
  const WfInstance& inst = run.inst;
  for (size_t p = 0; p < inst.inputs.size(); ++p) {
    const auto& ti = inst.inputs[p];
    const size_t si = static_cast<size_t>(ti.module);
    const int32_t* codes = inst.slot_codes[static_cast<size_t>(ti.slot)];
    const Tuple x = DecodeMixedRadix(ti.in_code, tables.in_radices[si]);
    for (size_t j = 0; j < inst.input_widths[p]; ++j) {
      if (!run.seen[run.seen_offset[p] + j]) continue;
      result.out_sets[si][x].insert(
          DecodeMixedRadix(codes[j], tables.out_radices[si]));
    }
  }
  if (FixedOutSetsRecorded(run)) {
    for (int i = 0; i < tables.num_modules; ++i) {
      const size_t si = static_cast<size_t>(i);
      if (inst.is_free[si]) continue;
      for (int32_t d : tables.orig_input_codes[si]) {
        result.out_sets[si][DecodeMixedRadix(d, tables.in_radices[si])]
            .insert(DecodeMixedRadix(
                tables.original_fn[si][static_cast<size_t>(d)],
                tables.out_radices[si]));
      }
    }
  }
  return std::move(result);
}

WorkflowWorlds WalkWorkflowWorlds(const WorkflowTables& tables,
                                  const Bitset64& visible,
                                  const std::vector<int>& fixed_modules,
                                  const WorkflowEnumerationOptions& opts,
                                  std::vector<int64_t>* min_out_sizes) {
  WfRun run;
  RunWorkflowWalk(tables, visible, fixed_modules, opts, &run);
  min_out_sizes->assign(static_cast<size_t>(tables.num_modules), kMax);
  if (!run.walked) return std::move(run.worlds);
  // A pair's OUT set is its seen marks; a pair with none has no OUT-set
  // entry, as in the materialized maps.
  const WfInstance& inst = run.inst;
  for (size_t p = 0; p < inst.inputs.size(); ++p) {
    const auto first = run.seen.begin();
    const int64_t size =
        std::count(first + static_cast<int64_t>(run.seen_offset[p]),
                   first + static_cast<int64_t>(run.seen_offset[p + 1]),
                   uint8_t{1});
    int64_t& min_out =
        (*min_out_sizes)[static_cast<size_t>(inst.inputs[p].module)];
    if (size > 0) min_out = std::min(min_out, size);
  }
  if (FixedOutSetsRecorded(run)) {
    for (int i = 0; i < tables.num_modules; ++i) {
      const size_t si = static_cast<size_t>(i);
      if (!inst.is_free[si] && !tables.orig_input_codes[si].empty()) {
        (*min_out_sizes)[si] = 1;
      }
    }
  }
  return std::move(run.worlds);
}

WorkflowWorlds EnumerateWorkflowWorlds(const Workflow& workflow,
                                       const Bitset64& visible,
                                       const std::vector<int>& fixed_modules,
                                       const WorkflowEnumerationOptions& opts) {
  WorkflowTablesOptions topts;
  topts.control = opts.control;  // the build shares the request's deadline
  const std::shared_ptr<const WorkflowTables> tables =
      BuildWorkflowTables(workflow, topts);
  WorkflowWorlds worlds =
      EnumerateWorkflowWorlds(*tables, visible, fixed_modules, opts);
  if (opts.control != nullptr) opts.control->Release(tables->charged_bytes);
  return worlds;
}

WorkflowWorlds EnumerateWorkflowWorldsNaive(const Workflow& workflow,
                                            const Bitset64& visible,
                                            const std::vector<int>& fixed_modules,
                                            int64_t max_candidates) {
  WorkflowWorlds result;
  const int n = workflow.num_modules();
  result.out_sets.resize(static_cast<size_t>(n));
  const AttributeCatalog& catalog = *workflow.catalog();

  std::vector<bool> fixed(static_cast<size_t>(n), false);
  for (int i : fixed_modules) {
    PV_CHECK(i >= 0 && i < n);
    fixed[static_cast<size_t>(i)] = true;
  }

  // Per-module input/output radices, domain sizes and original tables.
  std::vector<std::vector<int>> in_radices(static_cast<size_t>(n));
  std::vector<std::vector<int>> out_radices(static_cast<size_t>(n));
  std::vector<int64_t> dom_size(static_cast<size_t>(n));
  std::vector<int64_t> range_size(static_cast<size_t>(n));
  // original_fn[i][input_code] = output_code.
  std::vector<std::vector<int>> original_fn(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const Module& m = workflow.module(i);
    for (AttrId id : m.inputs()) {
      in_radices[static_cast<size_t>(i)].push_back(catalog.DomainSize(id));
    }
    for (AttrId id : m.outputs()) {
      out_radices[static_cast<size_t>(i)].push_back(catalog.DomainSize(id));
    }
    dom_size[static_cast<size_t>(i)] = 1;
    for (int r : in_radices[static_cast<size_t>(i)]) {
      dom_size[static_cast<size_t>(i)] =
          SaturatingMul(dom_size[static_cast<size_t>(i)], r);
    }
    range_size[static_cast<size_t>(i)] = 1;
    for (int r : out_radices[static_cast<size_t>(i)]) {
      range_size[static_cast<size_t>(i)] =
          SaturatingMul(range_size[static_cast<size_t>(i)], r);
    }
    PV_CHECK_MSG(dom_size[static_cast<size_t>(i)] <= (1 << 20) &&
                     range_size[static_cast<size_t>(i)] <=
                         std::numeric_limits<int>::max(),
                 "module " << m.name() << " too large for world enumeration");
    original_fn[static_cast<size_t>(i)].resize(
        static_cast<size_t>(dom_size[static_cast<size_t>(i)]));
    MixedRadixCounter dom_counter(in_radices[static_cast<size_t>(i)]);
    int64_t code = 0;
    do {
      Tuple out = m.Eval(dom_counter.values());
      original_fn[static_cast<size_t>(i)][static_cast<size_t>(code)] =
          static_cast<int>(
              EncodeMixedRadix(out, out_radices[static_cast<size_t>(i)]));
      ++code;
    } while (dom_counter.Advance());
  }

  // Joint candidate space: one slot per (free module, domain point).
  std::vector<int> slots;
  // slot_owner[s] = module index; slot_input[s] = domain code.
  std::vector<int> slot_owner, slot_input;
  int64_t joint = 1;
  for (int i = 0; i < n; ++i) {
    if (fixed[static_cast<size_t>(i)]) continue;
    for (int64_t d = 0; d < dom_size[static_cast<size_t>(i)]; ++d) {
      slots.push_back(static_cast<int>(range_size[static_cast<size_t>(i)]));
      slot_owner.push_back(i);
      slot_input.push_back(static_cast<int>(d));
      joint = SaturatingMul(joint, range_size[static_cast<size_t>(i)]);
    }
  }
  PV_CHECK_MSG(joint <= max_candidates,
               "workflow world space too large: " << joint);
  result.naive_candidates = joint;
  result.pruned_candidates = joint;

  // slot_of[i][d] = slot index for free module i, domain code d.
  std::vector<std::vector<int>> slot_of(static_cast<size_t>(n));
  for (size_t s = 0; s < slot_owner.size(); ++s) {
    auto& v = slot_of[static_cast<size_t>(slot_owner[s])];
    if (v.empty()) {
      v.resize(static_cast<size_t>(
          dom_size[static_cast<size_t>(slot_owner[s])]));
    }
    v[static_cast<size_t>(slot_input[s])] = static_cast<int>(s);
  }

  // Original provenance relation, target visible projection, and the set of
  // original inputs per module (the x's whose OUT sets Definition 5 tracks).
  Relation prov = workflow.ProvenanceRelation();
  std::vector<AttrId> prov_ids = workflow.ProvenanceAttrIds();
  std::vector<int> visible_pos;  // positions of visible attrs in prov rows
  for (size_t p = 0; p < prov_ids.size(); ++p) {
    if (prov_ids[p] < visible.size() && visible.Test(prov_ids[p])) {
      visible_pos.push_back(static_cast<int>(p));
    }
  }
  auto project_visible = [&](const Tuple& row) {
    Tuple v;
    v.reserve(visible_pos.size());
    for (int p : visible_pos) v.push_back(row[static_cast<size_t>(p)]);
    return v;
  };
  std::set<Tuple> target;
  for (const Tuple& row : prov.rows()) target.insert(project_visible(row));

  std::vector<std::set<Tuple>> original_inputs(static_cast<size_t>(n));
  for (const Tuple& row : prov.rows()) {
    for (int i = 0; i < n; ++i) {
      original_inputs[static_cast<size_t>(i)].insert(
          prov.ProjectRow(row, workflow.module(i).inputs()));
    }
  }

  // Initial inputs of the original relation (all combinations — the
  // provenance relation above is total).
  std::vector<int> init_radices;
  for (AttrId id : workflow.initial_input_ids()) {
    init_radices.push_back(catalog.DomainSize(id));
  }

  // Attribute id -> position in the provenance row.
  std::vector<int> pos_of_attr(static_cast<size_t>(catalog.size()), -1);
  for (size_t p = 0; p < prov_ids.size(); ++p) {
    pos_of_attr[static_cast<size_t>(prov_ids[p])] = static_cast<int>(p);
  }

  std::set<std::vector<Tuple>> distinct_relations;

  MixedRadixCounter fn_counter(slots);
  do {
    // Execute the workflow under the current joint function choice on every
    // initial input; build the candidate relation.
    std::vector<Tuple> candidate_rows;
    MixedRadixCounter init_counter(init_radices);
    do {
      std::vector<Value> values(static_cast<size_t>(catalog.size()), -1);
      const auto& init_ids = workflow.initial_input_ids();
      for (size_t i = 0; i < init_ids.size(); ++i) {
        values[static_cast<size_t>(init_ids[i])] = init_counter.values()[i];
      }
      for (int mi : workflow.topo_order()) {
        const Module& m = workflow.module(mi);
        Tuple in;
        in.reserve(m.inputs().size());
        for (AttrId id : m.inputs()) in.push_back(values[static_cast<size_t>(id)]);
        int64_t in_code =
            EncodeMixedRadix(in, in_radices[static_cast<size_t>(mi)]);
        int out_code;
        if (fixed[static_cast<size_t>(mi)]) {
          out_code =
              original_fn[static_cast<size_t>(mi)][static_cast<size_t>(in_code)];
        } else {
          int slot = slot_of[static_cast<size_t>(mi)]
                            [static_cast<size_t>(in_code)];
          out_code = fn_counter.values()[static_cast<size_t>(slot)];
        }
        Tuple out = DecodeMixedRadix(out_code,
                                     out_radices[static_cast<size_t>(mi)]);
        for (size_t oi = 0; oi < m.outputs().size(); ++oi) {
          values[static_cast<size_t>(m.outputs()[oi])] = out[oi];
        }
      }
      Tuple row;
      row.reserve(prov_ids.size());
      for (AttrId id : prov_ids) row.push_back(values[static_cast<size_t>(id)]);
      candidate_rows.push_back(std::move(row));
    } while (init_counter.Advance());

    std::set<Tuple> projected;
    for (const Tuple& row : candidate_rows) projected.insert(project_visible(row));
    if (projected != target) continue;

    ++result.num_function_choices;
    std::sort(candidate_rows.begin(), candidate_rows.end());
    candidate_rows.erase(
        std::unique(candidate_rows.begin(), candidate_rows.end()),
        candidate_rows.end());
    distinct_relations.insert(candidate_rows);

    // Record OUT sets: the world asserts g_i(x) for every original input x.
    for (int i = 0; i < n; ++i) {
      for (const Tuple& x : original_inputs[static_cast<size_t>(i)]) {
        int64_t in_code =
            EncodeMixedRadix(x, in_radices[static_cast<size_t>(i)]);
        int out_code;
        if (fixed[static_cast<size_t>(i)]) {
          out_code =
              original_fn[static_cast<size_t>(i)][static_cast<size_t>(in_code)];
        } else {
          int slot =
              slot_of[static_cast<size_t>(i)][static_cast<size_t>(in_code)];
          out_code = fn_counter.values()[static_cast<size_t>(slot)];
        }
        result.out_sets[static_cast<size_t>(i)][x].insert(
            DecodeMixedRadix(out_code, out_radices[static_cast<size_t>(i)]));
      }
    }
  } while (fn_counter.Advance());

  result.num_distinct_relations =
      static_cast<int64_t>(distinct_relations.size());
  return result;
}

}  // namespace provview
