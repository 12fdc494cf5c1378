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
// shard slot 0's feasible codes this way; each shard writes only its own
// partial, merged by the caller. A single shard is a plain call: batch
// ground truth runs one sequential walk per request, and a graph per walk
// would be pure overhead there.
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
// so a single mutex is fine.
struct SeenUnion {
  // widths[p] = feasible codes of pair p. With gamma_target > 0 the
  // short-circuit waits on every pair p with gamma_tracked[p].
  SeenUnion(const std::vector<size_t>& widths,
            const std::vector<bool>& gamma_tracked, int64_t gamma_target) {
    seen.reserve(widths.size());
    for (size_t w : widths) seen.emplace_back(w, 0);
    if (gamma_target > 0) {
      remaining.assign(widths.size(), 0);
      for (size_t p = 0; p < widths.size(); ++p) {
        if (!gamma_tracked[p]) continue;
        remaining[p] = gamma_target;
        ++pairs_below;
      }
    }
  }

  // Records (pair, j); when every Γ-tracked pair's distinct count reaches
  // the target, flips `stop`.
  void Mark(size_t pair, int32_t j, std::atomic<bool>* stop) {
    std::lock_guard<std::mutex> lock(mu);
    uint8_t& s = seen[pair][static_cast<size_t>(j)];
    if (s) return;
    s = 1;
    if (!remaining.empty() && remaining[pair] > 0 &&
        --remaining[pair] == 0 && --pairs_below == 0) {
      stop->store(true, std::memory_order_relaxed);
    }
  }

  std::mutex mu;
  std::vector<std::vector<uint8_t>> seen;
  std::vector<int64_t> remaining;  // per pair: marks left to reach Γ
  int64_t pairs_below = 0;         // Γ-tracked pairs still short
};

// Shard-local first-seen flags over the union's pairs: spare the union's
// lock for pairs this shard already reported. Once every pair is seen,
// `unseen` is 0 and the walks skip the marking loop entirely.
struct ShardMarks {
  explicit ShardMarks(const std::vector<size_t>& widths) {
    seen.reserve(widths.size());
    for (size_t w : widths) {
      seen.emplace_back(w, 0);
      unseen += static_cast<int64_t>(w);
    }
  }

  void Mark(size_t pair, int32_t j, SeenUnion* seen_union,
            std::atomic<bool>* stop) {
    uint8_t& s = seen[pair][static_cast<size_t>(j)];
    if (s) return;
    s = 1;
    --unseen;
    seen_union->Mark(pair, j, stop);
  }

  std::vector<std::vector<uint8_t>> seen;
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
void WalkShard(const PrunedInstance& inst, const std::vector<size_t>& widths,
               int64_t begin, int64_t end, SeenUnion* seen_union,
               std::atomic<bool>* stop, const ExecControl* control,
               ShardResult* out) {
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

  ShardMarks marks(widths);
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
              WalkShard(inst, widths, begin, end, &seen_union, &stop, control,
                        &partials[static_cast<size_t>(shard)]);
            });
  for (const ShardResult& p : partials) result.num_worlds += p.num_worlds;
  result.early_stopped = stop.load();
  if (control != nullptr) result.status = control->Check();

  // Materialize OUT sets from the union of seen (slot, code) pairs.
  for (int i = 0; i < n; ++i) {
    const Tuple& x = input_interner.TupleOf(i);
    const auto& seen = seen_union.seen[static_cast<size_t>(i)];
    for (size_t j = 0; j < seen.size(); ++j) {
      if (!seen[j]) continue;
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
    const size_t n_out = t->out_attrs[si].size();
    if (control != nullptr &&
        !control->TryCharge(range * static_cast<int64_t>(n_out) *
                            static_cast<int64_t>(sizeof(int32_t)))) {
      t->status = control->Check();
      return t;
    }
  }
  // The two per-module fills. The execution plan sweeps the module's
  // domain in the same odometer order / little-endian output encoding
  // original_fn needs, so one sweep serves both tables.
  auto fill_fn = [&, plan](int i) {
    const size_t si = static_cast<size_t>(i);
    ExecutionSupplier::TabulateModule(plan.get(), i);
    PV_CHECK(static_cast<int64_t>(plan->modules[si].fn.size()) ==
             t->dom_size[si]);
    t->original_fn[si] = plan->modules[si].fn;
  };
  auto fill_out_values = [&](int i) {
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
  // daemon. The charge lives as long as the tables (request scope).
  if (control != nullptr &&
      !control->TryCharge(
          execs * static_cast<int64_t>(
                      (prov_arity + static_cast<size_t>(n) + num_init) *
                      sizeof(int32_t)))) {
    t->status = control->Check();
    return t;
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
  // output-decode tables overlap the scan. One thread runs the same graph
  // inline.
  TaskGraph graph;
  std::vector<TaskGraph::TaskId> fn_tasks;
  fn_tasks.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const TaskGraph::TaskId fi = graph.Add([&fill_fn, i] { fill_fn(i); });
    fn_tasks.push_back(fi);
    graph.Add([&fill_out_values, i] { fill_out_values(i); }, {fi});
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
  // The distinct original input codes per module, sorted, from the log.
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
// Pruned incremental workflow engine.
//
// One walked slot per (free module, reachable domain point). Modules whose
// inputs are determined in every world (fed by initial inputs through fixed
// modules only) always receive their original input codes, so their
// unreached slots are factored out of the walk (every value is consistent
// whenever the rest is) and their reached slots are pruned to the output
// codes whose determined-visible row fragment occurs in the target view.
// Executions are re-run incrementally: an odometer step re-executes only the
// executions whose trace crosses a changed slot, from the changed module
// onward, while a count-per-target-id multiset plus an invalid-row counter
// give an O(1) consistency test per step.
// ----------------------------------------------------------------------------

namespace {

struct WfInstance {
  const WorkflowTables* tables = nullptr;
  int num_free = 0;
  std::vector<int> free_modules;  // module index per free order
  std::vector<int> free_index;    // module -> free order, -1 if fixed
  std::vector<int> topo;          // module evaluation order
  std::vector<int> topo_pos;      // module -> position in topo

  struct Slot {
    int module = 0;
    int32_t in_code = 0;
    const std::vector<int32_t>* codes = nullptr;  // feasible output codes
  };
  std::vector<Slot> slots;
  // Per module (free only): input code -> walked slot index. -1 marks a
  // factored slot, which no execution can ever query.
  std::vector<std::vector<int32_t>> slot_of;

  std::vector<int> visible_pos;  // visible positions in the prov row
  const TupleInterner* target = nullptr;

  // Fast row -> target-id lookup. An execution's candidate row always keeps
  // its determined visible values, so its target id is a function of the
  // non-determined visible fragment alone. Executions sharing a determined
  // prefix share one flat table indexed by the encoded fragment; -1 marks
  // "not in the target". Falls back to interner lookups (use_nd = false)
  // when the fragment space is too large to materialize.
  bool use_nd = false;
  std::vector<AttrId> nd_attr_ids;  // visible non-determined prov attrs
  std::vector<int64_t> nd_strides;
  std::vector<int32_t> group_of_exec;
  std::vector<std::vector<int32_t>> tid_tables;  // per group, nd-space wide

  // Hot-loop structure-of-arrays mirrors, filled by FinalizeSlots().
  std::vector<const int32_t*> slot_codes;  // raw feasible-code arrays
  std::vector<int32_t> slot_len;
  std::vector<int32_t> slot_in_code;
  std::vector<int> slot_fi;    // free index of the owning module
  std::vector<int> slot_topo;  // topo position of the owning module
  int64_t nd_space = 1;
  std::vector<int32_t> tid_flat;        // concatenated tid tables
  std::vector<int64_t> exec_tid_base;   // per exec: offset into tid_flat

  void FinalizeSlots() {
    for (const Slot& s : slots) {
      slot_codes.push_back(s.codes->data());
      slot_len.push_back(static_cast<int32_t>(s.codes->size()));
      slot_in_code.push_back(s.in_code);
      slot_fi.push_back(free_index[static_cast<size_t>(s.module)]);
      slot_topo.push_back(topo_pos[static_cast<size_t>(s.module)]);
    }
    if (use_nd) {
      tid_flat.reserve(tid_tables.size() * static_cast<size_t>(nd_space));
      for (const auto& table : tid_tables) {
        tid_flat.insert(tid_flat.end(), table.begin(), table.end());
      }
      exec_tid_base.reserve(group_of_exec.size());
      for (int32_t g : group_of_exec) {
        exec_tid_base.push_back(static_cast<int64_t>(g) * nd_space);
      }
    }
  }

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
  bool collect_distinct = true;
};

struct WfShardResult {
  int64_t num_function_choices = 0;
  // Sorted-deduplicated candidate relations, rows flattened back to back.
  std::unordered_set<std::vector<int32_t>, TupleVectorHasher>
      distinct_relations;
};

// Walks the sub-space where slot 0's feasible index runs over [begin, end)
// and every other slot runs over its full feasible list (slot 0 is the
// most-significant digit, so shards are contiguous ranges of the walk).
void WfWalkShard(const WfInstance& inst, int64_t begin, int64_t end,
                 SeenUnion* seen_union, std::atomic<bool>* stop,
                 const ExecControl* control, WfShardResult* out) {
  const WorkflowTables& t = *inst.tables;
  const int m = static_cast<int>(inst.slots.size());
  const int64_t num_execs = t.num_execs;
  const size_t prov_arity = t.prov_ids.size();
  const size_t num_attrs = static_cast<size_t>(t.num_attrs);
  const size_t trace_width = static_cast<size_t>(std::max(inst.num_free, 1));

  std::vector<int32_t> idx(static_cast<size_t>(std::max(m, 1)), 0);
  if (m > 0) idx[0] = static_cast<int32_t>(begin);

  // Per-execution state: attribute values, per-free-module input codes, and
  // the interned target id of the visible row projection (-1 = not in the
  // target, i.e. the row alone disproves consistency).
  std::vector<int32_t> values(static_cast<size_t>(num_execs) * num_attrs, -1);
  std::vector<int32_t> trace(static_cast<size_t>(num_execs) * trace_width, -1);
  std::vector<int32_t> row_tid(static_cast<size_t>(num_execs), -1);
  std::vector<int32_t> counts(static_cast<size_t>(inst.target->size()), 0);
  int32_t uncovered = inst.target->size();
  int64_t invalid = 0;

  auto cover = [&](int32_t tid) {
    if (tid < 0) {
      ++invalid;
    } else if (counts[static_cast<size_t>(tid)]++ == 0) {
      --uncovered;
    }
  };
  auto uncover = [&](int32_t tid) {
    if (tid < 0) {
      --invalid;
    } else if (--counts[static_cast<size_t>(tid)] == 0) {
      ++uncovered;
    }
  };

  Tuple vis_buf(inst.visible_pos.size());
  const std::vector<AttrId>& init_ids = t.workflow->initial_input_ids();
  const size_t num_init = init_ids.size();

  // (Re-)executes execution e from topo position `from` on; updates values
  // and trace and returns the new row target id.
  auto run_exec = [&](int64_t e, size_t from) {
    int32_t* vals = &values[static_cast<size_t>(e) * num_attrs];
    if (from == 0) {
      const int32_t* init =
          &t.init_values[static_cast<size_t>(e) * num_init];
      for (size_t k = 0; k < num_init; ++k) {
        vals[static_cast<size_t>(init_ids[k])] = init[k];
      }
    }
    for (size_t p = from; p < inst.topo.size(); ++p) {
      const int mi = inst.topo[p];
      const size_t smi = static_cast<size_t>(mi);
      int64_t in_code = 0;
      const auto& ins = t.in_attrs[smi];
      for (size_t j = 0; j < ins.size(); ++j) {
        in_code += static_cast<int64_t>(vals[static_cast<size_t>(ins[j])]) *
                   t.in_strides[smi][j];
      }
      int32_t out_code;
      const int fi = inst.free_index[smi];
      if (fi < 0) {
        out_code = t.original_fn[smi][static_cast<size_t>(in_code)];
      } else {
        trace[static_cast<size_t>(e) * trace_width +
              static_cast<size_t>(fi)] = static_cast<int32_t>(in_code);
        const int32_t s = inst.slot_of[smi][static_cast<size_t>(in_code)];
        out_code = inst.slot_codes[static_cast<size_t>(s)]
                                  [static_cast<size_t>(
                                      idx[static_cast<size_t>(s)])];
      }
      const auto& outs = t.out_attrs[smi];
      const int32_t* out_vals =
          &t.out_values[smi][static_cast<size_t>(out_code) * outs.size()];
      for (size_t j = 0; j < outs.size(); ++j) {
        vals[static_cast<size_t>(outs[j])] = out_vals[j];
      }
    }
    if (inst.use_nd) {
      int64_t code = inst.exec_tid_base[static_cast<size_t>(e)];
      for (size_t j = 0; j < inst.nd_attr_ids.size(); ++j) {
        code += static_cast<int64_t>(
                    vals[static_cast<size_t>(inst.nd_attr_ids[j])]) *
                inst.nd_strides[j];
      }
      return inst.tid_flat[static_cast<size_t>(code)];
    }
    for (size_t p = 0; p < inst.visible_pos.size(); ++p) {
      vis_buf[p] = vals[static_cast<size_t>(
          t.prov_ids[static_cast<size_t>(inst.visible_pos[p])])];
    }
    return inst.target->Find(vis_buf);
  };

  for (int64_t e = 0; e < num_execs; ++e) {
    if (control != nullptr && control->Expired()) {
      stop->store(true, std::memory_order_relaxed);
      return;
    }
    row_tid[static_cast<size_t>(e)] = run_exec(e, 0);
    cover(row_tid[static_cast<size_t>(e)]);
  }

  ShardMarks marks(inst.input_widths);
  std::vector<int> changed;
  // Scratch for distinct-relation capture: rows flattened back to back plus
  // a row-index permutation, reused across consistent worlds.
  std::vector<int32_t> rows_flat(static_cast<size_t>(num_execs) * prov_arity);
  std::vector<int32_t> row_order(static_cast<size_t>(num_execs));
  std::vector<int32_t> rel_key;
  auto row_less = [&](int32_t a, int32_t b) {
    const int32_t* ra = &rows_flat[static_cast<size_t>(a) * prov_arity];
    const int32_t* rb = &rows_flat[static_cast<size_t>(b) * prov_arity];
    return std::lexicographical_compare(ra, ra + prov_arity, rb,
                                        rb + prov_arity);
  };
  for (;;) {
    if (stop->load(std::memory_order_relaxed)) return;
    // Deadline/cancel poll: Expired() amortizes the clock read over a
    // thread-local stride, so this costs one relaxed load per step.
    if (control != nullptr && control->Expired()) {
      stop->store(true, std::memory_order_relaxed);
      return;
    }
    if (invalid == 0 && uncovered == 0) {
      ++out->num_function_choices;
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
          marks.Mark(p, idx[static_cast<size_t>(inst.inputs[p].slot)],
                     seen_union, stop);
        }
      }
    }
    if (m == 0) return;  // all modules fixed: a single joint state
    // Advance one step (slot 1 cycles fastest, slot 0 last within this
    // shard's range), collecting every digit the carry chain changed.
    changed.clear();
    {
      int d = m > 1 ? 1 : 0;
      bool exhausted = false;
      for (;;) {
        if (d == 0) {
          if (++idx[0] == end) {
            exhausted = true;
          } else {
            changed.push_back(0);
          }
          break;
        }
        if (++idx[static_cast<size_t>(d)] <
            inst.slot_len[static_cast<size_t>(d)]) {
          changed.push_back(d);
          break;
        }
        idx[static_cast<size_t>(d)] = 0;
        changed.push_back(d);
        if (++d == m) d = 0;
      }
      if (exhausted) return;
    }
    // Re-run the executions whose trace crosses a changed slot, from the
    // earliest changed module onward. The one-digit step is by far the most
    // common shape, so it gets a branch-light fast path.
    if (changed.size() == 1) {
      const size_t s = static_cast<size_t>(changed[0]);
      const size_t fi = static_cast<size_t>(inst.slot_fi[s]);
      const int32_t in_code = inst.slot_in_code[s];
      const size_t tp = static_cast<size_t>(inst.slot_topo[s]);
      for (int64_t e = 0; e < num_execs; ++e) {
        if (trace[static_cast<size_t>(e) * trace_width + fi] != in_code) {
          continue;
        }
        uncover(row_tid[static_cast<size_t>(e)]);
        row_tid[static_cast<size_t>(e)] = run_exec(e, tp);
        cover(row_tid[static_cast<size_t>(e)]);
      }
      continue;
    }
    for (int64_t e = 0; e < num_execs; ++e) {
      size_t from = std::numeric_limits<size_t>::max();
      for (int s : changed) {
        const size_t ss = static_cast<size_t>(s);
        if (trace[static_cast<size_t>(e) * trace_width +
                  static_cast<size_t>(inst.slot_fi[ss])] ==
            inst.slot_in_code[ss]) {
          from = std::min(from, static_cast<size_t>(inst.slot_topo[ss]));
        }
      }
      if (from == std::numeric_limits<size_t>::max()) continue;
      uncover(row_tid[static_cast<size_t>(e)]);
      row_tid[static_cast<size_t>(e)] = run_exec(e, from);
      cover(row_tid[static_cast<size_t>(e)]);
    }
  }
}

}  // namespace

WorkflowWorlds EnumerateWorkflowWorlds(const WorkflowTables& tables,
                                       const Bitset64& visible,
                                       const std::vector<int>& fixed_modules,
                                       const WorkflowEnumerationOptions& opts) {
  WorkflowWorlds result;
  const ExecControl* control = opts.control;
  if (!tables.status.ok()) {
    // Tables from an aborted service-mode build carry their trip status;
    // never walk them.
    result.status = tables.status;
    return result;
  }
  if (control != nullptr && control->ExpiredNow()) {
    result.status = control->Check();
    return result;
  }
  const Workflow& workflow = *tables.workflow;
  const int n = tables.num_modules;
  result.out_sets.resize(static_cast<size_t>(n));

  std::vector<bool> fixed(static_cast<size_t>(n), false);
  for (int i : fixed_modules) {
    PV_CHECK(i >= 0 && i < n);
    fixed[static_cast<size_t>(i)] = true;
  }

  WfInstance inst;
  inst.tables = &tables;
  inst.free_index.assign(static_cast<size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    if (!fixed[static_cast<size_t>(i)]) {
      inst.free_index[static_cast<size_t>(i)] = inst.num_free++;
      inst.free_modules.push_back(i);
    }
  }
  inst.topo = workflow.topo_order();
  inst.topo_pos.assign(static_cast<size_t>(n), -1);
  for (size_t p = 0; p < inst.topo.size(); ++p) {
    inst.topo_pos[static_cast<size_t>(inst.topo[p])] = static_cast<int>(p);
  }
  inst.collect_distinct = opts.collect_distinct_relations;

  result.naive_candidates = 1;
  for (int i : inst.free_modules) {
    result.naive_candidates = SaturatingMul(
        result.naive_candidates,
        SaturatingPow(tables.range_size[static_cast<size_t>(i)],
                      static_cast<int>(tables.dom_size[static_cast<size_t>(i)])));
  }

  // Target view: interned visible projections of the original rows.
  const size_t prov_arity = tables.prov_ids.size();
  for (size_t p = 0; p < prov_arity; ++p) {
    const AttrId id = tables.prov_ids[p];
    if (id < visible.size() && visible.Test(id)) {
      inst.visible_pos.push_back(static_cast<int>(p));
    }
  }
  TupleInterner target;
  std::vector<int32_t> orig_row_tid(static_cast<size_t>(tables.num_execs));
  {
    Tuple vis(inst.visible_pos.size());
    for (int64_t e = 0; e < tables.num_execs; ++e) {
      if (control != nullptr && control->Expired()) {
        result.status = control->Check();
        return result;
      }
      const int32_t* row = &tables.orig_rows[static_cast<size_t>(e) * prov_arity];
      for (size_t p = 0; p < inst.visible_pos.size(); ++p) {
        vis[p] = row[static_cast<size_t>(inst.visible_pos[p])];
      }
      orig_row_tid[static_cast<size_t>(e)] = target.Intern(vis);
    }
  }
  inst.target = &target;

  // Modules whose input is the same in every world. The base rule: every
  // input attribute is an initial input or produced by a fixed module that
  // is itself determined. With the feasible-set pass on, the fixpoint's
  // pinned set extends this through forced free modules and supplies the
  // per-slot candidate lists and unreachable-domain-point factoring below.
  std::unique_ptr<FeasibleSetAnalysis> analysis;
  if (opts.use_feasible_sets) {
    analysis = std::make_unique<FeasibleSetAnalysis>(
        AnalyzeFeasibleSets(tables, visible, fixed_modules));
  }
  std::vector<bool> det_attr(static_cast<size_t>(tables.num_attrs), false);
  std::vector<bool> determined(static_cast<size_t>(n), false);
  if (analysis != nullptr) {
    det_attr.assign(analysis->pinned_attr.begin(), analysis->pinned_attr.end());
    determined.assign(analysis->determined.begin(),
                      analysis->determined.end());
  } else {
    for (AttrId id : workflow.initial_input_ids()) {
      det_attr[static_cast<size_t>(id)] = true;
    }
    for (int mi : inst.topo) {
      const size_t smi = static_cast<size_t>(mi);
      bool det = true;
      for (AttrId id : tables.in_attrs[smi]) {
        det = det && det_attr[static_cast<size_t>(id)];
      }
      determined[smi] = det;
      if (det && fixed[smi]) {
        for (AttrId id : tables.out_attrs[smi]) {
          det_attr[static_cast<size_t>(id)] = true;
        }
      }
    }
  }
  // Positions (in the prov row) of visible determined attributes: the part
  // of every execution's row no world can change.
  std::vector<int> det_vis_pos;
  std::vector<int> pos_of_attr(static_cast<size_t>(tables.num_attrs), -1);
  for (size_t p = 0; p < prov_arity; ++p) {
    const AttrId id = tables.prov_ids[p];
    pos_of_attr[static_cast<size_t>(id)] = static_cast<int>(p);
    if (det_attr[static_cast<size_t>(id)] && id < visible.size() &&
        visible.Test(id)) {
      det_vis_pos.push_back(static_cast<int>(p));
    }
  }

  // Fast row -> target-id lookup tables (see WfInstance): the visible
  // non-determined fragment indexes a per-determined-prefix-group table.
  {
    const AttributeCatalog& catalog = *workflow.catalog();
    std::vector<int> nd_pos;  // prov positions of the fragment
    int64_t space = 1;
    for (int p : inst.visible_pos) {
      const AttrId id = tables.prov_ids[static_cast<size_t>(p)];
      if (det_attr[static_cast<size_t>(id)]) continue;
      nd_pos.push_back(p);
      inst.nd_attr_ids.push_back(id);
      inst.nd_strides.push_back(space);
      space = SaturatingMul(space, catalog.DomainSize(id));
    }
    std::map<Tuple, int32_t> group_ids;
    Tuple prefix(det_vis_pos.size());
    if (space <= (1 << 16)) {
      inst.group_of_exec.resize(static_cast<size_t>(tables.num_execs));
      for (int64_t e = 0; e < tables.num_execs; ++e) {
        const int32_t* row =
            &tables.orig_rows[static_cast<size_t>(e) * prov_arity];
        for (size_t q = 0; q < det_vis_pos.size(); ++q) {
          prefix[q] = row[static_cast<size_t>(det_vis_pos[q])];
        }
        auto [it, inserted] = group_ids.try_emplace(
            prefix, static_cast<int32_t>(group_ids.size()));
        (void)inserted;
        inst.group_of_exec[static_cast<size_t>(e)] = it->second;
      }
      if (SaturatingMul(static_cast<int64_t>(group_ids.size()), space) <=
          (1 << 22)) {
        inst.tid_tables.assign(
            group_ids.size(),
            std::vector<int32_t>(static_cast<size_t>(space), -1));
        for (int64_t e = 0; e < tables.num_execs; ++e) {
          const int32_t* row =
              &tables.orig_rows[static_cast<size_t>(e) * prov_arity];
          int64_t code = 0;
          for (size_t j = 0; j < nd_pos.size(); ++j) {
            code += static_cast<int64_t>(
                        row[static_cast<size_t>(nd_pos[j])]) *
                    inst.nd_strides[j];
          }
          inst.tid_tables[static_cast<size_t>(
              inst.group_of_exec[static_cast<size_t>(e)])]
              [static_cast<size_t>(code)] =
                  orig_row_tid[static_cast<size_t>(e)];
        }
        inst.nd_space = space;
        inst.use_nd = true;
      }
    }
    if (!inst.use_nd) {
      inst.nd_attr_ids.clear();
      inst.nd_strides.clear();
      inst.group_of_exec.clear();
    }
  }

  // Build the walked slots, grouped by free module in reverse topological
  // order: digit 1 cycles fastest, so the most frequent odometer steps hit
  // the topologically last module and re-execute the shortest suffix.
  // Non-determined modules keep the full output range on every slot (their
  // reachedness varies across worlds, so no code can be excluded soundly);
  // determined modules are pruned against the visible provenance view and
  // their unreached slots are factored out.
  std::vector<int> slot_module_order = inst.free_modules;
  std::sort(slot_module_order.begin(), slot_module_order.end(),
            [&](int a, int b) {
              return inst.topo_pos[static_cast<size_t>(a)] >
                     inst.topo_pos[static_cast<size_t>(b)];
            });
  std::vector<std::vector<int32_t>> all_codes(static_cast<size_t>(n));
  std::vector<std::vector<std::vector<int32_t>>> det_codes(
      static_cast<size_t>(n));
  // Singleton lists for domain points of free modules the fixpoint proved
  // unreachable in every consistent world: walked pinned to the original
  // code (so inconsistent mid-walk states that still route an execution
  // there stay well-defined) while the factored multiplier accounts for
  // their |Range| free choices.
  std::vector<std::vector<std::vector<int32_t>>> nd_pinned(
      static_cast<size_t>(n));
  int64_t factored_multiplier = 1;
  inst.slot_of.assign(static_cast<size_t>(n), {});
  result.pruned_candidates = 1;
  for (int i : slot_module_order) {
    const size_t si = static_cast<size_t>(i);
    const int64_t range = tables.range_size[si];
    inst.slot_of[si].assign(static_cast<size_t>(tables.dom_size[si]), -1);
    if (!determined[si]) {
      all_codes[si].resize(static_cast<size_t>(range));
      std::iota(all_codes[si].begin(), all_codes[si].end(), 0);
      const std::vector<int32_t>* din =
          analysis != nullptr ? &analysis->feasible_in_codes[si] : nullptr;
      if (din != nullptr) {
        // Exact-size reserve keeps the singleton lists' addresses stable
        // while slots still point at them.
        nd_pinned[si].reserve(static_cast<size_t>(tables.dom_size[si]) -
                              din->size());
      }
      size_t fit = 0;
      for (int64_t d = 0; d < tables.dom_size[si]; ++d) {
        bool reachable = true;
        if (din != nullptr) {
          if (fit < din->size() &&
              (*din)[fit] == static_cast<int32_t>(d)) {
            ++fit;
          } else {
            reachable = false;
          }
        }
        inst.slot_of[si][static_cast<size_t>(d)] =
            static_cast<int32_t>(inst.slots.size());
        if (reachable) {
          inst.slots.push_back(WfInstance::Slot{
              i, static_cast<int32_t>(d), &all_codes[si]});
          result.pruned_candidates =
              SaturatingMul(result.pruned_candidates, range);
        } else {
          nd_pinned[si].push_back(
              {tables.original_fn[si][static_cast<size_t>(d)]});
          inst.slots.push_back(WfInstance::Slot{
              i, static_cast<int32_t>(d), &nd_pinned[si].back()});
          factored_multiplier = SaturatingMul(factored_multiplier, range);
        }
      }
      continue;
    }
    if (analysis != nullptr) {
      // The fixpoint already ran the visible-projection pruning (with the
      // extended pinned set) and the feasible-value narrowing; consume its
      // per-reached-slot lists and factor the unreached domain points.
      const auto& lists = analysis->det_slot_codes[si];
      const auto& reached = tables.orig_input_codes[si];
      PV_CHECK(lists.size() == reached.size());
      for (int64_t u = static_cast<int64_t>(reached.size());
           u < tables.dom_size[si]; ++u) {
        factored_multiplier = SaturatingMul(factored_multiplier, range);
      }
      for (size_t k = 0; k < reached.size(); ++k) {
        inst.slot_of[si][static_cast<size_t>(reached[k])] =
            static_cast<int32_t>(inst.slots.size());
        inst.slots.push_back(WfInstance::Slot{i, reached[k], &lists[k]});
        result.pruned_candidates = SaturatingMul(
            result.pruned_candidates, static_cast<int64_t>(lists[k].size()));
      }
      continue;
    }
    // Shared pruning core (privacy/feasible_sets.h): allowed
    // (determined-visible prefix, visible-output fragment) pairs are the
    // target view's projection onto those positions — a slot code whose
    // fragment never co-occurs with one of its executions' prefixes forces
    // that execution's row out of the view in every world. The fixpoint
    // engine runs the identical core with its extended pinned set and a
    // feasible-value filter.
    DeterminedSlotPruner pruner(tables, i, visible);
    pruner.RescanLog(det_attr);
    det_codes[si] = pruner.CandidateLists(/*value_ok=*/nullptr);
    const auto& reached = tables.orig_input_codes[si];
    PV_CHECK(det_codes[si].size() == reached.size());
    // Slots reached by no execution multiply the world count without
    // changing any candidate relation: factor them out of the walk.
    for (int64_t u = static_cast<int64_t>(reached.size());
         u < tables.dom_size[si]; ++u) {
      factored_multiplier = SaturatingMul(factored_multiplier, range);
    }
    for (size_t k = 0; k < reached.size(); ++k) {
      inst.slot_of[si][static_cast<size_t>(reached[k])] =
          static_cast<int32_t>(inst.slots.size());
      inst.slots.push_back(WfInstance::Slot{i, reached[k], &det_codes[si][k]});
      result.pruned_candidates = SaturatingMul(
          result.pruned_candidates,
          static_cast<int64_t>(det_codes[si][k].size()));
    }
  }
  if (result.pruned_candidates > opts.max_candidates) {
    result.status = Status::ResourceExhausted(
        "workflow world space too large after pruning: " +
        std::to_string(result.pruned_candidates));
    return result;
  }
  if (result.pruned_candidates == 0) return result;  // some slot infeasible

  // Sharding splits slot 0's candidate list across the pool, but the
  // feasible-set pass can leave slot 0 a singleton (forced, or a factored
  // unreachable point) — which would silently serialize the whole walk.
  // Swap the first multi-candidate slot into position 0 (before tracked
  // inputs capture slot indices): the walker carries every slot's
  // module/topo metadata with it, so slot order is a pure performance
  // choice — digit 1 stays the fastest-cycling digit.
  if (!inst.slots.empty() && inst.slots[0].codes->size() <= 1) {
    for (size_t j = 1; j < inst.slots.size(); ++j) {
      if (inst.slots[j].codes->size() > 1) {
        std::swap(inst.slots[0], inst.slots[j]);
        inst.slot_of[static_cast<size_t>(inst.slots[0].module)]
                    [static_cast<size_t>(inst.slots[0].in_code)] = 0;
        inst.slot_of[static_cast<size_t>(inst.slots[j].module)]
                    [static_cast<size_t>(inst.slots[j].in_code)] =
            static_cast<int32_t>(j);
        break;
      }
    }
  }

  // OUT-set marks: one pair per (free module, original input code). The
  // Γ short-circuit tracks every free private module (fixed modules have
  // singleton OUT sets and would never reach Γ > 1).
  int64_t tracked_pairs = 0;
  for (int i : inst.free_modules) {
    const size_t si = static_cast<size_t>(i);
    const bool gamma_tracked = !workflow.module(i).is_public();
    for (int32_t d : tables.orig_input_codes[si]) {
      const int32_t s = inst.slot_of[si][static_cast<size_t>(d)];
      PV_CHECK(s >= 0);
      inst.inputs.push_back(WfInstance::TrackedInput{i, d, s});
      inst.input_widths.push_back(
          inst.slots[static_cast<size_t>(s)].codes->size());
      inst.input_gamma.push_back(gamma_tracked);
      if (gamma_tracked) ++tracked_pairs;
    }
  }
  if (opts.gamma > 0 && tracked_pairs == 0) {
    // No tracked free-module input to protect: Γ is vacuously satisfied.
    result.early_stopped = true;
    return result;
  }

  inst.FinalizeSlots();

  // Shard the walk over the first walked slot's feasible codes.
  const int64_t slot0 =
      inst.slots.empty()
          ? 1
          : static_cast<int64_t>(inst.slots[0].codes->size());
  int threads = ResolveThreads(opts.num_threads);
  if (result.pruned_candidates <= opts.min_parallel_candidates) threads = 1;
  const int shards = static_cast<int>(std::min<int64_t>(threads, slot0));

  SeenUnion seen_union(inst.input_widths, inst.input_gamma, opts.gamma);
  std::atomic<bool> stop(false);
  std::vector<WfShardResult> partials(static_cast<size_t>(shards));
  // Each shard keeps per-execution values/trace/row_tid arrays; charge the
  // whole fleet against the request budget up front (released after the
  // walk — the charge covers peak transient footprint, not retained state).
  const int64_t walk_bytes =
      static_cast<int64_t>(shards) * tables.num_execs *
      static_cast<int64_t>((static_cast<size_t>(tables.num_attrs) +
                            static_cast<size_t>(std::max(inst.num_free, 1)) +
                            1) *
                           sizeof(int32_t));
  if (control != nullptr && !control->TryCharge(walk_bytes)) {
    result.status = control->Check();
    return result;
  }
  RunRanges(opts.executor, slot0, shards,
            [&](int shard, int64_t begin, int64_t end) {
              WfWalkShard(inst, begin, end, &seen_union, &stop, control,
                          &partials[static_cast<size_t>(shard)]);
            });
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

  // Materialize OUT sets: free modules from the union of seen marks, fixed
  // modules keep their original function on every consistent world.
  for (size_t p = 0; p < inst.inputs.size(); ++p) {
    const auto& ti = inst.inputs[p];
    const size_t si = static_cast<size_t>(ti.module);
    const auto& codes = *inst.slots[static_cast<size_t>(ti.slot)].codes;
    const auto& seen = seen_union.seen[p];
    const Tuple x = DecodeMixedRadix(ti.in_code, tables.in_radices[si]);
    for (size_t j = 0; j < seen.size(); ++j) {
      if (!seen[j]) continue;
      result.out_sets[si][x].insert(
          DecodeMixedRadix(codes[j], tables.out_radices[si]));
    }
  }
  if (result.num_function_choices > 0 || result.early_stopped) {
    for (int i = 0; i < n; ++i) {
      const size_t si = static_cast<size_t>(i);
      if (!fixed[si]) continue;
      for (int32_t d : tables.orig_input_codes[si]) {
        result.out_sets[si][DecodeMixedRadix(d, tables.in_radices[si])]
            .insert(DecodeMixedRadix(
                tables.original_fn[si][static_cast<size_t>(d)],
                tables.out_radices[si]));
      }
    }
  }
  return result;
}

WorkflowWorlds EnumerateWorkflowWorlds(const Workflow& workflow,
                                       const Bitset64& visible,
                                       const std::vector<int>& fixed_modules,
                                       const WorkflowEnumerationOptions& opts) {
  WorkflowTablesOptions topts;
  topts.control = opts.control;  // the build shares the request's deadline
  return EnumerateWorkflowWorlds(*BuildWorkflowTables(workflow, topts),
                                 visible, fixed_modules, opts);
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
