#include "privacy/safe_subset_search.h"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <utility>

#include "common/combinatorics.h"
#include "common/task_graph.h"
#include "privacy/standalone_privacy.h"

namespace provview {

namespace {

// Local view of the module's attributes: inputs followed by outputs.
std::vector<AttrId> LocalAttrs(const std::vector<AttrId>& inputs,
                               const std::vector<AttrId>& outputs) {
  std::vector<AttrId> attrs = inputs;
  attrs.insert(attrs.end(), outputs.begin(), outputs.end());
  return attrs;
}

// Fills `result` with the cheapest of `minimal` under the catalog's
// attribute costs (with non-negative costs the optimum over all safe sets
// is attained at a minimal one).
void PickMinCost(const std::vector<Bitset64>& minimal,
                 const AttributeCatalog& catalog, MinCostSafeResult* result) {
  double best = std::numeric_limits<double>::infinity();
  for (const Bitset64& hidden : minimal) {
    double cost = 0.0;
    for (AttrId id : hidden.ToVector()) cost += catalog.Cost(id);
    if (cost < best) {
      best = cost;
      result->hidden = hidden;
      result->found = true;
    }
  }
  if (result->found) result->cost = best;
}

// Task count for one lattice level (or cell grid) on the task-graph path:
// oversubscribe threads so work stealing can balance skewed rank ranges,
// bounded so per-task overlay/log overhead stays negligible. Results and
// stats do not depend on the count (rank-order absorb + log replay), only
// wall-clock does.
int LatticeTaskCount(int64_t total, int threads, int64_t min_parallel) {
  if (threads <= 1 || total <= min_parallel) return 1;
  const int64_t grain = std::max<int64_t>(int64_t{1}, min_parallel);
  constexpr int64_t kOversubscription = 4;
  constexpr int64_t kMaxTasks = 64;
  return static_cast<int>(
      std::min({(total + grain - 1) / grain,
                static_cast<int64_t>(threads) * kOversubscription, kMaxTasks,
                total}));
}

}  // namespace

std::vector<Bitset64> MinimalSafeHiddenSets(SafetyMemo* memo,
                                            const std::vector<AttrId>& inputs,
                                            const std::vector<AttrId>& outputs,
                                            int universe, int64_t gamma,
                                            SafeSearchStats* stats,
                                            const SubsetSearchOptions& opts) {
  const std::vector<AttrId> attrs = LocalAttrs(inputs, outputs);
  const int k = static_cast<int>(attrs.size());
  PV_CHECK_MSG(k <= kMaxSubsetSearchAttrs,
               "subset search limited to k <= " << kMaxSubsetSearchAttrs
                                                << ", got " << k);
  const int threads = ResolveThreads(opts.num_threads);
  const ExecControl* control = opts.control;

  std::vector<Bitset64> minimal;
  if (control != nullptr && control->ExpiredNow()) return minimal;

  // One combo of the current level: examined, dominance-tested against the
  // minimal sets of the completed levels (same-size sets are incomparable,
  // so the in-flight level never has to see its own discoveries), then
  // safety-tested through a memo.
  auto visit = [&](const Bitset64& combo, std::vector<Bitset64>* safe) {
    ++stats->subsets_examined;
    Bitset64 hidden(universe);
    for (int local : combo.ToVector()) {
      hidden.Set(attrs[static_cast<size_t>(local)]);
    }
    for (const Bitset64& mset : minimal) {
      if (mset.IsSubsetOf(hidden)) return;  // safe but not minimal (Prop. 1)
    }
    if (memo->IsSafe(hidden, gamma, stats)) safe->push_back(hidden);
  };

  // Fully sequential walk — the reference semantics the task-graph walk
  // must match byte-for-byte, and the resolved-1-thread fast path: no
  // shard bookkeeping, no memo overlays, no executor. It stays beside the
  // graph walk because running the graph inline at one thread is slower:
  // on perfbench solve-exact (seed 1, 5 s runs, 4-core Xeon) that variant
  // made 437.9 items/s against this walk's 463.5 (medians), and this walk
  // won 5 of 6 interleaved pairs.
  if (threads <= 1) {
    for (int size = 0; size <= k; ++size) {
      const int64_t total = BinomialCoefficient(k, size);
      std::vector<Bitset64> safe;
      ForEachSubsetOfSizeRangeWhile(k, size, 0, total,
                                    [&](const Bitset64& combo) {
                                      visit(combo, &safe);
                                      return control == nullptr ||
                                             !control->Expired();
                                    });
      // A level cut short by the deadline may have missed minimal sets, so
      // its partial discoveries cannot be merged (they would masquerade as
      // the complete antichain). Return the completed levels only.
      if (control != nullptr && control->ExpiredNow()) return minimal;
      minimal.insert(minimal.end(), safe.begin(), safe.end());
    }
    return minimal;
  }

  // Task-graph walk. Every level is an antichain, so its contiguous rank
  // ranges are independent given the completed levels. Per level: `prep`
  // folds the previous level's staged results into the shared memo and
  // `minimal`, then rank-range shard tasks walk their slice on O(1)
  // overlays of the (now frozen) memo, each releasing an absorb task the
  // moment it finishes. The absorb chain runs in rank order, replaying
  // shard lookup logs into a staging overlay while later shards still
  // compute, so levels pipeline instead of meeting at a barrier.
  // Discoveries concatenate in rank order and log replay reproduces
  // sequential accounting, so results, their order, and SafeSearchStats
  // are all byte-identical to the sequential walk at any thread count.
  const EngineExecutor executor(opts.executor, threads);

  struct Shard {
    std::unique_ptr<SafetyMemo> memo;  // overlay, frozen base
    SafetyMemo::LookupLog log;
    std::vector<Bitset64> safe;
    int64_t examined = 0;
    int64_t begin = 0;
    int64_t end = 0;
  };
  struct Level {
    int64_t total = 0;
    std::unique_ptr<SafetyMemo> staging;  // absorb target, overlay of memo
    std::vector<Shard> shards;
    std::vector<Bitset64> discoveries;  // rank-order concatenation
  };
  std::vector<Level> levels(static_cast<size_t>(k) + 1);

  TaskGraph graph;
  TaskGraph::TaskId chain = -1;  // last absorb of the previous level
  for (int size = 0; size <= k; ++size) {
    Level* level = &levels[static_cast<size_t>(size)];
    level->total = BinomialCoefficient(k, size);
    const int tasks =
        LatticeTaskCount(level->total, threads, opts.min_parallel_subsets);
    level->shards.resize(static_cast<size_t>(tasks));
    for (int s = 0; s < tasks; ++s) {
      const auto [begin, end] = TaskRange(level->total, tasks, s);
      level->shards[static_cast<size_t>(s)].begin = begin;
      level->shards[static_cast<size_t>(s)].end = end;
    }
    Level* prev = size > 0 ? &levels[static_cast<size_t>(size) - 1] : nullptr;
    const TaskGraph::TaskId prep = graph.Add(
        [&, level, prev] {
          if (prev != nullptr) {
            memo->Absorb(*prev->staging);
            minimal.insert(minimal.end(), prev->discoveries.begin(),
                           prev->discoveries.end());
          }
          level->staging = memo->NewOverlay();
          for (Shard& sh : level->shards) sh.memo = memo->NewOverlay();
        },
        chain >= 0 ? std::vector<TaskGraph::TaskId>{chain}
                   : std::vector<TaskGraph::TaskId>{});
    chain = prep;
    for (int s = 0; s < tasks; ++s) {
      Shard* sh = &level->shards[static_cast<size_t>(s)];
      const TaskGraph::TaskId work = graph.Add(
          [&, sh, size] {
            ForEachSubsetOfSizeRangeWhile(
                k, size, sh->begin, sh->end, [&](const Bitset64& combo) {
                  ++sh->examined;
                  Bitset64 hidden(universe);
                  for (int local : combo.ToVector()) {
                    hidden.Set(attrs[static_cast<size_t>(local)]);
                  }
                  bool dominated = false;
                  for (const Bitset64& mset : minimal) {
                    if (mset.IsSubsetOf(hidden)) {
                      dominated = true;
                      break;
                    }
                  }
                  if (!dominated &&
                      sh->memo->IsSafe(hidden, gamma, nullptr, &sh->log)) {
                    sh->safe.push_back(hidden);
                  }
                  return control == nullptr || !control->Expired();
                });
          },
          {prep});
      chain = graph.Add(
          [&, sh, level] {
            stats->subsets_examined += sh->examined;
            level->staging->AbsorbLog(sh->log, stats);
            level->discoveries.insert(level->discoveries.end(),
                                      sh->safe.begin(), sh->safe.end());
            sh->memo.reset();  // drop shard scratch as the chain advances
            sh->log = SafetyMemo::LookupLog{};
          },
          {work, chain});
    }
  }
  graph.Add(
      [&] {
        Level* last = &levels[static_cast<size_t>(k)];
        memo->Absorb(*last->staging);
        minimal.insert(minimal.end(), last->discoveries.begin(),
                       last->discoveries.end());
      },
      {chain});
  // A tripped control skips all remaining bodies, so fold tasks stop
  // merging at the first incomplete level: `minimal` holds exactly the
  // completed levels, same contract as the sequential walk. The Status
  // comes out of control->Check(); the caller reads it there.
  (void)graph.Run(executor.get(), control);
  return minimal;
}

std::vector<Bitset64> MinimalSafeHiddenSets(SafetyMemo* memo,
                                            const std::vector<AttrId>& inputs,
                                            const std::vector<AttrId>& outputs,
                                            int universe, int64_t gamma,
                                            SafeSearchStats* stats) {
  return MinimalSafeHiddenSets(memo, inputs, outputs, universe, gamma, stats,
                               SubsetSearchOptions{});
}

std::vector<Bitset64> MinimalSafeHiddenSets(const Relation& rel,
                                            const std::vector<AttrId>& inputs,
                                            const std::vector<AttrId>& outputs,
                                            int64_t gamma,
                                            SafeSearchStats* stats) {
  SafeSearchStats local_stats;
  SafetyMemo memo(rel, inputs, outputs);
  std::vector<Bitset64> minimal =
      MinimalSafeHiddenSets(&memo, inputs, outputs,
                            rel.schema().catalog()->size(), gamma,
                            &local_stats);
  if (stats != nullptr) *stats = local_stats;
  return minimal;
}

MinCostSafeResult MinCostSafeHiddenSet(const Relation& rel,
                                       const std::vector<AttrId>& inputs,
                                       const std::vector<AttrId>& outputs,
                                       int64_t gamma) {
  MinCostSafeResult result;
  std::vector<Bitset64> minimal =
      MinimalSafeHiddenSets(rel, inputs, outputs, gamma, &result.stats);
  PickMinCost(minimal, *rel.schema().catalog(), &result);
  return result;
}

std::vector<Bitset64> MinimalSafeHiddenSets(const Module& module,
                                            int64_t gamma,
                                            SafeSearchStats* stats,
                                            const SubsetSearchOptions& opts) {
  SafeSearchStats local_stats;
  SafetyMemo memo(module, opts.materialize_threshold);
  std::vector<Bitset64> minimal =
      MinimalSafeHiddenSets(&memo, module.inputs(), module.outputs(),
                            module.catalog()->size(), gamma, &local_stats,
                            opts);
  if (stats != nullptr) *stats = local_stats;
  return minimal;
}

MinCostSafeResult MinCostSafeHiddenSet(const Module& module, int64_t gamma,
                                       const SubsetSearchOptions& opts) {
  MinCostSafeResult result;
  SafetyMemo memo(module, opts.materialize_threshold);
  std::vector<Bitset64> minimal =
      MinimalSafeHiddenSets(&memo, module.inputs(), module.outputs(),
                            module.catalog()->size(), gamma, &result.stats,
                            opts);
  PickMinCost(minimal, *module.catalog(), &result);
  return result;
}

std::vector<CardinalityPair> MinimalSafeCardinalityPairs(
    const Relation& rel, const std::vector<AttrId>& inputs,
    const std::vector<AttrId>& outputs, int64_t gamma) {
  SafetyMemo memo(rel, inputs, outputs);
  return MinimalSafeCardinalityPairs(&memo, inputs, outputs,
                                     rel.schema().catalog()->size(), gamma);
}

std::vector<CardinalityPair> MinimalSafeCardinalityPairs(
    SafetyMemo* memo, const std::vector<AttrId>& inputs,
    const std::vector<AttrId>& outputs, int universe, int64_t gamma,
    const SubsetSearchOptions& opts, SafeSearchStats* stats) {
  const int ni = static_cast<int>(inputs.size());
  const int no = static_cast<int>(outputs.size());
  const ExecControl* control = opts.control;
  PV_CHECK_MSG(ni + no <= kMaxSubsetSearchAttrs,
               "cardinality search limited to k <= "
                   << kMaxSubsetSearchAttrs);

  // Verdict of one grid cell: EVERY subset hiding exactly a inputs and b
  // outputs is safe. Identical to the sequential evaluation's fixpoint for
  // the cell (an early unsafe subset just short-circuits the AND sooner).
  // With a non-null `log` the lookups are recorded instead of counted —
  // the parallel path's replay-exact accounting.
  auto cell_safe = [&](int a, int b, SafetyMemo* m, SafeSearchStats* s,
                       SafetyMemo::LookupLog* log, int64_t* examined) {
    bool all_safe = true;
    ForEachSubsetOfSizeRangeWhile(
        ni, a, 0, BinomialCoefficient(ni, a), [&](const Bitset64& in_combo) {
          ForEachSubsetOfSizeRangeWhile(
              no, b, 0, BinomialCoefficient(no, b),
              [&](const Bitset64& out_combo) {
                Bitset64 hidden(universe);
                for (int local : in_combo.ToVector()) {
                  hidden.Set(inputs[static_cast<size_t>(local)]);
                }
                for (int local : out_combo.ToVector()) {
                  hidden.Set(outputs[static_cast<size_t>(local)]);
                }
                ++*examined;
                const bool safe = m->IsSafe(hidden, gamma, s, log);
                if (!safe) all_safe = false;
                // First unsafe subset — or a tripped control — stops the
                // cell. A deadline-cut cell leaves a stale verdict in the
                // grid; the caller must discard the frontier whenever
                // control->Check() is non-OK afterwards.
                return all_safe &&
                       (control == nullptr || !control->Expired());
              });
          return all_safe && (control == nullptr || !control->Expired());
        });
    return all_safe;
  };

  // safe_all[a][b]: every cell verdict is independent given a verdict
  // cache, so cells shard into row-major ranges; the grid — and the
  // frontier below — is identical to the sequential walk for every thread
  // count.
  SafeSearchStats local_stats;
  // One byte per cell (not vector<bool>: shards write adjacent cells, and
  // distinct bytes are distinct memory locations while bits are not).
  const int64_t cells = static_cast<int64_t>(ni + 1) * (no + 1);
  std::vector<uint8_t> safe_all(static_cast<size_t>(cells), 1);
  auto cell_at = [no](int a, int b) {
    return static_cast<size_t>(a) * static_cast<size_t>(no + 1) +
           static_cast<size_t>(b);
  };
  const int64_t lattice = int64_t{1} << (ni + no);
  const int threads = ResolveThreads(opts.num_threads);
  const bool parallel =
      threads > 1 && lattice > opts.min_parallel_subsets && cells > 1;
  if (!parallel) {
    for (int a = 0; a <= ni; ++a) {
      for (int b = 0; b <= no; ++b) {
        if (control != nullptr && control->ExpiredNow()) break;
        safe_all[cell_at(a, b)] =
            cell_safe(a, b, memo, &local_stats, nullptr,
                      &local_stats.subsets_examined)
                ? 1
                : 0;
      }
    }
  } else {
    // Cell-range tasks on overlays of the frozen memo; the absorb chain
    // replays lookup logs in range (= row-major) order into a staging
    // overlay, folded into the memo by the final task. Same grid, same
    // stats as the sequential loop.
    struct CellShard {
      std::unique_ptr<SafetyMemo> memo;
      SafetyMemo::LookupLog log;
      int64_t examined = 0;
      int64_t begin = 0;
      int64_t end = 0;
    };
    const int tasks = LatticeTaskCount(cells, threads, 1);
    std::vector<CellShard> cell_shards(static_cast<size_t>(tasks));
    std::unique_ptr<SafetyMemo> staging = memo->NewOverlay();
    TaskGraph graph;
    TaskGraph::TaskId chain = -1;
    for (int s = 0; s < tasks; ++s) {
      CellShard* sh = &cell_shards[static_cast<size_t>(s)];
      std::tie(sh->begin, sh->end) = TaskRange(cells, tasks, s);
      sh->memo = memo->NewOverlay();
      const TaskGraph::TaskId work = graph.Add([&, sh] {
        for (int64_t cell = sh->begin; cell < sh->end; ++cell) {
          if (control != nullptr && control->ExpiredNow()) return;
          const int a = static_cast<int>(cell / (no + 1));
          const int b = static_cast<int>(cell % (no + 1));
          safe_all[cell_at(a, b)] =
              cell_safe(a, b, sh->memo.get(), nullptr, &sh->log,
                        &sh->examined)
                  ? 1
                  : 0;
        }
      });
      chain = graph.Add(
          [&, sh] {
            local_stats.subsets_examined += sh->examined;
            staging->AbsorbLog(sh->log, &local_stats);
            sh->memo.reset();
            sh->log = SafetyMemo::LookupLog{};
          },
          chain >= 0 ? std::vector<TaskGraph::TaskId>{work, chain}
                     : std::vector<TaskGraph::TaskId>{work});
    }
    graph.Add([&] { memo->Absorb(*staging); }, {chain});
    const EngineExecutor executor(opts.executor, threads);
    (void)graph.Run(executor.get(), control);
  }
  if (stats != nullptr) stats->Accumulate(local_stats);

  // Safety of every subset at (a,b) implies it at (a+1,b) and (a,b+1) by
  // Prop. 1, so the computed table is automatically upward closed; extract
  // the minimal frontier.
  std::vector<CardinalityPair> frontier;
  for (int a = 0; a <= ni; ++a) {
    for (int b = 0; b <= no; ++b) {
      if (!safe_all[cell_at(a, b)]) continue;
      bool minimal = true;
      if (a > 0 && safe_all[cell_at(a - 1, b)]) minimal = false;
      if (b > 0 && safe_all[cell_at(a, b - 1)]) minimal = false;
      if (minimal) frontier.push_back(CardinalityPair{a, b});
    }
  }
  return frontier;
}

std::vector<CardinalityPair> MinimalSafeCardinalityPairs(
    SafetyMemo* memo, const std::vector<AttrId>& inputs,
    const std::vector<AttrId>& outputs, int universe, int64_t gamma) {
  return MinimalSafeCardinalityPairs(memo, inputs, outputs, universe, gamma,
                                     SubsetSearchOptions{});
}

std::vector<CardinalityPair> MinimalSafeCardinalityPairs(
    const Module& module, int64_t gamma, const SubsetSearchOptions& opts) {
  SafetyMemo memo(module, opts.materialize_threshold);
  return MinimalSafeCardinalityPairs(&memo, module.inputs(), module.outputs(),
                                     module.catalog()->size(), gamma, opts);
}

}  // namespace provview
