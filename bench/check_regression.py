#!/usr/bin/env python3
"""Bench-regression guard for CI.

Compares a freshly produced BENCH_possible_worlds.json against the
committed baseline and fails (exit 1) if either engine's min speedup
dropped below half the committed value. Stdlib only.

Usage: check_regression.py <baseline.json> <fresh.json>
"""
import json
import sys

THRESHOLD = 0.5

# (label, keys tried in order — older baselines only carry the e1c_ name)
METRICS = [
    ("standalone_min_speedup_x", ("standalone_min_speedup_x", "e1c_min_speedup_x")),
    ("workflow_min_speedup_x", ("workflow_min_speedup_x",)),
    ("sharded_search_speedup_x", ("sharded_search_speedup_x",)),
    ("podsd_throughput_rps", ("podsd_throughput_rps",)),
    ("podsd_idle_conns_supported", ("podsd_idle_conns_supported",)),
    ("verdict_cache_hit_rate", ("verdict_cache_hit_rate",)),
    ("cache_batch_speedup_x", ("cache_batch_speedup_x",)),
    ("bnb_parallel_speedup_x", ("bnb_parallel_speedup_x",)),
]

# Thread-sensitive metrics (sequential vs sharded on the same host) are only
# comparable against the baseline when both runs saw the same host_threads; a
# ratio committed from a many-core dev box would otherwise fail forever on a
# small CI runner (and vice versa). On mismatched hosts they fall back to an
# absolute floor instead of being skipped: sharding must never cost more
# than ~2x over sequential anywhere, so a pathological slowdown (e.g. a
# memo-merge blowup) still fails the job.
THREAD_SENSITIVE = {
    "sharded_search_speedup_x",
    "podsd_throughput_rps",
    "cache_batch_speedup_x",
    "bnb_parallel_speedup_x",
}
# Per-metric fallback floor used on mismatched hosts. 0.5x is the sharding
# bound; 50 rps is the daemon floor — any functioning podsd clears it by
# orders of magnitude, while a deadlocked accept loop or a per-request
# engine rebuild would not.
# The warm-over-cold cache ratio shrinks with the short-mode workload (less
# cold checker work to amortize), so on mismatched hosts it only has to
# clear 2x — a cache that stops reusing verdicts across batches reads ~1x.
# The branch-and-bound parallel ratio is meaningless on one core: on
# mismatched hosts it only has to clear 0.5x — a wave engine that loses
# half its single-thread throughput when threaded is a real regression
# anywhere.
ABSOLUTE_FLOORS = {
    "sharded_search_speedup_x": 0.5,
    "podsd_throughput_rps": 50.0,
    "cache_batch_speedup_x": 2.0,
    "bnb_parallel_speedup_x": 0.5,
}


def pick(doc, keys):
    for key in keys:
        value = doc.get(key)
        if isinstance(value, (int, float)):
            return float(value)
    return None


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        baseline = json.load(f)
    with open(sys.argv[2]) as f:
        fresh = json.load(f)

    failures = []
    for label, keys in METRICS:
        base = pick(baseline, keys)
        new = pick(fresh, keys)
        if base is None:
            print(f"[bench-regression] {label}: no committed baseline, skipping")
            continue
        if new is None:
            failures.append(f"{label}: fresh run produced no value (baseline {base:.1f}x)")
            continue
        floor = THRESHOLD * base
        if label in THREAD_SENSITIVE and baseline.get("host_threads") != fresh.get(
            "host_threads"
        ):
            floor = ABSOLUTE_FLOORS[label]
            print(
                f"[bench-regression] {label}: host_threads differ "
                f"(baseline {baseline.get('host_threads')}, fresh "
                f"{fresh.get('host_threads')}), using absolute floor "
                f"{floor:.1f}"
            )
        verdict = "OK" if new >= floor else "REGRESSION"
        print(
            f"[bench-regression] {label}: fresh {new:.1f} vs baseline "
            f"{base:.1f} (floor {floor:.1f}) -> {verdict}"
        )
        if new < floor:
            failures.append(f"{label}: {new:.1f}x < floor {floor:.1f}x")

    if failures:
        print("[bench-regression] FAILED:", "; ".join(failures), file=sys.stderr)
        return 1
    print("[bench-regression] all speedups within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
