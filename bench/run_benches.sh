#!/usr/bin/env bash
# Runs the possible-worlds benches and emits a JSON timing record
# (BENCH_possible_worlds.json) so successive PRs can track the perf
# trajectory. Usage: bench/run_benches.sh [build_dir] [output.json]
# BENCH_SHORT=1 runs the short mode (shrunken E1e streaming space) used by
# the CI bench-regression smoke step.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_possible_worlds.json}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "${REPO_ROOT}"

for bin in bench_possible_worlds bench_standalone bench_podsd bench_memo bench_optimizer; do
  if [[ ! -x "${BUILD_DIR}/${bin}" ]]; then
    echo "error: ${BUILD_DIR}/${bin} not built (run: cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j)" >&2
    exit 1
  fi
done

now_s() { date +%s.%N; }

if [[ "${BENCH_SHORT:-0}" == "1" ]]; then
  export PODS_BENCH_SHORT=1
fi

echo "== bench_possible_worlds =="
PW_LOG="$(mktemp)"
PW_T0="$(now_s)"
"${BUILD_DIR}/bench_possible_worlds" | tee "${PW_LOG}"
PW_T1="$(now_s)"
PW_SECONDS="$(awk -v a="${PW_T0}" -v b="${PW_T1}" 'BEGIN{printf "%.3f", b-a}')"
# Each extraction tolerates a missing pattern (`|| true`): under
# `set -eo pipefail` a failed grep would otherwise kill the script before
# the JSON's :-null fallbacks ever ran.
# "min speedup 123.4x (...)" from the E1c summary line (exclude the E1d
# workflow line, which also contains "min speedup").
PW_MIN_SPEEDUP="$(grep -v 'workflow min speedup' "${PW_LOG}" | grep -o 'min speedup [0-9.]*' | awk '{print $3}' | head -1 || true)"
# "workflow min speedup 45.6x (...)" from the E1d summary line.
PW_WF_MIN_SPEEDUP="$(grep -o 'workflow min speedup [0-9.]*' "${PW_LOG}" | awk '{print $4}' | head -1 || true)"
# E1e streaming-certification summary lines.
E1E_ROWS="$(grep -o 'E1e standalone: rows=[0-9]*' "${PW_LOG}" | awk -F= '{print $2}' | head -1 || true)"
E1E_GAMMA="$(grep -o 'E1e standalone: rows=[0-9]* gamma=[0-9]*' "${PW_LOG}" | awk -F= '{print $3}' | head -1 || true)"
E1E_MS="$(grep -o 'E1e standalone: .* stream_ms=[0-9.]*' "${PW_LOG}" | awk -F= '{print $NF}' | head -1 || true)"
# E1f: the sharded subset-lattice summary line.
E1F_K="$(grep -o 'E1f sharded subset search: k=[0-9]*' "${PW_LOG}" | awk -F= '{print $2}' | head -1 || true)"
E1F_MINIMAL="$(grep -o 'minimal_sets=[0-9]*' "${PW_LOG}" | awk -F= '{print $2}' | head -1 || true)"
E1F_SEQ_MS="$(grep -o 'seq_ms=[0-9.]*' "${PW_LOG}" | awk -F= '{print $2}' | head -1 || true)"
E1F_SHARDED_MS="$(grep -o 'sharded_ms=[0-9.]*' "${PW_LOG}" | awk -F= '{print $2}' | head -1 || true)"
E1F_SHARDED_SPEEDUP="$(grep -o 'sharded_speedup=[0-9.]*' "${PW_LOG}" | awk -F= '{print $2}' | head -1 || true)"
rm -f "${PW_LOG}"

echo "== bench_standalone (world-walk benchmarks) =="
SA_T0="$(now_s)"
"${BUILD_DIR}/bench_standalone" \
  --benchmark_filter='WorldWalk|ShortCircuit' \
  --benchmark_format=json >"${BUILD_DIR}/bench_standalone_worldwalk.json"
SA_T1="$(now_s)"
SA_SECONDS="$(awk -v a="${SA_T0}" -v b="${SA_T1}" 'BEGIN{printf "%.3f", b-a}')"

echo "== bench_podsd (daemon throughput) =="
PODSD_LOG="$(mktemp)"
"${BUILD_DIR}/bench_podsd" | tee "${PODSD_LOG}"
# "E7 podsd: clients=4 requests=4000 seconds=0.71 rps=5633.8
#      p50_ms=0.051 p95_ms=0.102 p99_ms=0.184"
PODSD_RPS="$(grep -o 'rps=[0-9.]*' "${PODSD_LOG}" | awk -F= '{print $2}' | head -1 || true)"
PODSD_CLIENTS="$(grep -o 'clients=[0-9]*' "${PODSD_LOG}" | awk -F= '{print $2}' | head -1 || true)"
PODSD_P50="$(grep -o 'p50_ms=[0-9.]*' "${PODSD_LOG}" | awk -F= '{print $2}' | head -1 || true)"
PODSD_P95="$(grep -o 'p95_ms=[0-9.]*' "${PODSD_LOG}" | awk -F= '{print $2}' | head -1 || true)"
PODSD_P99="$(grep -o 'p99_ms=[0-9.]*' "${PODSD_LOG}" | awk -F= '{print $2}' | head -1 || true)"
# "E7 podsd idle: idle_conns=1000 ... reactor_p50_ms=0.055 ..." and the
# regression-guarded "podsd_idle_conns_supported=1000" line.
PODSD_IDLE_CONNS="$(grep -o 'podsd_idle_conns_supported=[0-9]*' "${PODSD_LOG}" | awk -F= '{print $2}' | head -1 || true)"
PODSD_IDLE_RPS="$(grep -o 'idle_rps=[0-9.]*' "${PODSD_LOG}" | awk -F= '{print $2}' | head -1 || true)"
PODSD_REACTOR_P50="$(grep -o 'reactor_p50_ms=[0-9.]*' "${PODSD_LOG}" | awk -F= '{print $2}' | head -1 || true)"
PODSD_REACTOR_P95="$(grep -o 'reactor_p95_ms=[0-9.]*' "${PODSD_LOG}" | awk -F= '{print $2}' | head -1 || true)"
PODSD_REACTOR_P99="$(grep -o 'reactor_p99_ms=[0-9.]*' "${PODSD_LOG}" | awk -F= '{print $2}' | head -1 || true)"
rm -f "${PODSD_LOG}"

echo "== bench_memo (shared verdict cache, cross-request reuse) =="
MEMO_LOG="$(mktemp)"
"${BUILD_DIR}/bench_memo" | tee "${MEMO_LOG}"
# "E9 memo: requests=256 cold_ms=84.1 warm_ms=2.3 cache_batch_speedup=36.56"
# "E9 memo: verdict_cache_hit_rate=0.998 cache_bytes=51234"
MEMO_SPEEDUP="$(grep -o 'cache_batch_speedup=[0-9.]*' "${MEMO_LOG}" | awk -F= '{print $2}' | head -1 || true)"
MEMO_HIT_RATE="$(grep -o 'verdict_cache_hit_rate=[0-9.]*' "${MEMO_LOG}" | awk -F= '{print $2}' | head -1 || true)"
MEMO_COLD_MS="$(grep -o 'cold_ms=[0-9.]*' "${MEMO_LOG}" | awk -F= '{print $2}' | head -1 || true)"
MEMO_WARM_MS="$(grep -o 'warm_ms=[0-9.]*' "${MEMO_LOG}" | awk -F= '{print $2}' | head -1 || true)"
MEMO_CACHE_BYTES="$(grep -o 'cache_bytes=[0-9]*' "${MEMO_LOG}" | awk -F= '{print $2}' | head -1 || true)"
rm -f "${MEMO_LOG}"

echo "== bench_optimizer (wave branch-and-bound, E10) =="
OPT_LOG="$(mktemp)"
"${BUILD_DIR}/bench_optimizer" | tee "${OPT_LOG}"
# "E10 optimizer: pruned_ms=301.2 parallel_ms=120.8"
# "E10 optimizer: bnb_parallel_speedup_x=2.49"
# "E10 optimizer: greedy_ratio=1.18 rounding_ratio=1.07 threshold_ratio=1.24 exact_cost=193.4"
OPT_PAR_SPEEDUP="$(grep -o 'bnb_parallel_speedup_x=[0-9.]*' "${OPT_LOG}" | awk -F= '{print $2}' | head -1 || true)"
OPT_PRUNED_MS="$(grep -o 'pruned_ms=[0-9.]*' "${OPT_LOG}" | awk -F= '{print $2}' | tail -1 || true)"
OPT_PARALLEL_MS="$(grep -o 'parallel_ms=[0-9.]*' "${OPT_LOG}" | awk -F= '{print $2}' | tail -1 || true)"
OPT_GREEDY_RATIO="$(grep -o 'greedy_ratio=[0-9.]*' "${OPT_LOG}" | awk -F= '{print $2}' | head -1 || true)"
OPT_ROUNDING_RATIO="$(grep -o 'rounding_ratio=[0-9.]*' "${OPT_LOG}" | awk -F= '{print $2}' | head -1 || true)"
OPT_THRESHOLD_RATIO="$(grep -o 'threshold_ratio=[0-9.]*' "${OPT_LOG}" | awk -F= '{print $2}' | head -1 || true)"
rm -f "${OPT_LOG}"

GIT_REV="$(git -C "${REPO_ROOT}" rev-parse --short HEAD 2>/dev/null || echo unknown)"

# standalone_min_speedup_x duplicates e1c_min_speedup_x under the name the
# CI bench-regression guard reads; the old key stays for trajectory
# continuity with earlier PRs. The fresh record is composed to a temp file
# first, then merged with the previous ${OUT}'s history so the trajectory
# across PRs survives each run (top-level keys stay the latest snapshot,
# which is what bench/check_regression.py reads).
LATEST_JSON="$(mktemp)"
cat >"${LATEST_JSON}" <<EOF
{
  "date_utc": "$(date -u +%Y-%m-%dT%H:%M:%SZ)",
  "git_rev": "${GIT_REV}",
  "host_threads": $(nproc),
  "short_mode": ${BENCH_SHORT:-0},
  "bench_possible_worlds_seconds": ${PW_SECONDS},
  "e1c_min_speedup_x": ${PW_MIN_SPEEDUP:-null},
  "standalone_min_speedup_x": ${PW_MIN_SPEEDUP:-null},
  "workflow_min_speedup_x": ${PW_WF_MIN_SPEEDUP:-null},
  "e1e_stream_rows": ${E1E_ROWS:-null},
  "e1e_stream_gamma": ${E1E_GAMMA:-null},
  "e1e_stream_ms": ${E1E_MS:-null},
  "e1f_sharded_search_k": ${E1F_K:-null},
  "e1f_minimal_sets": ${E1F_MINIMAL:-null},
  "k24_seq_search_ms": ${E1F_SEQ_MS:-null},
  "k24_sharded_search_ms": ${E1F_SHARDED_MS:-null},
  "sharded_search_speedup_x": ${E1F_SHARDED_SPEEDUP:-null},
  "bench_standalone_worldwalk_seconds": ${SA_SECONDS},
  "bench_standalone_detail": "${BUILD_DIR}/bench_standalone_worldwalk.json",
  "podsd_throughput_rps": ${PODSD_RPS:-null},
  "podsd_bench_clients": ${PODSD_CLIENTS:-null},
  "podsd_p50_ms": ${PODSD_P50:-null},
  "podsd_p95_ms": ${PODSD_P95:-null},
  "podsd_p99_ms": ${PODSD_P99:-null},
  "podsd_idle_conns_supported": ${PODSD_IDLE_CONNS:-null},
  "podsd_idle_rps": ${PODSD_IDLE_RPS:-null},
  "podsd_reactor_p50_ms": ${PODSD_REACTOR_P50:-null},
  "podsd_reactor_p95_ms": ${PODSD_REACTOR_P95:-null},
  "podsd_reactor_p99_ms": ${PODSD_REACTOR_P99:-null},
  "memo_cold_ms": ${MEMO_COLD_MS:-null},
  "memo_warm_ms": ${MEMO_WARM_MS:-null},
  "verdict_cache_bytes": ${MEMO_CACHE_BYTES:-null},
  "verdict_cache_hit_rate": ${MEMO_HIT_RATE:-null},
  "cache_batch_speedup_x": ${MEMO_SPEEDUP:-null},
  "bnb_pruned_ms": ${OPT_PRUNED_MS:-null},
  "bnb_parallel_ms": ${OPT_PARALLEL_MS:-null},
  "bnb_parallel_speedup_x": ${OPT_PAR_SPEEDUP:-null},
  "bnb_greedy_ratio": ${OPT_GREEDY_RATIO:-null},
  "bnb_rounding_ratio": ${OPT_ROUNDING_RATIO:-null},
  "bnb_threshold_ratio": ${OPT_THRESHOLD_RATIO:-null}
}
EOF
python3 - "${LATEST_JSON}" "${OUT}" <<'PY'
import json
import sys

HIST_KEYS = [
    "date_utc", "git_rev", "host_threads", "short_mode",
    "standalone_min_speedup_x", "workflow_min_speedup_x",
    "e1e_stream_ms",
    "e1f_sharded_search_k",
    "k24_seq_search_ms", "k24_sharded_search_ms",
    "sharded_search_speedup_x", "podsd_throughput_rps",
    "podsd_p50_ms", "podsd_p95_ms", "podsd_p99_ms",
    "podsd_idle_conns_supported", "podsd_idle_rps",
    "podsd_reactor_p50_ms", "podsd_reactor_p95_ms", "podsd_reactor_p99_ms",
    "verdict_cache_hit_rate", "cache_batch_speedup_x",
    "bnb_parallel_speedup_x",
    "bnb_greedy_ratio", "bnb_rounding_ratio", "bnb_threshold_ratio",
]

latest_path, out_path = sys.argv[1], sys.argv[2]
with open(latest_path) as f:
    latest = json.load(f)

history = []
try:
    with open(out_path) as f:
        prev = json.load(f)
    history = prev.get("history", [])
    if not history:
        # The previous record predates the history array: seed it with that
        # run's snapshot so the earliest measured point is not lost.
        history = [{k: prev[k] for k in HIST_KEYS if k in prev}]
except (OSError, ValueError):
    pass

history.append({k: latest[k] for k in HIST_KEYS if k in latest})
latest["history"] = history
with open(out_path, "w") as f:
    json.dump(latest, f, indent=2)
    f.write("\n")
PY
rm -f "${LATEST_JSON}"
echo "wrote ${OUT} ($(python3 -c "import json;print(len(json.load(open('${OUT}'))['history']))") history entries)"
