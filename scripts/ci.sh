#!/usr/bin/env bash
# CI driver, seven stages:
#   plain  build (TVEG_WERROR=ON: -Werror + the hardened -Wconversion
#          -Wdouble-promotion -Wnon-virtual-dtor tier) + full test suite
#   obs    observability end-to-end: a threaded sweep with --trace-out and
#          --flight-out, an independent Python validation of the Perfetto
#          trace (worker tracks, queue waits, matched B/E pairs), plus the
#          trace-schema and span-overhead ctests re-run in isolation
#   lint   scripts/lint.sh — clang-tidy and the -Werror=thread-safety
#          build (both when clang is available) + tveg-lint (text rules,
#          header isolation, suppression audit) + tveg-analyze (cross-TU
#          manifests / lock order / noexcept boundaries). The stage reuses
#          this script's build-ci tree via TVEG_LINT_BUILD_DIR, so it adds
#          two tool links to an incremental build instead of a second
#          configure-from-scratch.
#   fuzz   scripts/fuzz.sh smoke: coverage-guided libFuzzer for a short
#          budget when clang is available, pinned-corpus replay through
#          the plain build's replay drivers otherwise
#   asan   suite under AddressSanitizer; also drives the malformed-input
#          trace corpus through the CLI parser, so every rejection path
#          runs under ASan with real file I/O
#   ubsan  suite under UndefinedBehaviorSanitizer
#   tsan   suite under ThreadSanitizer — the ThreadPool / Monte-Carlo /
#          parallel-solve stress tests provoke the contention TSan needs
#   soak   resource-governance soak: governed multi-worker sweeps through
#          the real CLI across budget ladders (including a zero budget that
#          sheds every request), both shed policies and a one-slot
#          admission bound, plus the CancelStorm suite re-run on the TSan
#          build
#
# Usage: scripts/ci.sh [--fast] [--bench]
#   --fast   plain build + ctest + lint.sh --lint-only (skips obs, the
#            clang-tidy/thread-safety lint layers, the fuzz smoke, and the
#            sanitizer and soak tiers — but never tveg-lint or
#            tveg-analyze: the project invariant checkers gate every speed
#            setting; the fuzz.corpus_replay ctests still ran with the
#            plain suite)
#   --bench  additionally run perfbench/counter_test.py (benchmark counters
#            repeat) and scripts/bench_gate.sh (bench regression gate)
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
FAST=0
BENCH=0
for arg in "$@"; do
  case "${arg}" in
    --fast) FAST=1 ;;
    --bench) BENCH=1 ;;
    *) echo "unknown argument: ${arg}" >&2; exit 2 ;;
  esac
done

GENERATOR=()
command -v ninja >/dev/null 2>&1 && GENERATOR=(-G Ninja)

run_suite() {
  local name="$1" build_dir="$2"
  shift 2
  echo "==== [${name}] configure ===="
  cmake -B "${build_dir}" -S "${REPO_ROOT}" "${GENERATOR[@]}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo "$@"
  echo "==== [${name}] build ===="
  cmake --build "${build_dir}" -j "${JOBS}"
  echo "==== [${name}] ctest ===="
  ctest --test-dir "${build_dir}" -j "${JOBS}" --output-on-failure
}

drive_corpus() {
  # Feed every malformed trace in the corpus to the real CLI under the
  # sanitized binary; each must be rejected with a clean exit code 2 (a
  # crash or sanitizer report fails the pipeline via the exit-code check).
  local build_dir="$1"
  local tmedb="${build_dir}/src/cli/tmedb"
  local corpus="${REPO_ROOT}/tests/trace/corpus"
  echo "==== [asan] malformed-input corpus through the CLI ===="
  local n=0
  for f in "${corpus}"/*.trace; do
    local rc=0
    "${tmedb}" stats "$f" >/dev/null 2>&1 || rc=$?
    if [[ "${rc}" -ne 2 ]]; then
      echo "corpus file ${f} exited with ${rc}, expected clean rejection (2)"
      exit 1
    fi
    n=$((n + 1))
  done
  echo "corpus: ${n} malformed traces cleanly rejected under ASan"
}

# CI builds the plain suite with the hardened warning tier fatal; the
# sanitizer suites keep TVEG_WERROR off so a sanitizer-instrumentation
# quirk can never mask a real race/overflow report behind a build failure.
drive_obs() {
  # End-to-end observability check on the plain build: generate a small
  # trace, sweep it with 4 workers and both outputs armed, then validate the
  # Perfetto JSON independently of the in-binary validator — the sweep must
  # show at least two pool-worker tracks with queue-wait and phase spans.
  local build_dir="$1"
  local tmedb="${build_dir}/src/cli/tmedb"
  local work
  work="$(mktemp -d)"
  echo "==== [obs] threaded sweep with --trace-out / --flight-out ===="
  "${tmedb}" generate --kind snapshots --nodes 12 --horizon 2000 --seed 3 \
      --out "${work}/ci.trace"
  "${tmedb}" sweep "${work}/ci.trace" --from 1000 --to 2000 --step 500 \
      --threads 4 --trace-out "${work}/sweep.perfetto.json" \
      --flight-out "${work}/sweep.flight.txt"
  [[ -s "${work}/sweep.flight.txt" ]] || {
    echo "flight recorder produced no dump"; exit 1; }
  grep -q "flight-recorder:" "${work}/sweep.flight.txt" || {
    echo "flight dump header missing"; exit 1; }
  python3 - "${work}/sweep.perfetto.json" <<'PYEOF'
import collections
import json
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
names = {e["args"]["name"]: e["tid"] for e in events
         if e["ph"] == "M" and e["name"] == "thread_name"}
workers = [n for n in names if n.startswith("pool-worker-")]
assert len(workers) >= 2, f"want >=2 worker tracks, got {sorted(names)}"
phases = {e["name"] for e in events if e["ph"] in ("B", "X")}
for want in ("queue_wait", "pool_task", "aux_dcs_fill"):
    assert want in phases, f"span '{want}' missing from {sorted(phases)}"
stacks = collections.defaultdict(list)
last_ts = collections.defaultdict(float)
for e in events:
    if e["ph"] not in ("B", "E"):
        continue
    tid = e["tid"]
    assert e["ts"] >= last_ts[tid], f"ts went backwards on tid {tid}"
    last_ts[tid] = e["ts"]
    if e["ph"] == "B":
        stacks[tid].append(e["name"])
    else:
        assert stacks[tid] and stacks[tid].pop() == e["name"], \
            f"unmatched E:{e['name']} on tid {tid}"
assert not any(stacks.values()), f"unclosed spans: {dict(stacks)}"
print(f"obs: {len(events)} events, {len(workers)} worker tracks, "
      f"{len(phases)} span names — trace is well-formed")
PYEOF
  rm -rf "${work}"
  echo "==== [obs] trace-schema + overhead ctests ===="
  ctest --test-dir "${build_dir}" --output-on-failure \
        -R 'Perfetto|Span|Overhead|FlightRecorder'
}

drive_soak() {
  # Governance soak on the plain build: the same trace swept governed under
  # a ladder of per-request budgets — unlimited, tight, and zero (which must
  # shed every request yet still exit 0 under the degrade policy) — with a
  # watchdog armed, under both shed policies.
  # Then the cancellation-storm suite re-runs on the TSan build, where the
  # cross-thread cancel/watchdog traffic is instrumented.
  local build_dir="$1" tsan_dir="$2"
  local tmedb="${build_dir}/src/cli/tmedb"
  local work
  work="$(mktemp -d)"
  echo "==== [soak] governed sweeps across budget ladders ===="
  "${tmedb}" generate --kind snapshots --nodes 12 --horizon 2000 --seed 7 \
      --out "${work}/soak.trace"
  for budget in -1 50 0; do
    "${tmedb}" sweep "${work}/soak.trace" --from 1000 --to 2000 --step 500 \
        --threads 4 --request-budget-ms "${budget}" --stall-ms 30000 \
        --shed-policy degrade \
        > "${work}/sweep-${budget}.out"
  done
  # Zero budget + degrade: every EEDCB cell fell back — the * marker from
  # the fallback ladder must appear.
  grep -q '\*' "${work}/sweep-0.out" || {
    echo "zero-budget governed sweep produced no degraded cells"; exit 1; }
  # Zero budget + error policy: requests fail ('!') instead of degrading,
  # and the sweep still exits cleanly — isolation, not abort.
  "${tmedb}" sweep "${work}/soak.trace" --from 1000 --to 2000 --step 500 \
      --threads 4 --request-budget-ms 0 --shed-policy error \
      > "${work}/sweep-error.out"
  grep -q '!' "${work}/sweep-error.out" || {
    echo "zero-budget error-policy sweep reported no failed requests"; exit 1; }
  # Admission bound: with one slot, later requests are shed to GREED.
  "${tmedb}" run "${work}/soak.trace" --algorithm EEDCB --deadline 1500 \
      --threads 4 --max-inflight 1 --request-budget-ms 5000 \
      > "${work}/run-governed.out"
  grep -q 'solver rung' "${work}/run-governed.out" || {
    echo "governed run did not report its solver rung"; exit 1; }
  rm -rf "${work}"
  echo "==== [soak] CancelStorm suite on the TSan build ===="
  ctest --test-dir "${tsan_dir}" --output-on-failure -R 'CancelStorm'
}

run_suite "plain" "${REPO_ROOT}/build-ci" -DTVEG_WERROR=ON

drive_fuzz() {
  # Fuzz smoke: coverage-guided for a short budget when clang is on the
  # PATH, otherwise a corpus replay through the plain build's replay
  # drivers (scripts/fuzz.sh picks the mode). Either way the pinned corpus
  # must come through clean.
  echo "==== [fuzz] scripts/fuzz.sh smoke ===="
  FUZZ_SECONDS=10 BUILD_DIR="${REPO_ROOT}/build-ci" \
      "${REPO_ROOT}/scripts/fuzz.sh"
}

if [[ "${FAST}" -eq 1 ]]; then
  echo "==== [lint] scripts/lint.sh --lint-only ===="
  TVEG_LINT_BUILD_DIR="${REPO_ROOT}/build-ci" \
      "${REPO_ROOT}/scripts/lint.sh" --lint-only
else
  drive_obs "${REPO_ROOT}/build-ci"
  drive_fuzz
  echo "==== [lint] scripts/lint.sh ===="
  TVEG_LINT_BUILD_DIR="${REPO_ROOT}/build-ci" "${REPO_ROOT}/scripts/lint.sh"
  run_suite "asan" "${REPO_ROOT}/build-asan" -DTVEG_SANITIZE=address
  drive_corpus "${REPO_ROOT}/build-asan"
  run_suite "ubsan" "${REPO_ROOT}/build-ubsan" -DTVEG_SANITIZE=undefined
  run_suite "tsan" "${REPO_ROOT}/build-tsan" -DTVEG_SANITIZE=thread
  drive_soak "${REPO_ROOT}/build-ci" "${REPO_ROOT}/build-tsan"
fi

if [[ "${BENCH}" -eq 1 ]]; then
  # The end-to-end benchmark's work counters (Steiner runs, settles,
  # relaxations, ...) must repeat exactly for a seed. This deterministic
  # check runs first, so a timing-gate failure cannot skip it.
  echo "==== [bench] perfbench/counter_test.py ===="
  (cd "${REPO_ROOT}" && python3 perfbench/counter_test.py)
  echo "==== [bench] scripts/bench_gate.sh ===="
  BUILD_DIR="${REPO_ROOT}/build-ci" "${REPO_ROOT}/scripts/bench_gate.sh"
fi

echo "==== CI green ===="
