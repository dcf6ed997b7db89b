#!/usr/bin/env bash
# CI entry point: build, run the test suites, then smoke-run the bench
# harness and check that it produced a well-formed telemetry snapshot.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build =="
dune build

echo "== tests =="
dune runtest

echo "== engine benchmark: flash_crowd at full scale =="
# The runtest smoke runs every benchmark workload at 1/20 scale, which
# reaches only 30 flight partitions.  This runs flash_crowd at full size
# (600 partitions, about 2300 pending) with every correctness check on
# and the per-layer trace; run.sh exits non-zero on a failed check.
bash benchmark/run.sh --workload flash_crowd --seed 1 --seconds 1 --trace 1

echo "== engine benchmark: deep_k40 at full scale =="
# deep_k40 makes the deepest grounding searches of any workload (150 seats,
# 75 entangled pairs, k = 40).  One full-size round with every correctness
# check on and the per-layer trace; run.sh exits non-zero on a failed check.
bash benchmark/run.sh --workload deep_k40 --seed 1 --seconds 1 --trace 1

echo "== crash-monkey smoke =="
# 200 deterministic crash/recover cycles with fault injection; the
# subcommand exits 1 on any recovery-invariant violation.
dune exec bin/qdb_cli.exe -- crashmonkey --cycles 200 --seed 7

echo "== crash-monkey actor-routed =="
# Same contract with every post-fixture engine call round-tripping
# through an owning actor on a real spawned domain: the injected crash
# must propagate across the domain boundary and recovery must hold.
dune exec bin/qdb_cli.exe -- crashmonkey --cycles 50 --seed 7 --actors 2

echo "== admission sweep (incremental vs from-scratch) =="
# Pending-depth sweep at k in {5,10,20,40}, each with delta composition
# on and off; the bench itself exits non-zero when accept/reject
# outcomes diverge between the modes.
# Runs before the micro smoke so the final metrics.json carries the
# micro gauges the telemetry check expects.
rm -f results/BENCH_admission.json
dune exec bench/main.exe -- --only admission

echo "== admission regression gate =="
# Gate on the k=20 cost RELATIVE to the from-scratch ablation measured
# in the same process, not on absolute wall time: the incremental run is
# ~0.6ms total, where run-to-run machine noise alone exceeds 25%, while
# the relative cost is self-normalizing and still blows up if delta
# composition or witness seeding regresses toward from-scratch.  The
# comparator (schema/workload/determinism checks plus the per-schema
# gates) is `qdb_cli bench diff`, shared with the scaling gate below.
dune exec bin/qdb_cli.exe -- bench diff BENCH_admission.json results/BENCH_admission.json --gate 25

echo "== contention sweep (flash crowds) =="
# Flash-crowd workloads (ticket sales, hotel overbooking) driven into
# 10-50% rejection regimes, plus a budget-squeezed point that produces
# real Overloaded outcomes; the bench exits non-zero if the sweep is
# nondeterministic across back-to-back runs.
rm -f results/BENCH_contention.json
dune exec bench/main.exe -- --only contention

echo "== contention regression gate =="
# Outcome counts are pinned exactly (they are deterministic functions of
# the workload seed); latencies are recorded but never gated.  The gate
# also requires >= 1 point inside the 10-50% rejection band and a
# three-way accept/reject/overload latency split on every point.
dune exec bin/qdb_cli.exe -- bench diff BENCH_contention.json results/BENCH_contention.json --gate 25

echo "== chaos (engine-wide fault injection) =="
# 200 deterministic chaos cycles, each replayed inline and through an
# actor on a spawned domain: squeezed-governor admissions, poisoned
# refill/recheck jobs, bit-identical event traces across the two runs,
# invariant intact after every cycle.  The subcommand exits 1 on any
# violation.
dune exec bin/qdb_cli.exe -- chaos --cycles 200 --seed 1234

echo "== rejection-path smoke =="
# Over-capacity workload (6 seats, 16 travellers): asserts the rejected
# counters, rejected-outcome submit spans and flight-recorder records
# all fire; the bench exits non-zero on any violation.
dune exec bench/main.exe -- --only rejection

echo "== bench smoke (micro) =="
rm -f results/metrics.json
dune exec bench/main.exe -- --only micro

echo "== scaling smoke (--domains 1,2) =="
# The committed-baseline workload (10 flights x 150 seats) through
# partition actors at 1 and 2 requested domains: asserts identical admission outcomes
# across actor counts and real rejections/overloads on the contended
# companion points (the scaling subcommand exits non-zero on
# divergence).  On failure, a per-phase profile of the same workload is
# captured so the CI artifact shows where admission time went.
rm -f results/BENCH_scaling.json
dune exec bin/qdb_cli.exe -- scaling --domains 1,2 --out results/BENCH_scaling.json \
  || { mkdir -p results; \
       dune exec bin/qdb_cli.exe -- profile --top 10 > results/scaling_failure_profile.txt 2>&1 || true; \
       exit 1; }

echo "== scaling regression gate (no-slowdown, exact pins) =="
# Same comparator as the admission gate.  Schema v4 additionally gates:
# a phases_s entry for every flight-recorder phase, per-phase attribution
# >= 95% of measured actor busy time, speedup_vs_1 >= 0.90 at every point
# (more domains may never slow admission down), and real
# rejected/Overloaded outcomes on the contended companion series.  It
# pins exactly, against the baseline point with the same domain count,
# solver_nodes, solver_candidates, committed and rejected (638263 /
# 2194464 / 1500 / 0), and each contended point's
# committed/rejected/overloaded counts per (regime, domains).
dune exec bin/qdb_cli.exe -- bench diff BENCH_scaling.json results/BENCH_scaling.json --gate 25 \
  || { mkdir -p results; \
       dune exec bin/qdb_cli.exe -- profile --top 10 > results/scaling_failure_profile.txt 2>&1 || true; \
       exit 1; }

echo "== server smoke (serve / open-loop load / clean shutdown) =="
# Real socket round-trip in two processes: a served engine takes an
# open-loop burst from the load generator, then shuts down gracefully
# on SIGINT.  `load` exits 1 on any error response; `wait` surfaces the
# server's own exit status (1 on engine failure).
dune build bin/qdb_cli.exe
./_build/default/bin/qdb_cli.exe serve --port 7817 --sessions 2 --requests 100 --duration 60 &
SERVER_PID=$!
sleep 1
./_build/default/bin/qdb_cli.exe load --port 7817 --sessions 2 --requests 100 --hz 600
kill -INT "$SERVER_PID"
wait "$SERVER_PID"

echo "== crash-monkey server mode (acked implies durable) =="
# Live TCP sessions into the group-commit queue over a volatile write
# buffer; crashes arm at PRNG-chosen syncs.  Every acked admission must
# survive WAL replay; un-acked ones may vanish but never half-apply.
dune exec bin/qdb_cli.exe -- crashmonkey --server --cycles 30 --seed 7

echo "== server bench (group commit + admission latency) =="
# Loopback open-loop bench on a file-backed WAL, run twice with the same
# seed inside the subcommand; it records the warm run and the
# deterministic flag the gate requires.
rm -f results/BENCH_server.json
dune exec bin/qdb_cli.exe -- bench server --out results/BENCH_server.json

echo "== server regression gate =="
# Outcome counts pinned exactly to the committed baseline, zero error
# responses, mean group-commit batch size > 1, accept/reject
# p50/p99/p999 splits present.  The accept-p99 latency gate is generous
# (400%): absolute socket + fsync latency on shared CI hardware is
# noisy, while the structural checks above are exact.
dune exec bin/qdb_cli.exe -- bench diff BENCH_server.json results/BENCH_server.json --gate 400

echo "== telemetry check =="
if [ ! -f results/metrics.json ]; then
  echo "FAIL: bench run did not write results/metrics.json" >&2
  exit 1
fi
python3 - <<'EOF'
import json, sys
try:
    with open("results/metrics.json") as f:
        d = json.load(f)
except Exception as e:
    sys.exit(f"FAIL: results/metrics.json is not valid JSON: {e}")
for key in ("counters", "gauges", "histograms"):
    if key not in d:
        sys.exit(f"FAIL: results/metrics.json missing '{key}' section")
micro = [k for k in d["gauges"] if k.startswith("bench.micro.")]
if not micro:
    sys.exit("FAIL: no bench.micro.* gauges in results/metrics.json")
print(f"ok: metrics.json valid ({len(micro)} micro-bench gauges)")
EOF

echo "CI OK"
