#!/usr/bin/env bash
# Build the engine benchmark from this checkout and run it:
#
#   bash benchmark/run.sh --workload deep_k40 --seed 1 --seconds 30 --trace 0
#
# Run from the root of the checkout.  The build stays inside it (no shared
# dune cache) and its output goes to standard error, so the last line of
# standard output is the benchmark's JSON result.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "benchmark/run.sh: run from the root of a quantum_db checkout" >&2
  exit 2
fi
dune build --root . --cache=disabled ./benchmark/qdb_bench.exe >&2
exec ./_build/default/benchmark/qdb_bench.exe "$@"
