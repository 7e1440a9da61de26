#!/usr/bin/env bash
# Build the benchmark and the daemon from source, then run one
# benchmark run. Run from the repository root:
#   bash sxbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Build output goes to _build/ and run files to .sxbench/, both inside
# the repository; dune's shared cache is disabled so nothing is written
# elsewhere.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet sxbench/sxbench.exe bin/sxopt.exe >&2
exec ./_build/default/sxbench/sxbench.exe --sxopt ./_build/default/bin/sxopt.exe "$@"
