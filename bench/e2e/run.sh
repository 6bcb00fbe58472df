#!/usr/bin/env bash
# Build the server binary and the benchmark in release mode, then run
# the benchmark from the repository root with the given arguments:
#   bash bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1
# The dune cache stays off so the build writes only under _build.
set -euo pipefail
dune build --root . --cache=disabled --profile release bin/scanatpg.exe bench/e2e/e2e.exe 1>&2
exec ./_build/default/bench/e2e/e2e.exe "$@"
