#!/usr/bin/env bash
# Build recdb and the benchmark from source, then run one workload:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the repository root.  Build output goes to stderr, so the
# last line on stdout is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
# Keep the build inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . ./bin/recdb.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
