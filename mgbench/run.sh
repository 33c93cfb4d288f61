#!/usr/bin/env bash
# Builds the benchmark and the libraries it links from source, then
# runs it with the given arguments (see mgbench/src/main.ml).  Run it
# from the root of a checkout:
#   bash mgbench/run.sh --workload npb-w --seed 1 --seconds 30 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
dune build --root . ./mgbench/src/main.exe 1>&2
exec ./_build/default/mgbench/src/main.exe "$@"
