#!/usr/bin/env bash
# Build the ffc CLI and the benchmark from this checkout's sources, then
# run the benchmark with the given arguments (see perfbench/README.md).
set -euo pipefail
dune build --root . --cache=disabled ./bin/ffc_cli.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
