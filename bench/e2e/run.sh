#!/usr/bin/env bash
# Builds sit_serve and sitbench from source, then runs one benchmark
# invocation from the repository root:
#
#   bash bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr, so the last line on stdout is the
# result's JSON object.
set -euo pipefail
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ] || [ ! -d lib/server ] || [ ! -d bin ]; then
  echo "run.sh: $(pwd) is not a checkout of the repository" >&2
  exit 2
fi
dune build ./bin/sit_serve.exe ./bench/e2e/sitbench.exe >&2
exec ./_build/default/bench/e2e/sitbench.exe run \
  --serve ./_build/default/bin/sit_serve.exe "$@"
