#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload:
#
#   bash e2ebench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# from the root of a checkout of the repository. Build output goes to
# stderr; the last line of stdout is the result (see e2e.ml).
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ]; then
  echo "e2ebench: not the root of a tsms checkout: $(pwd)" >&2
  exit 2
fi
# Keep the build inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . --display quiet e2ebench/e2e.exe >&2
exec _build/default/e2ebench/e2e.exe run "$@"
