#!/usr/bin/env bash
# Builds commchar's benchmark from the checkout's sources and runs it from
# the checkout's root; every file the build and the run write stays under
# .bench_build there. Arguments go to the benchmark (see main.go), e.g.
#
#   bash commbench/run.sh --workload cold-fit --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=-buildvcs=false
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
(cd commbench && go build -o "$build/commbench" .)
if [ -d .git ]; then
	COMMBENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || true)"
	export COMMBENCH_COMMIT
fi
exec "$build/commbench" "$@"
