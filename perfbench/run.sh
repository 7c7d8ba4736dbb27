#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it:
#   bash perfbench/run.sh --workload ingest|serve|live --seed N --seconds S --trace 0|1
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" --dir "$build/work" "$@"
