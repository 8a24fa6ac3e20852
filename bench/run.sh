#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload study-cold --seed 7 --seconds 12 --trace 0
#   bash bench/run.sh run -seed 2023 -out results.json
#   bash bench/run.sh compare base.json new.json
#
# Everything the build writes (compiler cache, binary, work directories)
# stays under .bench_build/ at the repository root. The bench module
# imports the coevo module from the parent directory, so outside a full
# checkout the build fails and the script exits non-zero.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"

mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
# The results file records the git revision; outside a work tree, do not
# let git look above the checkout for one.
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$root/bench" && go build -buildvcs=false -o "$build/coevo-bench" .)
exec "$build/coevo-bench" "$@"
