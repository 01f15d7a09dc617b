#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
#
#   bash perfbench/run.sh --workload <uts|hpgmg|bfs|isx-supervised|all> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build writes (Go build cache, temporary files, the
# binary) and every result and trace file stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" --root "$root" --out "$out/results" "$@"
