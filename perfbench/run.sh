#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from anywhere inside a checkout of the repository. The binary, the
# Go build cache and any module cache live under .bench_build/ at the
# checkout root, so nothing is read or written outside the checkout apart
# from the Go toolchain itself.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "perfbench: $root is not a checkout of the repository (no go.mod or internal/); nothing to benchmark" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
