#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument passes through to the benchmark binary:
#
#   bash perfbench/run.sh --workload fleet --seed 1996 --seconds 25 --trace 0
#
# Build cache, temporary files and outputs stay under .bench_build/ in the
# current directory.
set -euo pipefail

root=$(pwd)
if [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
mkdir -p "$GOTMPDIR" "$out/perfbench"

commit=unknown
if [ "$(git rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	commit=$(git rev-parse HEAD)
	if [ -n "$(git status --porcelain --untracked-files=no)" ]; then
		commit="$commit-dirty"
	fi
fi

(cd perfbench && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/perfbench/perfbench" .)
exec "$out/perfbench/perfbench" "$@"
