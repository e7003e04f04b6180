#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given arguments. Every build artefact, temporary directory and
# span file stays under .bench_build/ at the checkout root.
#
#   bash perfbench/run.sh --workload warm-large --seed 1 --seconds 25 --trace 0
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$here" && go build -o "$build/perfbench" .)
# From the checkout root, so the environment record finds .git.
cd "$root"
exec "$build/perfbench" -tmp "$build/tmp" -spans "$build/spans.jsonl" "$@"
