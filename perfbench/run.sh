#!/usr/bin/env bash
# Builds the benchmark and batserve from the libbat sources around this
# directory, then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve_points_warm --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build at the root of
# the checkout (CARGO_TARGET_DIR when set, as a relative path from there).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ ! -f "$root/go.mod" || ! -f "$root/libbat.go" ]]; then
	echo "perfbench: no libbat sources next to $here" >&2
	exit 2
fi
out="$root/${CARGO_TARGET_DIR:-.bench_build}"
case "${CARGO_TARGET_DIR:-}" in /*) out="$CARGO_TARGET_DIR" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/perfbench" . && go build -o "$out/batserve" libbat/cmd/batserve)
cd "$root"
exec "$out/perfbench" -work "$out/work" -batserve "$out/batserve" "$@"
