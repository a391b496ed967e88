#!/usr/bin/env bash
# Builds the benchmark and the pcapd daemon from this checkout's sources,
# then runs the benchmark with the given arguments. Run it from the root
# of the checkout:
#
#   bash _perfbench/run.sh --workload suite --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binaries, generated trace files,
# daemon temporary files and span files.
set -euo pipefail
root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/bin" "${build}/config"
export GOCACHE="${build}/gocache" GOPATH="${build}/gopath" XDG_CONFIG_HOME="${build}/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
if [[ -z "${PERFBENCH_COMMIT:-}" ]] && command -v git >/dev/null 2>&1; then
	PERFBENCH_COMMIT="$(git -C "${root}" rev-parse HEAD 2>/dev/null || true)"
	export PERFBENCH_COMMIT
fi
(
	cd "${root}/_perfbench"
	go build -o "${build}/bin/perfbench" .
	go build -o "${build}/bin/pcapd" pcapsim/cmd/pcapd
) >&2
exec "${build}/bin/perfbench" -pcapd "${build}/bin/pcapd" -work "${build}/work" "$@"
