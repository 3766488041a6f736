#!/usr/bin/env bash
# Builds the privmem benchmark from the source in this checkout and runs it.
# Usage (from the checkout root):
#   bash perfbench/run.sh --workload paper-full --seed 1 --seconds 10 --trace 0
# Every build artefact, the Go build cache and the benchmark's scratch files
# stay under .bench_build/perfbench in the checkout.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${root}/.bench_build/perfbench"
mkdir -p "${out}/gocache" "${out}/gotmp" "${out}/modcache"
export GOCACHE="${out}/gocache" GOTMPDIR="${out}/gotmp" GOMODCACHE="${out}/modcache"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
(cd "${here}" && go build -o "${out}/perfbench" .) >&2
commit="$(git -C "${root}" rev-parse HEAD 2>/dev/null || true)"
exec "${out}/perfbench" -root "${root}" -commit "${commit}" "$@"
