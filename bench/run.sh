#!/usr/bin/env bash
# Entry point BENCHMARK.json declares: builds the benchmark from source
# and runs it with everything it writes — build cache, binary, generated
# traces, aggregator state — under .bench_build/ in the checkout, and
# results under bench/out/.
#
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash bench/run.sh [--trace 1] [--repeat N]        the whole suite
#   bash bench/run.sh compare A.json B.json
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"

# XDG_CONFIG_HOME keeps the go command's own files (env, telemetry
# counters) in the checkout as well.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config"
(cd "$here" && go build -o "$build/semnids-bench" .) >&2

if [ "${1:-}" = compare ]; then
	exec "$build/semnids-bench" "$@"
fi
exec "$build/semnids-bench" -scratch "$build/tmp" -out "$here/out" "$@"
