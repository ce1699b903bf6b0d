#!/bin/sh
# Figure 10 compares against the clustered c_mNoC model, which is fixed
# at 256 cores: any other MNOC_BENCH_CORES must stop with exit 1 and
# one fatal line naming the knob, not abort in std::terminate.
#
# Usage: test_fig10_cores.sh <fig10_energy_breakdown binary>
set -eu

bin=${1:?usage: test_fig10_cores.sh <fig10_energy_breakdown binary>}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir"

status=0
MNOC_BENCH_CORES=64 "$bin" > /dev/null 2> err.txt || status=$?
cat err.txt
[ "$status" -eq 1 ]
[ "$(wc -l < err.txt)" -eq 1 ]
grep -q "^fatal: MNOC_BENCH_CORES=64: .*256 cores" err.txt
