#!/bin/sh
# Rewrite goldens/*.csv (every sweeps/*.json and the six study figures)
# and goldens/{ci_smoke,netsim_storm}.traces.sha256 (the digests of those
# sweeps' run timelines, written to <build-dir>/goldens-traces) from the
# current tree.  Every golden diff must be explained in the commit that makes it.
#
#   goldens/update.sh [build-dir]     (default: build)
set -e
root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-$root/build}
cmake --build "$build" --target drowsy_sweep
cmake -DDROWSY_SWEEP="$build/drowsy_sweep" -DUPDATE=ON -DTRACE_DIR="$build/goldens-traces" \
  -P "$root/goldens/goldens.cmake"
git -C "$root" status --short -- goldens
