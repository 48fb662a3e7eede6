#!/bin/sh
# The README quickstart on a small trace: every documented command through
# the `satool` entry point, then the determinism checks.  gen-trace,
# calibrate and run are repeated into second directories, and each pair must
# match byte for byte, manifests included.  The last run is the ungated band.
#
#   scripts/quickstart.sh [OUT_DIR]      (default: qs)
#
# Set SATOOL to run another command line, e.g. SATOOL="python -m satool.cli"
# with src/ on PYTHONPATH when the package is not installed.
set -eu
out=${1:-qs}
satool=${SATOOL:-satool}
trace="$out/trace/trace.satr"

$satool gen-trace --out "$out/trace" --layers 2 --heads 3 --tokens 16 --steps 6 --block-size 4
$satool analyze   --trace "$trace" --out "$out/report"
$satool calibrate --trace "$trace" --out "$out/calib" --budget shared:0.9
$satool run       --trace "$trace" --out "$out/run30" --table "$out/calib/calibration.json" --delta 30
$satool perturb   --trace "$trace" --out "$out/pert" --alpha 0.1 --seeds 0,1,2,3
$satool footprint --layers 30 --heads 12 --tokens 32760 --head-dim 128

$satool gen-trace --out "$out/trace2" --layers 2 --heads 3 --tokens 16 --steps 6 --block-size 4
diff -r "$out/trace" "$out/trace2"
$satool calibrate --trace "$trace" --out "$out/calib2" --budget shared:0.9
diff -r "$out/calib" "$out/calib2"
$satool run       --trace "$trace" --out "$out/run30b" --table "$out/calib/calibration.json" --delta 30
diff -r "$out/run30" "$out/run30b"
$satool run       --trace "$trace" --out "$out/open" --delta 30 --gate-lo 0 --gate-hi 1
