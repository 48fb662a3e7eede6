#!/bin/sh
# The README quickstart on a small trace: every documented command through
# the `satool` entry point, then the determinism checks.  Every command that
# writes files (gen-trace, analyze, calibrate, run and perturb) is repeated
# into a second directory, and each pair must match byte for byte, manifests
# included.  The mse objective is calibrated twice and diffed, then run on
# its table.  One calibrate also runs the brute-force oracle over all 729
# assignments of the 2x3 heads and fails unless the solver picks its
# selection; its outputs must equal the plain calibrate's.  The last good
# run is the ungated band.  Then `run` on a copy of the trace with one NaN
# payload value must exit 1 with error:trace-format and write nothing, and
# last `analyze --tau x`, a value click cannot convert, must exit 1 with
# error:domain and write nothing.
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
$satool analyze   --trace "$trace" --out "$out/report2"
diff -r "$out/report" "$out/report2"
$satool calibrate --trace "$trace" --out "$out/calib2" --budget shared:0.9
diff -r "$out/calib" "$out/calib2"
$satool run       --trace "$trace" --out "$out/run30b" --table "$out/calib/calibration.json" --delta 30
diff -r "$out/run30" "$out/run30b"
$satool perturb   --trace "$trace" --out "$out/pert2" --alpha 0.1 --seeds 0,1,2,3
diff -r "$out/pert" "$out/pert2"
$satool calibrate --trace "$trace" --out "$out/oracle" --budget shared:0.9 --check-oracle
diff -r "$out/calib" "$out/oracle"
$satool calibrate --trace "$trace" --out "$out/mse" --budget shared:0.9 --error mse
$satool calibrate --trace "$trace" --out "$out/mse2" --budget shared:0.9 --error mse
diff -r "$out/mse" "$out/mse2"
$satool run       --trace "$trace" --out "$out/run-mse" --table "$out/mse/calibration.json" --delta 30
$satool run       --trace "$trace" --out "$out/open" --delta 30 --gate-lo 0 --gate-hi 1

# The NaN goes in the first payload value: the little-endian float32 at
# byte 68, right after the header.
bad="$out/nan.satr"
cp "$trace" "$bad"
printf '\000\000\300\177' | dd of="$bad" bs=1 seek=68 conv=notrunc 2>/dev/null
status=0
$satool run       --trace "$bad" --out "$out/nan-run" 2>"$out/nan.err" || status=$?
if [ "$status" -ne 1 ] || ! grep -q '^error:trace-format: ' "$out/nan.err" || [ -e "$out/nan-run" ]; then
    echo "quickstart: a NaN payload value gave exit $status: $(cat "$out/nan.err")" >&2
    exit 1
fi

status=0
$satool analyze   --trace "$trace" --out "$out/bad-tau" --tau x 2>"$out/bad-tau.err" || status=$?
if [ "$status" -ne 1 ] || ! grep -q '^error:domain: ' "$out/bad-tau.err" || [ -e "$out/bad-tau" ]; then
    echo "quickstart: analyze --tau x gave exit $status: $(cat "$out/bad-tau.err")" >&2
    exit 1
fi
