#!/bin/sh
# Transcript of the inverse-image demo on the shipped slope_drive asset:
# five seeded draws with `scenkit sample-logical`, their manifest, then
# `scenkit invert` on each drawn trace at two tolerances; then the same
# round trip for one draw of a zero-horizon scenario, whose trace has one
# row. Each line is followed by its exit code. Run from the repository root; `scenkit` runs
# as `python3 -m scenkit.cli` from the checkout's `src`:
#
#   sh scripts/invert_slope.sh | diff scripts/expected/invert_slope.txt -
export PYTHONPATH="$(pwd)/src${PYTHONPATH:+:$PYTHONPATH}"
scenkit() { python3 -m scenkit.cli "$@"; }
spec="$(pwd)/src/scenkit/assets/slope_drive.scn"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1
scenkit sample-logical "$spec" --scenario slope_drive --count 5 --seed 11 --out-dir slope
echo "exit $?"
cat slope/manifest.json
for i in 0 1 2 3 4; do
  for tol in 1e-6 1e-2; do
    scenkit invert "$spec" --scenario slope_drive --trace "slope/sample-0000$i.csv" --tol "$tol"
    echo "exit $?"
  done
done
cat > still.scn <<'SPEC'
schema line { pos: m }

logical still {
  param rate: range(1, 3)
  start { line.pos = 0 }
  bind drift(pos = rate)
  horizon 0 s step 0.1 s
}
SPEC
scenkit sample-logical still.scn --scenario still --count 1 --seed 11 --out-dir still
echo "exit $?"
scenkit invert still.scn --scenario still --trace still/sample-00000.csv --tol 1e-6
echo "exit $?"
