#!/bin/sh
# Transcript of every scenkit command on the shipped assets: each
# command's stdout followed by its exit code, then every path the
# commands left in the work directory, sorted, and the sha256 of every
# file. Run from the repository root; `scenkit` runs as
# `python3 -m scenkit.cli` from the checkout's `src`:
#
#   sh scripts/cli_transcript.sh | diff scripts/expected/cli_transcript.txt -
export PYTHONPATH="$(pwd)/src${PYTHONPATH:+:$PYTHONPATH}"
scenkit() { python3 -m scenkit.cli "$@"; }
assets="$(pwd)/src/scenkit/assets"
slope="$assets/slope_drive.scn"
straight="$assets/straight_drive.scn"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1
run() {
  echo "\$ scenkit $*" | sed "s#$assets/##"
  scenkit "$@"
  echo "exit $?"
}
printf 'schema s { x: m }\nlogical broken {\n  horizon 1 s step\n}\n' > broken.scn
printf 'fixture never = always[<=0] true\n' > window.scn
printf 'schema s { x: m }\nabstract a { use s horizon 1e400 s step 1e400 s constraint true }\n' > nan_grid.scn
printf 'schema s { x: m } abstract a { use s horizon 1 s step 1 s constraint always pred(x in [0 * inf, 0 * inf]) }\n' > nan_pred.scn
printf 'schema s { x: m, y: m } logical l { start { s.x = 0, s.y = 0 } bind constant_velocity(vz = 3) horizon 1 s step 1 s }\n' > factory_args.scn
printf 'schema s { x: m } abstract a { use s horizon 1.5 s step 1 s constraint true }\n' > half_step.scn

run validate "$slope"
run validate "$straight"
run validate broken.scn
run validate missing.scn
run validate window.scn
run validate nan_grid.scn
run validate nan_pred.scn
run validate factory_args.scn
run validate half_step.scn

run sample-logical "$slope" --scenario slope_drive --count 3 --seed 5 --out-dir slope
run sample-logical "$straight" --scenario straight_drive --count 1 --seed 1 --out-dir straight
run sample-logical "$straight" --scenario speed_choices --count 4 --seed 2 --out-dir choices
run sample-logical "$straight" --scenario no_such --count 1 --seed 1 --out-dir unknown

run sample-abstract "$straight" --scenario reach --count 2 --strategy uniform-leaf --seed 3 --out-dir reach-sample
run enumerate "$straight" --scenario reach --out-dir reach-enum

head -n 51 straight/sample-00000.csv > prefix.csv
run monitor "$straight" --scenario reach --trace straight/sample-00000.csv
run monitor "$straight" --scenario reach --trace prefix.csv
run monitor "$straight" --scenario reach --trace choices/sample-00000.csv
run monitor "$straight" --scenario reach --trace missing.csv
sed '4s/^[^,]*/0.1x/' straight/sample-00000.csv > bad_cell.csv
sed '4s/^[^,]*/nan/' straight/sample-00000.csv > nan_time.csv
run monitor "$straight" --scenario reach --trace bad_cell.csv
run monitor "$straight" --scenario reach --trace nan_time.csv

run invert "$slope" --scenario slope_drive --trace slope/sample-00001.csv --tol 1e-6
cp slope/sample-00001.csv bad_sidecar.csv
printf '{"dimensions": [{"name": "x"}]}\n' > bad_sidecar.csv.schema.json
run invert "$slope" --scenario slope_drive --trace bad_sidecar.csv --tol 1e-6
run encode-logical "$straight" --scenario speed_choices
run demo-spec-complexity --n 40
run count-rural --n 3 --m 2
run synth-rural --n 2 --m 1 --limit 3 --out-dir rural

echo "\$ find . | sort"
find . | LC_ALL=C sort
echo "\$ sha256sum"
find . -type f | LC_ALL=C sort | xargs sha256sum
