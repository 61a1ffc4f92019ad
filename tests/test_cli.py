import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from scenkit import traceio
from scenkit.cli import EX_DATAERR, EX_NOINPUT, EX_USAGE, main
from scenkit.core import Trajectory, prefix
from scenkit.fixtures import (
    stop_at_origin_trajectory,
    straight_drive_trajectory,
    wrong_start_trajectory,
)

ASSETS = Path(__file__).resolve().parents[1] / "src" / "scenkit" / "assets"
DRIVE = str(ASSETS / "straight_drive.scn")
SLOPE = str(ASSETS / "slope_drive.scn")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_validate_ok(capsys):
    code, payload = run(capsys, "validate", DRIVE)
    assert code == 0
    assert payload["ok"] is True
    assert "reach" in payload["abstracts"]


def test_validate_reports_diagnostics(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("schema Broken {")
    code, payload = run(capsys, "validate", str(bad))
    assert code == EX_DATAERR
    assert payload["ok"] is False
    assert payload["diagnostics"]


@pytest.mark.parametrize(
    "text, rendered",
    [
        ("logical l { start { s.x = 1 / 0 } bind drift(x = 1) horizon 1 s step 0.1 s }",
         "RES003 at 2:1: division by zero"),
        ("logical l { param r: range(3, 1) start { s.x = r } bind drift(x = 1) "
         "horizon 1 s step 0.1 s }",
         "RES003 at 2:1: 'l': axis 'r': lo 3.0 > hi 1.0"),
        ("logical l { param r: set{1, 2} ~ weights(1) start { s.x = r } bind drift(x = 1) "
         "horizon 1 s step 0.1 s }",
         "RES003 at 2:1: 'l': axis 'r': weight count mismatch"),
        ("logical l { param r: range(1, 1e400) start { s.x = 0 } bind drift(x = r) "
         "horizon 1 s step 0.1 s }",
         "RES003 at 2:1: 'l': axis 'r': non-finite bound inf"),
        ("logical l { param r: range(-1e308, 1e308) start { s.x = 0 } bind drift(x = r) "
         "horizon 1 s step 0.1 s }",
         "RES003 at 2:1: 'l': axis 'r': width 1e+308 - -1e+308 is not finite"),
    ],
    ids=["division", "reversed-range", "weight-count", "infinite-range", "wide-range"],
)
def test_validate_reports_library_errors_as_diagnostics(tmp_path, capsys, text, rendered):
    bad = tmp_path / "bad.scn"
    bad.write_text("schema s { x: m }\n" + text)
    code, payload = run(capsys, "validate", str(bad))
    assert code == EX_DATAERR
    assert payload == {"ok": False, "diagnostics": [rendered]}


def test_sample_logical_refuses_a_weight_count_mismatch(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text(
        "schema s { x: m }\nlogical l { param r: set{1, 2} ~ weights(1) start { s.x = r } "
        "bind drift(x = 1) horizon 1 s step 0.1 s }"
    )
    code, payload = run(
        capsys, "sample-logical", str(bad), "--scenario", "l", "--count", "1", "--seed", "1",
        "--out-dir", str(tmp_path / "out"),
    )
    assert code == EX_DATAERR
    assert payload == {"ok": False, "diagnostics": ["RES003 at 2:1: 'l': axis 'r': weight count mismatch"]}


def test_missing_file_is_io_error(capsys):
    code, payload = run(capsys, "validate", "/nonexistent.scn")
    assert code == EX_NOINPUT


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample-logical", DRIVE])  # missing required options
    assert exc.value.code == EX_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == EX_USAGE


def test_demo_spec_complexity(capsys):
    code, payload = run(capsys, "demo-spec-complexity", "--n", "10")
    assert code == 0
    assert payload["leaves"] == 1024


def test_demo_spec_complexity_counts_without_enumerating(capsys):
    # 2**40 leaves: enumerating them would exceed the enumeration guard.
    assert main(["demo-spec-complexity", "--n", "40"]) == 0
    assert capsys.readouterr().out == '{"leaves": 1099511627776, "n": 40}\n'


def test_count_rural(capsys):
    code, payload = run(capsys, "count-rural", "--n", "3", "--m", "2")
    assert code == 0
    assert payload["closed_form"] == 360
    assert payload["enumerated"] == 360


def test_monitor_accepts_drive_trace(tmp_path, capsys):
    trace = tmp_path / "drive.csv"
    traceio.write_trace(straight_drive_trajectory(), trace)
    code, payload = run(capsys, "monitor", DRIVE, "--scenario", "reach", "--trace", str(trace))
    assert code == 0
    assert payload["verdict"] == "accepted"
    assert payload["first_violation_time"] is None


def test_monitor_accepts_stop_variant(tmp_path, capsys):
    trace = tmp_path / "stop.csv"
    traceio.write_trace(stop_at_origin_trajectory(), trace)
    code, payload = run(capsys, "monitor", DRIVE, "--scenario", "reach", "--trace", str(trace))
    assert code == 0
    assert payload["verdict"] == "accepted"


def test_monitor_rejects_wrong_start(tmp_path, capsys):
    trace = tmp_path / "wrong.csv"
    traceio.write_trace(wrong_start_trajectory(), trace)
    code, payload = run(capsys, "monitor", DRIVE, "--scenario", "reach", "--trace", str(trace))
    assert code == 1
    assert payload["verdict"] == "rejected"


def test_monitor_prefix_exit_codes(tmp_path, capsys):
    half = prefix(straight_drive_trajectory(), 10.0)
    trace = tmp_path / "half.csv"
    traceio.write_trace(half, trace)
    code, payload = run(capsys, "monitor", DRIVE, "--scenario", "reach", "--trace", str(trace))
    assert code == 2
    assert payload["verdict"] == "unknown"

    bad = prefix(wrong_start_trajectory(), 5.0)
    trace2 = tmp_path / "badhalf.csv"
    traceio.write_trace(bad, trace2)
    code, payload = run(capsys, "monitor", DRIVE, "--scenario", "reach", "--trace", str(trace2))
    assert code == 1
    assert payload["verdict"] == "false"


def test_monitor_one_row_trace_is_unknown(tmp_path, capsys):
    # A one-row CSV has no step of its own to check against the instance.
    trace = tmp_path / "one.csv"
    traceio.write_trace(prefix(straight_drive_trajectory(), 0.0), trace)
    code, payload = run(capsys, "monitor", DRIVE, "--scenario", "reach", "--trace", str(trace))
    assert code == 2
    assert payload == {"verdict": "unknown", "fed": 1, "full_length": 201}


def test_monitor_late_prefixes_of_an_accepted_drive_are_unknown(tmp_path, capsys):
    drive = straight_drive_trajectory()
    for k in (199, 200):
        trace = tmp_path / f"prefix-{k}.csv"
        traceio.write_trace(prefix(drive, drive.grid.t(k - 1)), trace)
        code, payload = run(capsys, "monitor", DRIVE, "--scenario", "reach", "--trace", str(trace))
        assert code == 2
        assert payload == {"verdict": "unknown", "fed": k, "full_length": 201}


def test_monitor_reports_when_a_held_start_fails(tmp_path, capsys):
    drive = straight_drive_trajectory()
    held = Trajectory(drive.schema, drive.grid, drive.samples[:1] * drive.grid.count)
    trace = tmp_path / "held.csv"
    traceio.write_trace(held, trace)
    code, payload = run(capsys, "monitor", DRIVE, "--scenario", "reach", "--trace", str(trace))
    assert code == 1
    assert payload["verdict"] == "rejected"
    assert payload["first_violation_time"] == 20.0


def test_sample_logical_writes_manifest_and_traces(tmp_path, capsys):
    out = tmp_path / "samples"
    code, payload = run(
        capsys,
        "sample-logical", SLOPE,
        "--scenario", "slope_drive", "--count", "5", "--seed", "7",
        "--out-dir", str(out),
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert len(manifest["samples"]) == 5
    for entry in manifest["samples"]:
        assert 1.0 <= entry["x"]["rate"] <= 3.0
        assert (out / entry["trace"]).exists()


def test_sample_logical_is_byte_deterministic(tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code, payload = run(
            capsys,
            "sample-logical", SLOPE,
            "--scenario", "slope_drive", "--count", "3", "--seed", "21",
            "--out-dir", str(out),
        )
        assert code == 0
        outs.append(out)
    for f in ("manifest.json", "sample-00000.csv", "sample-00002.csv"):
        assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()


def test_monitor_refuses_a_bad_time_cell(tmp_path, capsys):
    trace = tmp_path / "drive.csv"
    traceio.write_trace(straight_drive_trajectory(), trace)
    lines = trace.read_text().split("\n")
    for cell in ("0.1x", "nan"):
        lines[3] = ",".join([cell] + lines[3].split(",")[1:])
        trace.write_text("\n".join(lines))
        code, payload = run(capsys, "monitor", DRIVE, "--scenario", "reach", "--trace", str(trace))
        assert code == 1
        assert payload["error"] == "SchemaError"
        assert payload["detail"].startswith(f"{trace} line 4, column 't': ")


def test_invert_refuses_a_malformed_sidecar(tmp_path, capsys):
    trace = tmp_path / "c.csv"
    traceio.write_trace(straight_drive_trajectory(), trace)
    traceio.sidecar_path_for(trace).write_text('{"dimensions": [{"name": "x"}]}')
    code, payload = run(
        capsys, "invert", SLOPE, "--scenario", "slope_drive",
        "--trace", str(trace), "--tol", "1e-6",
    )
    assert code == 1
    assert payload["error"] == "SchemaError"
    assert payload["detail"].startswith(f"sidecar {traceio.sidecar_path_for(trace)} is not ")


def test_invert_recovers_slope(tmp_path, capsys):
    from scenkit.fixtures import slope_drive_scenario
    from scenkit.logical import realize

    trace = tmp_path / "c.csv"
    traceio.write_trace(realize(slope_drive_scenario(), (2.0,)), trace)
    code, payload = run(
        capsys, "invert", SLOPE, "--scenario", "slope_drive",
        "--trace", str(trace), "--tol", "1e-6",
    )
    assert code == 0
    assert payload["found"] is True
    assert abs(payload["x"]["rate"] - 2.0) <= 1e-6


def test_invert_recovers_a_one_sample_trace_that_sample_logical_wrote(tmp_path, capsys):
    # The trace has one row, so it reads back with step 1.0 against the
    # scenario's 0.1: a one-point grid has no step to compare.
    spec = tmp_path / "still.scn"
    spec.write_text(
        "schema line { pos: m }\n\n"
        "logical still {\n  param rate: range(1, 3)\n  start { line.pos = 0 }\n"
        "  bind drift(pos = rate)\n  horizon 0 s step 0.1 s\n}\n"
    )
    out = tmp_path / "still"
    code, _ = run(capsys, "sample-logical", str(spec), "--scenario", "still", "--count", "1",
                  "--seed", "5", "--out-dir", str(out))
    assert code == 0
    code, payload = run(capsys, "invert", str(spec), "--scenario", "still",
                        "--trace", str(out / "sample-00000.csv"), "--tol", "1e-6")
    assert (code, payload) == (0, {"found": True, "residual": 0.0, "x": {"rate": 1.0}})


def test_invert_refuses_a_trace_with_no_rows(tmp_path, capsys):
    trace = tmp_path / "c.csv"
    traceio.write_trace(straight_drive_trajectory(), trace)
    trace.write_text("t,x,y,vx,vy\n")
    code, payload = run(
        capsys, "invert", DRIVE, "--scenario", "speed_choices",
        "--trace", str(trace), "--tol", "1e-6",
    )
    assert code == 1
    assert payload == {"error": "SchemaError", "detail": f"trace file {trace} has no rows"}


def test_encode_logical_verifies_set_equality(capsys):
    code, payload = run(capsys, "encode-logical", DRIVE, "--scenario", "speed_choices")
    assert code == 0
    assert payload["match"] is True
    assert payload["x_count"] == 3


def test_enumerate_without_finite_starts_reports_domain_error(tmp_path, capsys):
    spec = tmp_path / "tiny.scn"
    spec.write_text(
        """
        schema S { level: m }
        abstract updown {
          use S
          horizon 3 s step 1 s
          bound level 1
          constraint pred(level in [-10, 10])
        }
        """
    )
    out = tmp_path / "en"
    code, payload = run(capsys, "enumerate", str(spec), "--scenario", "updown", "--out-dir", str(out))
    assert code == 1
    assert payload["error"] == "ComplexityError"


def test_synth_rural_writes_traces(tmp_path, capsys):
    out = tmp_path / "rural"
    code, payload = run(
        capsys, "synth-rural", "--n", "1", "--m", "1", "--out-dir", str(out), "--limit", "2"
    )
    assert code == 0
    assert payload["synthesized"] == 2
    assert payload["accepted"] == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["traces"]) == 2


def test_synth_rural_limit_builds_only_the_choices_it_synthesizes(tmp_path, capsys):
    # 3,628,800 choices: past enumerate_choices' guard, which --limit skips.
    code, payload = run(capsys, "synth-rural", "--n", "5", "--m", "5", "--out-dir", str(tmp_path))
    assert (code, payload["error"]) == (1, "ComplexityError")
    out = tmp_path / "rural"
    code, payload = run(
        capsys, "synth-rural", "--n", "5", "--m", "5", "--out-dir", str(out), "--limit", "1"
    )
    assert (code, payload["synthesized"]) == (0, 1)
    assert json.loads((out / "manifest.json").read_text())["traces"] == ["choice-00000.csv"]


@pytest.mark.parametrize("limit", ["-1", "x"])
def test_synth_rural_limit_is_a_count(tmp_path, capsys, limit):
    with pytest.raises(SystemExit) as exc:
        main(["synth-rural", "--n", "1", "--m", "1", "--out-dir", str(tmp_path), "--limit", limit])
    assert exc.value.code == EX_USAGE
    assert "argument --limit" in capsys.readouterr().err


def test_console_entry_point_runs():
    exe = shutil.which("scenkit")
    if exe is None:
        pytest.skip("console script not installed")
    proc = subprocess.run(
        [exe, "demo-spec-complexity", "--n", "4"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["leaves"] == 16
