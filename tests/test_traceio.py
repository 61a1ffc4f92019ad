import math

import pytest

from scenkit import traceio
from scenkit.core import Scene, schema_of
from scenkit.errors import SchemaError
from scenkit.fixtures import straight_drive_trajectory

from conftest import make_trajectory


def test_roundtrip_is_bit_exact(tmp_path):
    traj = straight_drive_trajectory()
    path = tmp_path / "drive.csv"
    traceio.write_trace(traj, path)
    back = traceio.read_trace(path)
    assert back == traj


def test_roundtrip_awkward_floats(tmp_path, line):
    rows = [[math.pi], [1e-300], [-1.2345678901234567e100], [0.1 + 0.2]]
    traj = make_trajectory(line, rows, step=0.5)
    path = tmp_path / "t.csv"
    traceio.write_trace(traj, path)
    assert traceio.read_trace(path) == traj


def test_csv_shape(tmp_path):
    traj = straight_drive_trajectory()
    path = tmp_path / "drive.csv"
    traceio.write_trace(traj, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "t,x,y,vx,vy"
    assert len(lines) == 202


def test_sidecar_schema(tmp_path):
    traj = straight_drive_trajectory()
    path = tmp_path / "drive.csv"
    traceio.write_trace(traj, path)
    schema = traceio.read_schema(traceio.sidecar_path_for(path))
    assert schema == traj.schema


def test_header_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,a\n0,1\n")
    with pytest.raises(SchemaError):
        traceio.read_trace(path, schema=schema_of(("pos", "m")))


def test_single_row_trace(tmp_path, line):
    traj = make_trajectory(line, [[4.0]], step=0.1)
    path = tmp_path / "one.csv"
    traceio.write_trace(traj, path)
    back = traceio.read_trace(path)
    assert back.samples[0] == Scene(line, (4.0,))
    assert back.grid.count == 1


def _drive_with_cell(tmp_path, line_index, column, cell):
    """The straight-drive trace with one cell of one CSV line replaced."""
    path = tmp_path / "drive.csv"
    traceio.write_trace(straight_drive_trajectory(), path)
    lines = path.read_text().split("\n")
    cells = lines[line_index].split(",")
    cells[column] = cell
    lines[line_index] = ",".join(cells)
    path.write_text("\n".join(lines))
    return path


@pytest.mark.parametrize(
    "line_index, column, cell, message",
    [
        (3, 0, "0.1x", "line 4, column 't': '0.1x' is not a number"),
        (3, 2, "", "line 4, column 'y': '' is not a number"),
        (3, 0, "nan", "line 4, column 't': time nan is not finite"),
        (1, 0, "nan", "line 2, column 't': time nan is not finite"),
        (3, 0, "-inf", "line 4, column 't': time -inf is not finite"),
        (5, 4, "1,2", "line 6 has 6 cells, expected 5"),
    ],
    ids=["non-numeric-time", "empty-value", "nan-time", "nan-first-time", "infinite-time",
         "extra-cell"],
)
def test_a_bad_cell_is_refused_naming_its_line_and_column(
    tmp_path, line_index, column, cell, message
):
    path = _drive_with_cell(tmp_path, line_index, column, cell)
    with pytest.raises(SchemaError) as err:
        traceio.read_trace(path)
    assert str(err.value) == f"{path} {message}"


@pytest.mark.parametrize(
    "text",
    [
        b"",
        b"{not json",
        b"[]",
        b'"dimensions"',
        b"{}",
        b'{"dimensions": 3}',
        b'{"dimensions": {"x": "m"}}',
        b'{"dimensions": ["x"]}',
        b'{"dimensions": [{"name": "x"}]}',
        b'{"dimensions": [{"unit": "m"}]}',
        b'{"dimensions": [{"name": 1, "unit": "m"}]}',
        b'{"dimensions": [{"name": "x", "unit": null}]}',
        b'{"dimensions": [{"name": ["x"], "unit": "m"}]}',
        b'{"dimensions": [{"name": "\xff", "unit": "m"}]}',
    ],
)
def test_a_malformed_sidecar_is_refused_naming_its_path(tmp_path, text):
    path = tmp_path / "t.csv.schema.json"
    path.write_bytes(text)
    with pytest.raises(SchemaError) as err:
        traceio.read_schema(path)
    assert str(err.value) == f'sidecar {path} is not {{"dimensions": [{{"name", "unit"}}, ...]}}'
