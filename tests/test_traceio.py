import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenkit import traceio
from scenkit.core import ALIGN_TOL, Scene, TimeGrid, Trajectory, schema_of
from scenkit.errors import GridAlignmentError, SchemaError
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


# --- the column check against the row-by-row reader --------------------------


def reference_read_trace(csv_path, schema=None):
    """``read_trace`` as it was before its values were checked by column:
    each row's values are checked by the Scene constructor as the row is
    read. Kept here, apart from the code it checks; it fails on a trace
    with no rows, which no case below writes."""
    if schema is None:
        schema = traceio.read_schema(traceio.sidecar_path_for(csv_path))
    text = Path(csv_path).read_text(encoding="utf-8")
    rows = [(n, ln.split(",")) for n, ln in enumerate(text.split("\n"), 1) if ln.strip()]
    if not rows:
        raise SchemaError(f"empty trace file {csv_path}")
    header = rows[0][1]
    if header[0] != "t" or tuple(header[1:]) != schema.names:
        raise SchemaError(f"trace header {header} does not match schema dims {schema.names}")
    times = []
    samples = []
    for n, cells in rows[1:]:
        if len(cells) != schema.k + 1:
            raise SchemaError(f"{csv_path} line {n} has {len(cells)} cells, expected {schema.k + 1}")
        try:
            t, *values = map(float, cells)
        except ValueError:
            t, *values = (traceio._number(csv_path, n, name, c) for name, c in zip(header, cells))
        if not math.isfinite(t):
            raise SchemaError(f"{csv_path} line {n}, column 't': time {t} is not finite")
        times.append(t)
        samples.append(Scene(schema, tuple(values)))
    if len(samples) == 1:
        step = 1.0
    else:
        step = times[1] - times[0]
        if not step > 0:
            raise GridAlignmentError("trace times are not increasing")
        for i, t in enumerate(times):
            if not abs(t - i * step) <= ALIGN_TOL * step:
                raise GridAlignmentError(f"trace time {t} off the uniform grid")
    return Trajectory(schema, TimeGrid(step, len(samples)), tuple(samples))


MIXED = schema_of(("x", "m"), ("lane", "enum-code"), ("v", "m/s"))


def inject(kind, cells, t, col):
    """Write the fault ``kind`` into one row's cells, at time ``t``: a cut
    last cell, or a cell replaced; ``col`` picks the cell where the kind
    leaves a choice. A cell that an earlier cut removed is left alone."""
    if kind == "short_row":
        del cells[-1:]
        return
    i, text = {
        "word": (col, "1.5e"),
        "nan": (1 + col % 3, "nan"),
        "inf": (1 + col % 3, "-inf" if col % 2 else "inf"),
        "nan_time": (0, "nan"),
        "enum": (2, "0.5"),
        "misaligned": (0, repr(t + 0.03)),
    }[kind]
    if i < len(cells):
        cells[i] = text


FAULTS = ["word", "nan", "inf", "nan_time", "short_row", "enum", "misaligned"]


def read_outcome(read, path):
    """The trajectory's schema, grid and values as exact bits, each sample
    a Scene of that schema; or the exception's type and message."""
    try:
        c = read(path)
    except Exception as exc:  # noqa: BLE001 - any error must match
        return ("raised", type(exc), str(exc))
    assert all(type(s) is Scene and s.schema is c.schema for s in c.samples)
    return (c.schema, c.grid, [[v.hex() for v in s.values] for s in c.samples])


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.lists(st.tuples(st.sampled_from(FAULTS), st.integers(0, 7), st.integers(0, 3)),
             max_size=3),
    st.data(),
)
def test_read_trace_refuses_what_the_row_reader_refuses(tmp_path_factory, n, faults, data):
    # Faults at drawn cells, none to three of them: the first in file order
    # names the refusal, with its line, as the row-by-row reader names it;
    # a clean trace reads back as that reader builds it.
    rows = [[data.draw(st.floats(-1e6, 1e6)), float(data.draw(st.integers(-3, 3))),
             data.draw(st.floats(-50.0, 50.0))] for _ in range(n)]
    path = tmp_path_factory.mktemp("trace") / "t.csv"
    traceio.write_trace(make_trajectory(MIXED, rows, step=0.1), path)
    lines = path.read_text().split("\n")
    for kind, row, col in faults:
        i = 1 + row % n
        cells = lines[i].split(",")
        inject(kind, cells, (i - 1) * 0.1, col)
        lines[i] = ",".join(cells)
    path.write_text("\n".join(lines))
    assert read_outcome(traceio.read_trace, path) == read_outcome(reference_read_trace, path)


@pytest.mark.parametrize(
    "edits, message",
    [
        # A value fault on an earlier line comes before a cell fault on a later one.
        ({3: "0.1,nan,0,0,0", 5: "0.3,1"}, "non-finite value nan in dimension 'x'"),
        ({3: "0.1,inf,0,0,0", 5: "0.3,1,2,3,x"}, "non-finite value inf in dimension 'x'"),
        # On one line, a time fault comes before a value fault.
        ({4: "nan,nan,0,0,0"}, "{path} line 4, column 't': time nan is not finite"),
        # An earlier line's time fault comes before a later line's value fault.
        ({3: "-inf,0,0,0,0", 4: "0.2,nan,0,0,0"}, "{path} line 3, column 't': time -inf is not finite"),
        # A misaligned time is named after every value fault.
        ({3: "0.13,0,0,0,0", 6: "0.4,0,0,inf,0"}, "non-finite value inf in dimension 'vx'"),
    ],
    ids=["value-before-cell-count", "value-before-number", "time-before-value",
         "time-before-later-value", "value-before-alignment"],
)
def test_the_first_fault_in_file_order_is_named(tmp_path, edits, message):
    path = tmp_path / "drive.csv"
    traceio.write_trace(straight_drive_trajectory(), path)
    lines = path.read_text().split("\n")
    for n, text in edits.items():
        lines[n - 1] = text
    path.write_text("\n".join(lines))
    want = ("raised", SchemaError, message.format(path=path))
    assert read_outcome(reference_read_trace, path) == want
    assert read_outcome(traceio.read_trace, path) == want


def test_a_clean_read_runs_no_constructor_check(tmp_path, monkeypatch):
    path = tmp_path / "drive.csv"
    drive = straight_drive_trajectory()
    traceio.write_trace(drive, path)
    calls = []
    for cls in (Scene, Trajectory):
        check = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda self, check=check: (calls.append(1), check(self)))
    assert traceio.read_trace(path) == drive
    assert calls == []
