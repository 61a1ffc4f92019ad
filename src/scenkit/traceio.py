"""Trace CSV and schema sidecar I/O.

Trace format: header ``t,<dim1>,...,<dimk>``, one row per grid point,
17 significant digits, LF line endings, ``.`` decimal separator.
Sidecar format: ``{"dimensions": [{"name": ..., "unit": ...}]}``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .core import ALIGN_TOL, Dimension, Scene, SceneSchema, TimeGrid, Trajectory
from .core import _checked_columns, _trusted_scene, _trusted_trajectory
from .errors import GridAlignmentError, SchemaError


def sidecar_path_for(csv_path: str | Path) -> Path:
    p = Path(csv_path)
    return p.with_suffix(p.suffix + ".schema.json")


def write_schema(schema: SceneSchema, path: str | Path) -> None:
    payload = {
        "dimensions": [{"name": d.name, "unit": d.unit} for d in schema.dimensions]
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")


def read_schema(path: str | Path) -> SceneSchema:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        pairs = [(d["name"], d["unit"]) for d in payload["dimensions"]]
        valid = all(type(v) is str for p in pairs for v in p)
    except (ValueError, LookupError, TypeError):  # not JSON, or not of that shape
        valid = False
    if not valid:
        raise SchemaError(f'sidecar {path} is not {{"dimensions": [{{"name", "unit"}}, ...]}}')
    return SceneSchema(tuple(Dimension(*p) for p in pairs))


def write_trace(
    traj: Trajectory, csv_path: str | Path, sidecar: str | Path | None = None
) -> None:
    row = ",".join(["%.17g"] * (traj.schema.k + 1))
    lines = ["t," + ",".join(traj.schema.names)]
    for i, s in enumerate(traj.samples):
        lines.append(row % ((i * traj.grid.step,) + s.values))
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    if sidecar is None:
        sidecar = sidecar_path_for(csv_path)
    write_schema(traj.schema, sidecar)


def read_trace(csv_path: str | Path, schema: SceneSchema | None = None) -> Trajectory:
    """Read a trace CSV; the schema comes from the sidecar unless given.

    The cell count, the numbers and the time are checked row by row; the
    values once per column, after the last row, by ``core._checked_columns``.
    On a fault, the rows before it are checked one by one, so a refusal
    names the first fault in file order, and its line, as a row-by-row
    Scene check would."""
    if schema is None:
        schema = read_schema(sidecar_path_for(csv_path))
    text = Path(csv_path).read_text(encoding="utf-8")
    rows = [(n, ln.split(",")) for n, ln in enumerate(text.split("\n"), 1) if ln.strip()]
    if not rows:
        raise SchemaError(f"empty trace file {csv_path}")
    header = rows[0][1]
    if header[0] != "t" or tuple(header[1:]) != schema.names:
        raise SchemaError(f"trace header {header} does not match schema dims {schema.names}")
    if len(rows) == 1:
        raise SchemaError(f"trace file {csv_path} has no rows")
    times: list[float] = []
    value_rows: list[list[float]] = []
    try:
        for n, cells in rows[1:]:
            if len(cells) != schema.k + 1:
                raise SchemaError(f"{csv_path} line {n} has {len(cells)} cells, expected {schema.k + 1}")
            try:
                t, *values = map(float, cells)
            except ValueError:  # names the first cell that is no number
                t, *values = (_number(csv_path, n, name, c) for name, c in zip(header, cells))
            if not math.isfinite(t):
                raise SchemaError(f"{csv_path} line {n}, column 't': time {t} is not finite")
            times.append(t)
            value_rows.append(values)
        columns = _checked_columns(schema, list(zip(*value_rows)))
    except SchemaError:
        for values in value_rows:
            Scene(schema, tuple(values))
        raise
    if len(times) == 1:
        step = 1.0
    else:
        step = times[1] - times[0]
        if not step > 0:
            raise GridAlignmentError("trace times are not increasing")
        for i, t in enumerate(times):
            if not abs(t - i * step) <= ALIGN_TOL * step:
                raise GridAlignmentError(f"trace time {t} off the uniform grid")
    samples = tuple(_trusted_scene(schema, row) for row in zip(*columns))
    return _trusted_trajectory(schema, TimeGrid(step, len(samples)), samples)


def _number(csv_path: str | Path, n: int, name: str, cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise SchemaError(f"{csv_path} line {n}, column {name!r}: {cell!r} is not a number") from None
