"""Trace CSV and schema sidecar I/O.

Trace format: header ``t,<dim1>,...,<dimk>``, one row per grid point,
17 significant digits, LF line endings, ``.`` decimal separator.
Sidecar format: ``{"dimensions": [{"name": ..., "unit": ...}]}``.
"""

from __future__ import annotations

import json
from pathlib import Path

from .core import ALIGN_TOL, Dimension, Scene, SceneSchema, TimeGrid, Trajectory
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
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    dims = tuple(Dimension(d["name"], d["unit"]) for d in payload["dimensions"])
    return SceneSchema(dims)


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


def read_trace(
    csv_path: str | Path,
    schema: SceneSchema | None = None,
) -> Trajectory:
    """Read a trace CSV; the schema comes from the sidecar unless given."""
    if schema is None:
        schema = read_schema(sidecar_path_for(csv_path))
    text = Path(csv_path).read_text(encoding="utf-8")
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines:
        raise SchemaError(f"empty trace file {csv_path}")
    header = lines[0].split(",")
    if header[0] != "t" or tuple(header[1:]) != schema.names:
        raise SchemaError(
            f"trace header {header} does not match schema dims {schema.names}"
        )
    times: list[float] = []
    samples: list[Scene] = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != schema.k + 1:
            raise SchemaError(f"row has {len(cells)} cells, expected {schema.k + 1}")
        times.append(float(cells[0]))
        samples.append(Scene(schema, tuple(float(c) for c in cells[1:])))
    if len(samples) == 1:
        step = 1.0
    else:
        step = times[1] - times[0]
        if step <= 0:
            raise GridAlignmentError("trace times are not increasing")
        for i, t in enumerate(times):
            if abs(t - i * step) > ALIGN_TOL * step:
                raise GridAlignmentError(f"trace time {t} off the uniform grid")
    grid = TimeGrid(step, len(samples))
    return Trajectory(schema, grid, tuple(samples))
