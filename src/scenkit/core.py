"""Scenes, time grids, trajectories and the structural operations on them.

A scene is a fixed-dimension snapshot of the world; a trajectory is a
time-gridded sequence of scenes, linearly interpolated between samples.
Everything here is immutable and safe to share across workers.

Values are checked where they enter, and trusted inside. The public
constructors check: a Scene's values go through ``_floats`` (floats, one
per dimension, finite, enums integral), a TimeGrid wants a finite
positive step and a whole count, and a Trajectory wants ``grid.count``
Scenes of its own schema. So do the routes that take values from
outside: a successor relation's candidates, a one-step override's paths,
an instance's start scenes, interpolation, ``Scene.replace`` and
``extend``. Two internal constructors, ``_trusted_scene`` and
``_trusted_trajectory``, set the fields and skip the checks. They serve
only data that already passed them: ``evaluate`` and trace CSV build
their rows from columns that ``_floats`` has just accepted, one column
at a time by ``_checked_columns`` (on a fault they check each row as
the constructor does, to name the first fault), and the logic walks
(enumeration, expansion, sampling) build their trajectories from paths
of Scenes they built checked on the instance's schema, on a grid they
built checked of the path's length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import sub
from typing import Iterable, Sequence

from .errors import GridAlignmentError, RangeError, SchemaError

#: Canonical unit tags accepted by schemas.
UNITS = ("m", "m/s", "m/s^2", "s", "dimensionless", "enum-code")

_UNIT_ALIASES = {"m/s²": "m/s^2", "enum": "enum-code"}

#: Grid-alignment tolerance, as a fraction of the grid step.
ALIGN_TOL = 1e-9

#: Default continuity bound for the jump detector, in units per second.
DEFAULT_JUMP_KAPPA = 100.0


@dataclass(frozen=True, slots=True)
class Dimension:
    """One named dimension of a scene schema and its unit."""
    name: str
    unit: str

    def __post_init__(self):
        if not self.name:
            raise SchemaError("dimension name must be nonempty")
        unit = _UNIT_ALIASES.get(self.unit, self.unit)
        if unit not in UNITS:
            raise SchemaError(f"unknown unit {self.unit!r} for dimension {self.name!r}")
        object.__setattr__(self, "unit", unit)


#: Every schema built, keyed by its normalised dimensions.
_SCHEMAS: dict[tuple[Dimension, ...], SceneSchema] = {}


class _Interned(type):
    """A schema call returns the first-built schema with equal dimensions."""

    def __call__(cls, *args, **kwargs):
        schema = super().__call__(*args, **kwargs)
        return _SCHEMAS.setdefault(schema.dimensions, schema)


@dataclass(frozen=True, slots=True, eq=False)
class SceneSchema(metaclass=_Interned):
    """Ordered, named dimensions of a scene vector. Schemas with the same
    ``(name, unit)`` pairs, alias units normalised, are one object: building
    one returns the first built, kept in a plain table (a run builds few;
    ``setdefault`` keeps threads from making two). So equality and hash are
    identity and every schema check is ``is``; pickling, copying and
    ``dataclasses.replace`` go through the constructor."""

    dimensions: tuple[Dimension, ...]
    _positions: dict[str, int] = field(init=False, repr=False)
    _enum_indices: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        dims = tuple(
            d if isinstance(d, Dimension) else Dimension(*d) for d in self.dimensions
        )
        object.__setattr__(self, "dimensions", dims)
        if len(dims) < 1:
            raise SchemaError("a schema needs at least one dimension")
        positions = {d.name: i for i, d in enumerate(dims)}
        if len(positions) != len(dims):
            raise SchemaError("dimension names must be unique")
        object.__setattr__(self, "_positions", positions)
        enums = tuple(i for i, d in enumerate(dims) if d.unit == "enum-code")
        object.__setattr__(self, "_enum_indices", enums)

    def __reduce__(self):
        return SceneSchema, (self.dimensions,)

    @property
    def k(self) -> int:
        return len(self.dimensions)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._positions)

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise SchemaError(f"no dimension named {name!r}") from None

    def has(self, name: str) -> bool:
        return name in self._positions


def schema_of(*dims: tuple[str, str]) -> SceneSchema:
    """Shorthand: ``schema_of(("x", "m"), ("vx", "m/s"))``."""
    return SceneSchema(tuple(Dimension(n, u) for n, u in dims))


def _floats(values, dims: Sequence[Dimension], enums: Sequence[int]) -> tuple[float, ...]:
    """The one value check: ``values`` as floats, one per entry of ``dims``,
    finite, and integral at the positions ``enums`` (the enum-code ones).
    A Scene checks its row against its schema; ``evaluate`` checks each
    column against its dimension repeated. A string is not a vector; a
    fault raises SchemaError naming the first one in order. A fast accept
    tests the whole tuple; the loop runs only to name the fault."""
    if isinstance(values, (str, bytes, bytearray)):
        raise SchemaError(f"scene values must be numbers, not {type(values).__name__}")
    vals = tuple(map(float, values))
    if len(vals) != len(dims):
        raise SchemaError(f"scene has {len(vals)} values, schema expects {len(dims)}")
    if not all(map(math.isfinite, vals)) or (enums and not all(vals[i].is_integer() for i in enums)):
        for d, v in zip(dims, vals):
            if not math.isfinite(v):
                raise SchemaError(f"non-finite value {v!r} in dimension {d.name!r}")
            if d.unit == "enum-code" and v != int(v):
                raise SchemaError(f"enum dimension {d.name!r} holds non-integer {v!r}")
    return vals


def _checked_columns(schema: SceneSchema, columns: Sequence[Sequence]) -> list[tuple[float, ...]]:
    """Each value column as floats, checked once by ``_floats`` against
    its dimension repeated; raises at a column's first fault."""
    return [_floats(c, (d,) * len(c), range(len(c)) if d.unit == "enum-code" else ())
            for d, c in zip(schema.dimensions, columns)]


@dataclass(frozen=True, slots=True)
class Scene:
    """One snapshot: a real vector conforming to a schema."""

    schema: SceneSchema
    values: tuple[float, ...]

    def __post_init__(self):
        s = self.schema
        object.__setattr__(self, "values", _floats(self.values, s.dimensions, s._enum_indices))

    def __getitem__(self, name: str) -> float:
        return self.values[self.schema.index(name)]

    def replace(self, **updates: float) -> "Scene":
        vals = list(self.values)
        for name, v in updates.items():
            vals[self.schema.index(name)] = float(v)
        return Scene(self.schema, tuple(vals))


@dataclass(frozen=True, slots=True)
class TimeGrid:
    """Uniform grid t_i = i * step for i in 0..count-1, starting at 0."""

    step: float
    count: int

    def __post_init__(self):
        if not (self.step > 0):
            raise RangeError(f"grid step must be positive, got {self.step}")
        if self.step == math.inf:
            raise RangeError(f"grid step must be finite, got {self.step}")
        if not isinstance(self.count, int):
            raise RangeError(f"grid count must be a whole number, got {self.count!r}")
        if self.count < 1:
            raise RangeError(f"grid count must be >= 1, got {self.count}")

    @property
    def duration(self) -> float:
        return (self.count - 1) * self.step

    def t(self, i: int) -> float:
        return i * self.step

    def index_of(self, t: float) -> int:
        """Map a grid-aligned time to its index; raise if misaligned."""
        i = round(t / self.step)
        if abs(i * self.step - t) > ALIGN_TOL * self.step:
            raise GridAlignmentError(f"time {t} is not aligned to step {self.step}")
        if i < 0 or i >= self.count:
            raise RangeError(f"time {t} is outside the grid [0, {self.duration}]")
        return i


@dataclass(frozen=True, slots=True)
class Trajectory:
    """A concrete scenario sampled on a uniform time grid.

    samples[0] is the starting scene. Between samples the trajectory is
    piecewise-linear; jumps are detected, not rejected.
    """

    schema: SceneSchema
    grid: TimeGrid
    samples: tuple[Scene, ...]

    def __post_init__(self):
        samples = tuple(self.samples)
        object.__setattr__(self, "samples", samples)
        if len(samples) != self.grid.count:
            raise SchemaError(
                f"{len(samples)} samples for a grid of {self.grid.count} points"
            )
        schema = self.schema
        for s in samples:
            if not isinstance(s, Scene):
                raise SchemaError(f"sample {s!r} is not a Scene")
            if s.schema is not schema:
                raise SchemaError("sample schema differs from trajectory schema")

    @property
    def start(self) -> Scene:
        return self.samples[0]

    @property
    def duration(self) -> float:
        return self.grid.duration

    def at(self, t: float) -> Scene:
        """Piecewise-linear interpolation at an arbitrary time in range."""
        if t < 0 or t > self.duration + ALIGN_TOL * self.grid.step:
            raise RangeError(f"time {t} outside [0, {self.duration}]")
        pos = min(t / self.grid.step, self.grid.count - 1)
        i = min(int(pos), self.grid.count - 2) if self.grid.count > 1 else 0
        w = pos - i
        if w <= 0 or self.grid.count == 1:
            return self.samples[i]
        a, b = self.samples[i].values, self.samples[i + 1].values
        vals = tuple(av + w * (bv - av) for av, bv in zip(a, b))
        return Scene(self.schema, vals)

    def jumps(self, kappa: float = DEFAULT_JUMP_KAPPA) -> tuple[int, ...]:
        """Indices i where the step to sample i+1 exceeds kappa * step.

        Candidate discontinuities are metadata: piecewise continuity
        permits finitely many of them.
        """
        bound = kappa * self.grid.step
        out = []
        for i in range(len(self.samples) - 1):
            if scene_distance(self.samples[i], self.samples[i + 1]) > bound:
                out.append(i)
        return tuple(out)

    def sort_key(self) -> tuple:
        """Canonical ordering key: lexicographic over sample values."""
        return tuple(s.values for s in self.samples)


_scene_schema, _scene_values = Scene.schema.__set__, Scene.values.__set__
_traj_schema, _traj_grid = Trajectory.schema.__set__, Trajectory.grid.__set__
_traj_samples = Trajectory.samples.__set__


def _trusted_scene(schema: SceneSchema, values: tuple[float, ...]) -> Scene:
    """An internal constructor: the fields set, ``__post_init__`` skipped.
    Only for values a check just accepted against ``schema``: floats, one
    per dimension, finite, enums integral (see the module docstring)."""
    s = object.__new__(Scene)
    _scene_schema(s, schema)
    _scene_values(s, values)
    return s


def _trusted_trajectory(schema: SceneSchema, grid: TimeGrid, samples: tuple[Scene, ...]):
    """An internal constructor: the fields set, ``__post_init__`` skipped.
    Only for a tuple of ``grid.count`` checked Scenes of ``schema`` (see
    the module docstring)."""
    c = object.__new__(Trajectory)
    _traj_schema(c, schema)
    _traj_grid(c, grid)
    _traj_samples(c, samples)
    return c


def _check_same_schema(a_schema: SceneSchema, b_schema: SceneSchema) -> None:
    if a_schema is not b_schema:
        raise SchemaError("schemas do not match")


def _values_distance(a: tuple[float, ...], b: tuple[float, ...]) -> float:
    """Euclidean distance between two value tuples by ``math.hypot``, which
    scales before it squares, so it neither overflows nor underflows (inf
    only past the largest float); schemas are the caller's to check."""
    return math.hypot(*map(sub, a, b))


def scene_distance(a: Scene, b: Scene) -> float:
    """Euclidean distance between two scenes of the same schema (or inf)."""
    _check_same_schema(a.schema, b.schema)
    return _values_distance(a.values, b.values)


def _check_comparable(schema: SceneSchema, grid: TimeGrid, b: Trajectory) -> None:
    """Refuse a trajectory ``b`` of another schema, or on another grid
    than ``grid``; a one-point grid has no step to compare."""
    _check_same_schema(schema, b.schema)
    if grid.count != b.grid.count or (grid.count > 1 and grid.step != b.grid.step):
        raise GridAlignmentError("trajectories live on different grids")


def _columns_of(c: Trajectory) -> list[tuple[float, ...]]:
    """The value columns of a trajectory, one per dimension."""
    return list(zip(*[s.values for s in c.samples]))


def _sup_distance(a: Iterable, b: Iterable) -> float:
    """The largest ``hypot`` of a row's differences between two column
    sets of one schema and grid, which are the caller's to check: the same
    bits as a row-by-row ``scene_distance``."""
    return max(map(math.hypot, *[map(sub, x, y) for x, y in zip(a, b)]))


def trajectory_distance(a: Trajectory, b: Trajectory) -> float:
    """Sup over grid points of the scene distance."""
    _check_comparable(a.schema, a.grid, b)
    return _sup_distance(_columns_of(a), _columns_of(b))


def prefix(c: Trajectory, upto: float) -> Trajectory:
    """Restrict a trajectory to [0, upto]; upto must be grid-aligned."""
    i = c.grid.index_of(upto)
    if i == c.grid.count - 1:
        return c
    grid = TimeGrid(c.grid.step, i + 1)
    return Trajectory(c.schema, grid, c.samples[: i + 1])


def extend(c: Trajectory, tail: Iterable[Scene]) -> Trajectory:
    """Concatenate further scenes onto a trajectory."""
    tail = tuple(tail)
    if not tail:
        return c
    for s in tail:
        _check_same_schema(s.schema, c.schema)
    grid = TimeGrid(c.grid.step, c.grid.count + len(tail))
    return Trajectory(c.schema, grid, c.samples + tail)


def is_prefix(a: Trajectory, b: Trajectory) -> bool:
    """True iff a is an exact initial segment of b on the shared grid."""
    _check_same_schema(a.schema, b.schema)
    # A one-point grid has no step to compare.
    if a.grid.count > 1 and b.grid.count > 1 and a.grid.step != b.grid.step:
        raise GridAlignmentError("grid steps differ")
    if a.grid.count > b.grid.count:
        return False
    return all(x.values == y.values for x, y in zip(a.samples, b.samples))


def trajectory_from_values(
    schema: SceneSchema,
    step: float,
    rows: Sequence[Sequence[float]],
) -> Trajectory:
    """Build a trajectory from raw value rows."""
    samples = tuple(Scene(schema, tuple(row)) for row in rows)
    return Trajectory(schema, TimeGrid(step, len(samples)), samples)
