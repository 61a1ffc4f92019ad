"""Deterministic models, family combination and trajectory evaluation.

A deterministic model is an evolution function ``evolve(theta, scene)``
obeying the identity law ``evolve(0, s) == s`` and the semigroup law
``evolve(t2, evolve(t1, s)) == evolve(t1 + t2, s)``. A model family
applies several models side by side, each writing the dimensions it
owns; families are truncated just before the first time two members
contradict each other on a shared dimension.

A model's ``evolve_fn(thetas, values)`` evolves a value tuple over many
times at once, returning one column per owned dimension. ``evaluate``
calls each member once over the grid's times, checks each merged column
once, and builds the Scenes from them. ``logical.invert`` measures the
columns as they are, walking every candidate over one tuple of times it
builds per search; a point evolution is the same call with one time.

Absolute-time behaviors (stop_at, waypoint_follower) stay semigroup-valid
by reading and advancing a clock dimension of the scene, which makes the
flow autonomous on the extended state.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import random
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Mapping, Sequence

from .core import Scene, SceneSchema, TimeGrid, Trajectory, scene_distance
from .core import _checked_columns, _trusted_scene, _trusted_trajectory
from .errors import (
    DomainExceededError,
    OwnershipError,
    RangeError,
    SchemaError,
    TruncationError,
)

#: Two members contradict when their outputs on a shared dimension differ
#: by more than this.
CONTRADICTION_TOL = 1e-6

#: Residual bound for the semigroup law on grid-aligned times.
SEMIGROUP_TOL = 1e-9
#: The semigroup probe's time grid, its longest time in steps, and the
#: range its random scenes are drawn from.
SEMIGROUP_THETA_STEP = 0.1
SEMIGROUP_MAX_STEPS = 50
SEMIGROUP_VALUE_RANGE = (-100.0, 100.0)


@dataclass(frozen=True)
class DeterministicModel:
    """An evolution function over scenes, owning a declared set of dims.

    ``owns`` lists the dimensions this model writes; dimensions owned by
    nobody keep their starting value under family evaluation. ``owns=None``
    means the model writes every dimension. State-driven models whose laws
    hold only on their reachable scenes provide ``state_sampler`` so
    randomized law checks draw consistent states.
    ``evolve_fn(thetas, values)`` returns one column per owned dimension,
    in ``owned_names()`` order, each with one value per theta; columns of
    another shape raise SchemaError naming the model.
    """

    id: str
    schema: SceneSchema
    theta_max: float
    evolve_fn: Callable[[Sequence[float], tuple[float, ...]], Sequence[Sequence[float]]]
    owns: tuple[str, ...] | None = None
    state_sampler: Callable[[random.Random], Scene] | None = None
    #: The schema indices of the dimensions it writes, in column order.
    _owned: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for name in self.owned_names():
            if not self.schema.has(name):
                raise SchemaError(f"model {self.id!r} owns unknown dim {name!r}")
        object.__setattr__(self, "_owned", tuple(map(self.schema.index, self.owned_names())))

    def owned_names(self) -> tuple[str, ...]:
        return self.schema.names if self.owns is None else self.owns

    def _check(self, theta: float, scene: Scene) -> None:
        if scene.schema is not self.schema:
            raise SchemaError(f"scene schema does not match model {self.id!r}")
        if theta < 0 or theta > self.theta_max:
            raise RangeError(f"theta {theta} outside [0, {self.theta_max}]")

    def _columns(self, thetas: Sequence[float], values: tuple) -> Sequence[Sequence[float]]:
        """``evolve_fn(thetas, values)``, checked for its shape."""
        columns, n, k = self.evolve_fn(thetas, values), len(thetas), len(self._owned)
        if len(columns) != k:
            raise SchemaError(f"model {self.id!r} returned {len(columns)} columns for {k} owned dims")
        for c in columns:
            if len(c) != n:
                raise SchemaError(f"model {self.id!r} returned a column of {len(c)} for {n} times")
        return columns

    def evolve(self, theta: float, scene: Scene) -> Scene:
        self._check(theta, scene)
        return _evolve((self,), theta, scene)


@dataclass(frozen=True)
class ModelFamily:
    """A finite ordered family of models acting on one schema."""

    members: tuple[DeterministicModel, ...]
    epsilon: float
    shared: tuple[str, ...] = ()

    @property
    def schema(self) -> SceneSchema:
        return self.members[0].schema

    @property
    def theta_max(self) -> float:
        return min(m.theta_max for m in self.members)

    def evolve(self, theta: float, scene: Scene) -> Scene:
        """Combined evolution: each member writes its owned dims."""
        for m in self.members:
            m._check(theta, scene)
        return _evolve(self.members, theta, scene)


def _merged(
    members: Sequence[DeterministicModel], thetas: Sequence[float], base: tuple
) -> tuple[list[Sequence[float]], list[Sequence[Sequence[float]]]]:
    """The value columns of ``members`` evolved from ``base`` over ``thetas``,
    each dimension from its last writer and unowned ones held at ``base``;
    and each member's own columns."""
    merged: list[Sequence[float]] = [(v,) * len(thetas) for v in base]
    outputs = [m._columns(thetas, base) for m in members]
    for m, columns in zip(members, outputs):
        for i, column in zip(m._owned, columns):
            merged[i] = column
    return merged, outputs


def _evolve(members: Sequence[DeterministicModel], theta: float, scene: Scene) -> Scene:
    merged, _ = _merged(members, (theta,), scene.values)
    return Scene(scene.schema, tuple(column[0] for column in merged))


def combine(
    members: Sequence[DeterministicModel],
    epsilon: float,
    shared: Sequence[str] = (),
) -> ModelFamily:
    """Validate ownership and build a model family.

    Dimensions written by more than one member must be declared in
    ``shared``; the contradiction scan in ``evaluate`` then checks that
    all writers agree on them at every grid point.
    """
    members = tuple(members)
    if not members:
        raise SchemaError("a family needs at least one member")
    schema = members[0].schema
    for m in members[1:]:
        if m.schema is not schema:
            raise SchemaError("family members disagree on the schema")
    if not (epsilon > 0):
        raise RangeError("epsilon must be positive")
    shared = tuple(shared)
    writers: dict[str, list[str]] = {}
    for m in members:
        for name in m.owned_names():
            writers.setdefault(name, []).append(m.id)
    for name, who in writers.items():
        if len(who) > 1 and name not in shared:
            raise OwnershipError(
                f"dimension {name!r} is written by {who} without a shared declaration"
            )
    return ModelFamily(members, epsilon, shared)


def family_of(model: DeterministicModel, epsilon: float = 0.1) -> ModelFamily:
    return combine([model], epsilon)


@dataclass(frozen=True)
class AttributeLevelScenario:
    """Pre-execution scenario: starting scene, model family, grid request."""

    start: Scene
    family: ModelFamily
    grid: TimeGrid

    def __post_init__(self):
        if self.start.schema is not self.family.schema:
            raise SchemaError("starting scene does not conform to the family schema")


@dataclass(frozen=True)
class TruncatedResult:
    """Evaluation stopped early: the family contradicted itself."""

    trajectory: Trajectory
    contradiction_time: float
    t_sup: float


def _walk(
    scenario: AttributeLevelScenario, thetas: Sequence[float]
) -> tuple[list[Sequence[float]], tuple[int, str, bool] | None]:
    """The one grid loop, calling each member once over ``thetas``, the
    grid's times, which the caller builds: the merged value columns, and
    the first row where the writers of a shared dimension are non-finite
    or contradict, as (row, dimension, whether they were finite), or None."""
    family, grid = scenario.family, scenario.grid
    if grid.duration > family.theta_max:
        raise DomainExceededError(
            f"grid duration {grid.duration} exceeds the family domain",
            t_sup=family.theta_max,
        )
    merged, outputs = _merged(family.members, thetas, scenario.start.values)
    stop, fault = grid.count, None
    for name in family.shared:
        d = family.schema.index(name)
        writers = [out[m._owned.index(d)] for m, out in zip(family.members, outputs) if d in m._owned]
        # Fast accept: equal columns of finite values cannot fault. Any
        # other case, a test that raises included, is left to the scan.
        with contextlib.suppress(Exception):
            if all(w == writers[0] for w in writers) and all(map(math.isfinite, writers[0])):
                continue
        # Only rows before an earlier dimension's fault are scanned, and
        # each value is read through ``float``, as the Scene check reads it.
        rows = zip(*[map(float, w) for w in writers])
        for i, vals in zip(range(stop if len(writers) > 1 else 0), rows):
            finite = all(map(math.isfinite, vals))
            if not finite or max(vals) - min(vals) > CONTRADICTION_TOL:
                stop, fault = i, (i, name, finite)
                break
    return merged, fault


def evaluate(
    scenario: AttributeLevelScenario, allow_truncation: bool = False
) -> Trajectory | TruncatedResult:
    """Run the family from the starting scene over the requested grid.

    Deterministic: identical inputs produce bit-identical trajectories.
    Each member is called once over the grid, so a member that raises
    raises for the whole grid. Each row up to the shared-dimension scan's
    first fault becomes one Scene, checked by its constructor, before the
    fault is raised. With no fault, the values are checked once, column
    by column, and the Scenes built unchecked; if a column fails or
    raises, each row is built by the checked Scene constructor instead,
    which names the first fault in row-major order. A grid that outruns
    the family's declared time domain raises DomainExceededError. A
    member contradiction before the grid end raises TruncationError,
    unless allow_truncation is set, in which case the truncated
    trajectory is returned in a TruncatedResult. A contradiction at the
    first grid point leaves nothing to return: it raises TruncationError
    with ``result`` None either way.
    """
    family, grid = scenario.family, scenario.grid
    columns, fault = _walk(scenario, [i * grid.step for i in range(grid.count)])
    schema, rows = family.schema, zip(*columns)
    if fault is None:
        with contextlib.suppress(Exception):  # the checked rows name the first fault
            rows = zip(*_checked_columns(schema, columns))
            return _trusted_trajectory(schema, grid, tuple(_trusted_scene(schema, r) for r in rows))
        return Trajectory(schema, grid, tuple(Scene(schema, row) for row in rows))
    i, name, finite = fault
    samples = [Scene(schema, row) for row in islice(rows, i + 1)][:i]
    if not finite:
        raise SchemaError(f"non-finite value in shared dimension {name!r}")
    theta = i * grid.step
    message = f"members contradict on {name!r} at t={theta}"
    if not samples:
        raise TruncationError(message, None)
    keep_until = theta - family.epsilon
    keep = min(max(1, 1 + math.floor(keep_until / grid.step + 1e-9)), len(samples))
    truncated = Trajectory(schema, TimeGrid(grid.step, keep), tuple(samples[:keep]))
    result = TruncatedResult(truncated, theta, t_sup=keep_until)
    if allow_truncation:
        return result
    raise TruncationError(message, result)


# --- built-in model library ---------------------------------------------


def drift(
    schema: SceneSchema,
    rates: Mapping[str, float],
    id: str = "drift",
    theta_max: float = math.inf,
) -> DeterministicModel:
    """Constant-rate motion on named dimensions; exact semigroup."""
    idx = [(schema.index(name), rate) for name, rate in rates.items()]

    def evolve(thetas: Sequence[float], v: tuple) -> list:
        return [[v[i] + rate * theta for theta in thetas] for i, rate in idx]

    return DeterministicModel(id, schema, theta_max, evolve, owns=tuple(rates))


def constant_velocity(
    schema: SceneSchema,
    vx: float,
    vy: float,
    x: str = "x",
    y: str = "y",
    id: str = "constant_velocity",
) -> DeterministicModel:
    """Position advances at a fixed velocity; other dims untouched."""
    return drift(schema, {x: vx, y: vy}, id=id)


def constant_acceleration(
    schema: SceneSchema,
    ax: float,
    ay: float,
    x: str = "x",
    y: str = "y",
    vx: str = "vx",
    vy: str = "vy",
    id: str = "constant_acceleration",
) -> DeterministicModel:
    """Closed-form kinematics: positions from the scene's own velocity."""
    ix, iy = schema.index(x), schema.index(y)
    ivx, ivy = schema.index(vx), schema.index(vy)

    def evolve(thetas: Sequence[float], v: tuple) -> tuple:
        return (
            [v[ix] + v[ivx] * theta + 0.5 * ax * theta * theta for theta in thetas],
            [v[iy] + v[ivy] * theta + 0.5 * ay * theta * theta for theta in thetas],
            [v[ivx] + ax * theta for theta in thetas],
            [v[ivy] + ay * theta for theta in thetas],
        )

    return DeterministicModel(id, schema, math.inf, evolve, owns=(x, y, vx, vy))


def _require_clock(schema: SceneSchema, clock: str, model_id: str) -> int:
    if not schema.has(clock):
        raise SchemaError(
            f"model {model_id!r} needs a clock dimension {clock!r} (unit 's') "
            "to stay semigroup-valid"
        )
    i = schema.index(clock)
    if schema.dimensions[i].unit != "s":
        raise SchemaError(f"clock dimension {clock!r} must have unit 's'")
    return i


def stop_at(
    schema: SceneSchema,
    t_stop: float,
    x: str = "x",
    y: str = "y",
    vx: str = "vx",
    vy: str = "vy",
    clock: str = "clock",
    id: str = "stop_at",
) -> DeterministicModel:
    """Drive at the scene's velocity until t_stop, then freeze.

    From t_stop on, the velocity dims are zeroed and the position is
    frozen. Reading absolute time off the clock dimension keeps the
    flow autonomous, so the semigroup law holds exactly across the stop.
    """
    ic = _require_clock(schema, clock, id)
    ix, iy = schema.index(x), schema.index(y)
    ivx, ivy = schema.index(vx), schema.index(vy)

    def evolve(thetas: Sequence[float], v: tuple) -> tuple:
        tau = v[ic]
        moving = [min(theta, max(0.0, t_stop - tau)) for theta in thetas]
        stopped = [tau + theta >= t_stop for theta in thetas]
        return (
            [v[ix] + v[ivx] * m for m in moving],
            [v[iy] + v[ivy] * m for m in moving],
            [0.0 if s else v[ivx] for s in stopped],
            [0.0 if s else v[ivy] for s in stopped],
            [tau + theta for theta in thetas],
        )

    def consistent(rng: random.Random) -> Scene:
        tau = rng.uniform(0.0, 2.0 * t_stop)
        vals = [rng.uniform(-100.0, 100.0) for _ in range(schema.k)]
        if tau >= t_stop:
            vals[ivx] = 0.0
            vals[ivy] = 0.0
        vals[ic] = tau
        return Scene(schema, tuple(vals))

    return DeterministicModel(
        id,
        schema,
        math.inf,
        evolve,
        owns=(x, y, vx, vy, clock),
        state_sampler=consistent,
    )


def waypoint_follower(
    schema: SceneSchema,
    knots: Sequence[tuple[float, float, float]],
    x: str = "x",
    y: str = "y",
    vx: str | None = "vx",
    vy: str | None = "vy",
    clock: str = "clock",
    id: str = "waypoint_follower",
) -> DeterministicModel:
    """Piecewise-linear position through (t_i, x_i, y_i) waypoints.

    Velocity dims get the slope of the segment starting at the current
    time (right-continuous); after the last waypoint the position holds
    and the velocity is zero. Requires a clock dimension.
    """
    knots = sorted((float(t), float(px), float(py)) for t, px, py in knots)
    if len(knots) < 1:
        raise RangeError("waypoint_follower needs at least one waypoint")
    for (t0, *_), (t1, *_) in zip(knots, knots[1:]):
        if not (t1 > t0):
            raise RangeError("waypoint times must be strictly increasing")
    ic = _require_clock(schema, clock, id)
    ts = [k[0] for k in knots]
    slopes = [
        ((x1 - x0) / (t1 - t0), (y1 - y0) / (t1 - t0))
        for (t0, x0, y0), (t1, x1, y1) in zip(knots, knots[1:])
    ]

    def plan(tau: float) -> tuple[float, float, float, float]:
        if tau < ts[0]:
            return knots[0][1], knots[0][2], 0.0, 0.0
        if tau >= ts[-1]:
            return knots[-1][1], knots[-1][2], 0.0, 0.0
        seg = bisect.bisect_right(ts, tau) - 1
        t0, x0, y0 = knots[seg]
        sx, sy = slopes[seg]
        return x0 + (tau - t0) * sx, y0 + (tau - t0) * sy, sx, sy

    def evolve(thetas: Sequence[float], v: tuple) -> list:
        taus = [v[ic] + theta for theta in thetas]
        px, py, sx, sy = zip(*map(plan, taus))
        return [px, py] + [c for c, name in ((sx, vx), (sy, vy)) if name is not None] + [taus]

    def consistent(rng: random.Random) -> Scene:
        tau = rng.uniform(0.0, ts[-1] + 5.0)
        vals = [rng.uniform(-100.0, 100.0) for _ in range(schema.k)]
        vals[ic] = 0.0  # the state reached from clock 0 at time tau
        return model.evolve(tau, Scene(schema, tuple(vals)))

    owned = (x, y) + tuple(n for n in (vx, vy) if n is not None) + (clock,)
    model = DeterministicModel(
        id, schema, math.inf, evolve, owns=owned, state_sampler=consistent
    )
    return model


def clock_model(schema: SceneSchema, clock: str = "clock", id: str = "clock") -> DeterministicModel:
    """Advances the clock dimension; for families with no other clock owner."""
    ic = _require_clock(schema, clock, id)

    def evolve(thetas: Sequence[float], v: tuple) -> tuple:
        return ([v[ic] + theta for theta in thetas],)

    return DeterministicModel(id, schema, math.inf, evolve, owns=(clock,))


# --- semigroup checking ---------------------------------------------------


@dataclass(frozen=True)
class SemigroupReport:
    model_id: str
    trials: int
    max_identity_residual: float
    max_semigroup_residual: float
    worst_case: tuple[float, float, Scene] | None

    @property
    def passed(self) -> bool:
        return (
            self.max_identity_residual <= SEMIGROUP_TOL
            and self.max_semigroup_residual <= SEMIGROUP_TOL
        )


def _random_scene(schema: SceneSchema, rng: random.Random, lo: float, hi: float) -> Scene:
    vals = []
    for d in schema.dimensions:
        if d.unit == "enum-code":
            vals.append(float(rng.randint(0, 5)))
        elif d.unit == "s":
            vals.append(rng.uniform(0.0, 30.0))
        else:
            vals.append(rng.uniform(lo, hi))
    return Scene(schema, tuple(vals))


def check_semigroup(
    model: DeterministicModel | ModelFamily,
    trials: int = 1000,
    rng_seed: int = 0,
) -> SemigroupReport:
    """Probe the identity and semigroup laws on random grid-aligned times.

    Report-only: passes iff the worst residual stays within 1e-9.
    """
    if trials < 1:
        raise RangeError("trials must be >= 1")
    rng = random.Random(rng_seed)
    schema = model.schema
    theta_cap = model.theta_max
    max_total = int(min(SEMIGROUP_MAX_STEPS, theta_cap / SEMIGROUP_THETA_STEP))
    sampler = getattr(model, "state_sampler", None)
    worst_id = 0.0
    worst_semi = 0.0
    worst_case = None
    for _ in range(trials):
        s = sampler(rng) if sampler else _random_scene(schema, rng, *SEMIGROUP_VALUE_RANGE)
        n1 = rng.randint(0, max_total)
        n2 = rng.randint(0, max_total - n1)
        t1, t2 = n1 * SEMIGROUP_THETA_STEP, n2 * SEMIGROUP_THETA_STEP
        worst_id = max(worst_id, scene_distance(model.evolve(0.0, s), s))
        lhs = model.evolve(t2, model.evolve(t1, s))
        rhs = model.evolve(t1 + t2, s)
        resid = scene_distance(lhs, rhs)
        if resid > worst_semi:
            worst_semi = resid
            worst_case = (t1, t2, s)
    model_id = model.id if isinstance(model, DeterministicModel) else "family"
    return SemigroupReport(model_id, trials, worst_id, worst_semi, worst_case)
