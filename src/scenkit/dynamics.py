"""Deterministic models, family combination and trajectory evaluation.

A deterministic model is an evolution function ``evolve(theta, scene)``
obeying the identity law ``evolve(0, s) == s`` and the semigroup law
``evolve(t2, evolve(t1, s)) == evolve(t1 + t2, s)``. A model family
applies several models side by side, each writing the dimensions it
owns; families are truncated just before the first time two members
contradict each other on a shared dimension.

A model's ``evolve_fn(theta, values)`` maps a value tuple to a tuple of
``schema.k`` floats; a value a member writes outside the dimensions it
owns is discarded, not validated. Only ``evolve`` and ``evaluate`` build
Scenes, one per call or grid point; ``logical.invert`` measures the
grid loop's value rows themselves.

Absolute-time behaviors (stop_at, waypoint_follower) stay semigroup-valid
by reading and advancing a clock dimension of the scene, which makes the
flow autonomous on the extended state.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .core import Scene, SceneSchema, TimeGrid, Trajectory, scene_distance
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
    ``evolve_fn(theta, values)`` returns a tuple of ``schema.k`` floats;
    ``evolve`` validates all of it as a Scene, a family only what it owns.
    """

    id: str
    schema: SceneSchema
    theta_max: float
    evolve_fn: Callable[[float, tuple[float, ...]], tuple[float, ...]]
    owns: tuple[str, ...] | None = None
    state_sampler: Callable[[random.Random], Scene] | None = None

    def __post_init__(self):
        if self.owns is not None:
            for name in self.owns:
                if not self.schema.has(name):
                    raise SchemaError(f"model {self.id!r} owns unknown dim {name!r}")

    def owned_names(self) -> tuple[str, ...]:
        return self.schema.names if self.owns is None else self.owns

    def _check(self, theta: float, scene: Scene) -> None:
        if scene.schema is not self.schema:
            raise SchemaError(f"scene schema does not match model {self.id!r}")
        if theta < 0 or theta > self.theta_max:
            raise RangeError(f"theta {theta} outside [0, {self.theta_max}]")

    def evolve(self, theta: float, scene: Scene) -> Scene:
        self._check(theta, scene)
        return Scene(self.schema, self.evolve_fn(theta, scene.values))


@dataclass(frozen=True)
class ModelFamily:
    """A finite ordered family of models acting on one schema."""

    members: tuple[DeterministicModel, ...]
    epsilon: float
    shared: tuple[str, ...] = ()
    #: Per member, the schema indices of the dimensions it writes.
    _owned: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        index = self.schema.index
        owned = tuple(tuple(map(index, m.owned_names())) for m in self.members)
        object.__setattr__(self, "_owned", owned)

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
        outputs = [m.evolve_fn(theta, scene.values) for m in self.members]
        return Scene(self.schema, self._merge(scene.values, outputs))

    def _merge(self, base: tuple, outputs: Sequence[tuple]) -> tuple[float, ...]:
        """``base`` with each member's owned dims taken from its output."""
        vals = list(base)
        for m, out, idx in zip(self.members, outputs, self._owned):
            if len(out) != len(vals):
                raise SchemaError(f"model {m.id!r} returned {len(out)} of {len(vals)} values")
            for i in idx:
                vals[i] = out[i]
        return tuple(vals)


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
    scenario: AttributeLevelScenario, make: Callable[[SceneSchema, tuple], object]
) -> tuple[list, tuple[str, float] | None]:
    """The one grid loop: ``make(schema, row)`` of the family's merged value
    row per grid point up to the first contradiction, and that contradiction
    as (dimension, time) or None. The contradicting row is made too. A lone
    member that writes every dimension gives its output as the row."""
    family, grid = scenario.family, scenario.grid
    if grid.duration > family.theta_max:
        raise DomainExceededError(
            f"grid duration {grid.duration} exceeds the family domain",
            t_sup=family.theta_max,
        )
    schema, step, base = family.schema, grid.step, scenario.start.values
    if len(family.members) == 1 and len(set(family._owned[0])) == schema.k:
        f = family.members[0].evolve_fn
        return [make(schema, f(i * step, base)) for i in range(grid.count)], None
    # (name, index, writer positions) per shared dim with several writers.
    scans = []
    for name in family.shared:
        writers = [j for j, m in enumerate(family.members) if name in m.owned_names()]
        if len(writers) > 1:
            scans.append((name, schema.index(name), writers))
    fns = [m.evolve_fn for m in family.members]
    rows = []
    for i in range(grid.count):
        theta = i * step
        outputs = [f(theta, base) for f in fns]
        row = make(schema, family._merge(base, outputs))
        for name, d, writers in scans:
            vals = [outputs[j][d] for j in writers]
            if not all(map(math.isfinite, vals)):
                raise SchemaError(f"non-finite value in shared dimension {name!r}")
            if max(vals) - min(vals) > CONTRADICTION_TOL:
                return rows, (name, theta)
        rows.append(row)
    return rows, None


def evaluate(
    scenario: AttributeLevelScenario, allow_truncation: bool = False
) -> Trajectory | TruncatedResult:
    """Run the family from the starting scene over the requested grid.

    Deterministic: identical inputs produce bit-identical trajectories.
    Each grid point's value row becomes one Scene, validated once by its
    constructor. A grid that outruns the family's declared time domain
    raises DomainExceededError. A member contradiction before the grid
    end raises TruncationError, unless allow_truncation is set, in which
    case the truncated trajectory is returned in a TruncatedResult. A
    contradiction at the first grid point leaves nothing to return: it
    raises TruncationError with ``result`` None either way.
    """
    samples, contradiction = _walk(scenario, Scene)
    family, grid = scenario.family, scenario.grid
    if contradiction is None:
        return Trajectory(family.schema, grid, tuple(samples))
    name, theta = contradiction
    message = f"members contradict on {name!r} at t={theta}"
    if not samples:
        raise TruncationError(message, None)
    keep_until = theta - family.epsilon
    keep = min(max(1, 1 + math.floor(keep_until / grid.step + 1e-9)), len(samples))
    truncated = Trajectory(family.schema, TimeGrid(grid.step, keep), tuple(samples[:keep]))
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

    def evolve(theta: float, v: tuple) -> tuple:
        vals = list(v)
        for i, rate in idx:
            vals[i] = v[i] + rate * theta
        return tuple(vals)

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

    def evolve(theta: float, v: tuple) -> tuple:
        vals = list(v)
        vals[ix] = v[ix] + v[ivx] * theta + 0.5 * ax * theta * theta
        vals[iy] = v[iy] + v[ivy] * theta + 0.5 * ay * theta * theta
        vals[ivx] = v[ivx] + ax * theta
        vals[ivy] = v[ivy] + ay * theta
        return tuple(vals)

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

    def evolve(theta: float, v: tuple) -> tuple:
        tau = v[ic]
        moving = min(theta, max(0.0, t_stop - tau))
        vals = list(v)
        vals[ix] = v[ix] + v[ivx] * moving
        vals[iy] = v[iy] + v[ivy] * moving
        if tau + theta >= t_stop:
            vals[ivx] = 0.0
            vals[ivy] = 0.0
        vals[ic] = tau + theta
        return tuple(vals)

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
    ix, iy = schema.index(x), schema.index(y)
    ivx = schema.index(vx) if vx is not None else None
    ivy = schema.index(vy) if vy is not None else None
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

    def evolve(theta: float, v: tuple) -> tuple:
        tau = v[ic] + theta
        px, py, sx, sy = plan(tau)
        vals = list(v)
        vals[ix], vals[iy] = px, py
        if ivx is not None:
            vals[ivx] = sx
        if ivy is not None:
            vals[ivy] = sy
        vals[ic] = tau
        return tuple(vals)

    def consistent(rng: random.Random) -> Scene:
        tau = rng.uniform(0.0, ts[-1] + 5.0)
        vals = [rng.uniform(-100.0, 100.0) for _ in range(schema.k)]
        vals[ic] = 0.0  # the state reached from clock 0 at time tau
        return Scene(schema, evolve(tau, tuple(vals)))

    owned = [x, y, clock]
    if vx is not None:
        owned.insert(2, vx)
    if vy is not None:
        owned.insert(3, vy)
    return DeterministicModel(
        id, schema, math.inf, evolve, owns=tuple(owned), state_sampler=consistent
    )


def clock_model(schema: SceneSchema, clock: str = "clock", id: str = "clock") -> DeterministicModel:
    """Advances the clock dimension; for families with no other clock owner."""
    ic = _require_clock(schema, clock, id)

    def evolve(theta: float, v: tuple) -> tuple:
        vals = list(v)
        vals[ic] = v[ic] + theta
        return tuple(vals)

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
