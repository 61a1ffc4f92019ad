"""Logical scenarios: parameter spaces mapped to concrete scenarios.

A logical scenario binds each point x of a finite-dimensional parameter
space to a starting scene and a model family; realizing x evaluates the
bound scenario on the attached grid. Sampling pushes a distribution on
the space forward through that map, drawing each sample from a seed
derived as (seed, draw index) so results do not depend on how draws are
batched across workers.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import math
import random
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Callable, Sequence

from .core import Scene, TimeGrid, Trajectory, _check_comparable, _checked_columns
from .core import _columns_of, _sup_distance
from .dynamics import AttributeLevelScenario, ModelFamily, _walk, evaluate
from .errors import ComplexityError, OutOfSpaceError, RangeError, SchemaError

#: Tolerance for membership of a value in a discrete axis.
DISCRETE_TOL = 1e-12

#: invert() refuses spaces with more axes than this unless forced.
MAX_INVERT_AXES = 6

#: invert() refuses coarse scans with more points than this unless forced.
MAX_SCAN_POINTS = 200_000


@dataclass(frozen=True)
class ContinuousAxis:
    name: str
    lo: float
    hi: float

    def __post_init__(self):
        for v in (self.lo, self.hi):
            if not math.isfinite(v):
                raise RangeError(f"axis {self.name!r}: non-finite bound {v}")
        if not (self.lo <= self.hi):
            raise RangeError(f"axis {self.name!r}: lo {self.lo} > hi {self.hi}")
        # Draws and invert's grid read lo + (hi - lo) * u.
        if not math.isfinite(self.hi - self.lo):
            raise RangeError(f"axis {self.name!r}: width {self.hi} - {self.lo} is not finite")

    def contains(self, v: float) -> bool:
        return self.lo <= v <= self.hi


@dataclass(frozen=True)
class DiscreteAxis:
    name: str
    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise RangeError(f"axis {self.name!r}: empty value list")
        if len(set(vals)) != len(vals):
            raise RangeError(f"axis {self.name!r}: duplicate values")
        for v in vals:
            if not math.isfinite(v):
                raise RangeError(f"axis {self.name!r}: non-finite value {v}")

    def contains(self, v: float) -> bool:
        return any(abs(v - w) <= DISCRETE_TOL for w in self.values)


Axis = ContinuousAxis | DiscreteAxis


@dataclass(frozen=True)
class ParameterSpace:
    axes: tuple[Axis, ...]

    def __post_init__(self):
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise RangeError("axis names must be unique")

    @property
    def n(self) -> int:
        return len(self.axes)

    def violating_axis(self, x: Sequence[float]) -> str | None:
        if len(x) != self.n:
            return "<dimension-count>"
        for axis, v in zip(self.axes, x):
            if not axis.contains(v):
                return axis.name
        return None

    def corners(self) -> list[tuple[float, ...]]:
        """All 2^n corners (continuous axes) x first values (discrete)."""
        per_axis = [
            (a.lo, a.hi) if isinstance(a, ContinuousAxis) else (a.values[0],)
            for a in self.axes
        ]
        return [tuple(c) for c in itertools.product(*per_axis)]


# --- distributions ---------------------------------------------------------


@dataclass(frozen=True)
class Uniform:
    """Uniform on the axis: box-uniform on continuous, equal-weight on discrete."""


@dataclass(frozen=True)
class TruncatedNormal:
    mu: float
    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0):
            raise RangeError("truncated normal needs sigma > 0")


@dataclass(frozen=True)
class DiscreteWeighted:
    weights: tuple[float, ...]

    def __post_init__(self):
        w = tuple(float(v) for v in self.weights)
        object.__setattr__(self, "weights", w)
        if any(v < 0 for v in w):
            raise RangeError("weights must be nonnegative")
        if abs(sum(w) - 1.0) > 1e-12:
            raise RangeError(f"weights sum to {sum(w)}, expected 1")


Marginal = Uniform | TruncatedNormal | DiscreteWeighted


@dataclass(frozen=True)
class ParameterDistribution:
    """Independent per-axis marginals; uniform where unspecified."""

    marginals: tuple[Marginal, ...] = ()

    @staticmethod
    def uniform_for(space: ParameterSpace) -> "ParameterDistribution":
        return ParameterDistribution(tuple(Uniform() for _ in space.axes))

    def validate_against(self, space: ParameterSpace) -> None:
        if len(self.marginals) != space.n:
            raise RangeError("one marginal per axis required")
        for axis, m in zip(space.axes, self.marginals):
            if isinstance(m, DiscreteWeighted):
                if not isinstance(axis, DiscreteAxis):
                    raise RangeError(f"weights on non-discrete axis {axis.name!r}")
                if len(m.weights) != len(axis.values):
                    raise RangeError(f"axis {axis.name!r}: weight count mismatch")
            if isinstance(m, TruncatedNormal) and not isinstance(axis, ContinuousAxis):
                raise RangeError(f"truncated normal on discrete axis {axis.name!r}")


def _draw_axis(axis: Axis, marginal: Marginal, rng: random.Random) -> float:
    if isinstance(axis, DiscreteAxis):
        if isinstance(marginal, DiscreteWeighted):
            u = rng.random()
            acc = 0.0
            for v, w in zip(axis.values, marginal.weights):
                acc += w
                if u <= acc:
                    return v
            return axis.values[-1]
        return axis.values[rng.randrange(len(axis.values))]
    if isinstance(marginal, TruncatedNormal):
        nd = NormalDist(marginal.mu, marginal.sigma)
        a, b = nd.cdf(axis.lo), nd.cdf(axis.hi)
        u = min(max(a + (b - a) * rng.random(), 1e-15), 1 - 1e-15)
        return min(max(nd.inv_cdf(u), axis.lo), axis.hi)
    return axis.lo + (axis.hi - axis.lo) * rng.random()


def derive_seed(seed: int, index: int) -> int:
    """Stable per-draw seed, independent of worker partitioning."""
    digest = hashlib.sha256(f"scenkit:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# --- the scenario itself ---------------------------------------------------

Binder = Callable[[tuple[float, ...]], tuple[Scene, ModelFamily]]


@dataclass(frozen=True)
class LogicalScenario:
    """Map from a parameter space to concrete scenarios.

    ``binder(x)`` returns the starting scene and the model family for x;
    realization evaluates them on ``grid``.
    """

    space: ParameterSpace
    binder: Binder
    grid: TimeGrid
    name: str = field(default="logical")


def _bind(scenario: LogicalScenario, x: Sequence[float]) -> AttributeLevelScenario:
    """The attribute-level scenario an in-space parameter vector binds."""
    x = tuple(float(v) for v in x)
    bad = scenario.space.violating_axis(x)
    if bad is not None:
        raise OutOfSpaceError(f"parameter {x} violates axis {bad!r}", axis=bad)
    start, family = scenario.binder(x)
    return AttributeLevelScenario(start, family, scenario.grid)


def realize(scenario: LogicalScenario, x: Sequence[float]) -> Trajectory:
    """Evaluate the scenario at one in-space parameter vector."""
    result = evaluate(_bind(scenario, x))
    assert isinstance(result, Trajectory)
    return result


def sample(
    scenario: LogicalScenario,
    dist: ParameterDistribution | None,
    count: int,
    rng_seed: int,
) -> list[tuple[tuple[float, ...], Trajectory]]:
    """Draw count i.i.d. parameter vectors and realize each one."""
    if count < 1:
        raise RangeError("count must be >= 1")
    xs = draw_parameters(scenario.space, dist, count, rng_seed)
    return [(x, realize(scenario, x)) for x in xs]


def draw_parameters(
    space: ParameterSpace,
    dist: ParameterDistribution | None,
    count: int,
    rng_seed: int,
) -> list[tuple[float, ...]]:
    """Parameter draws without realization (for statistics on the space).

    Draw i takes its axes in order from one generator seeded by
    ``derive_seed(rng_seed, i)``.
    """
    if dist is None:
        dist = ParameterDistribution.uniform_for(space)
    dist.validate_against(space)
    out = []
    for i in range(count):
        rng = random.Random(derive_seed(rng_seed, i))
        out.append(
            tuple(
                _draw_axis(axis, marginal, rng)
                for axis, marginal in zip(space.axes, dist.marginals)
            )
        )
    return out


# --- inverse image analysis ------------------------------------------------


@dataclass(frozen=True)
class Found:
    x: tuple[float, ...]
    residual: float


@dataclass(frozen=True)
class NotInImage:
    best_x: tuple[float, ...]
    best_residual: float


def _columns(bound: AttributeLevelScenario, thetas: Sequence[float]) -> list[tuple[float, ...]]:
    """The float columns ``evaluate(bound)`` makes its Scenes of, walked
    over ``thetas``, the grid's times; raises what ``evaluate`` raises,
    where it raises it. Columns that pass the column check are returned as
    they are; otherwise ``evaluate`` names the first fault, or its row
    check accepts what the column check refused (a column given as a
    string)."""
    columns, fault = _walk(bound, thetas)
    if fault is None:
        with contextlib.suppress(Exception):
            return _checked_columns(bound.family.schema, columns)
    return list(zip(*(s.values for s in evaluate(bound).samples)))


def invert(
    scenario: LogicalScenario,
    target: Trajectory,
    tol: float,
    coarse: int = 16,
    force: bool = False,
) -> Found | NotInImage:
    """Search for x with realize(scenario, x) within tol of the target.

    Coarse grid scan over the space followed by a derivative-free
    coordinate pattern search (shrink factor 0.5, stop when the step
    falls below tol/10). Best-effort numerics, not exact solving.

    A residual is ``trajectory_distance(realize(scenario, x), target)``
    measured on the value columns the grid walk makes, building no Scene
    or Trajectory. What no candidate changes is computed once per search:
    the target's value columns and the grid's times. A residual then costs
    one bind, one model walk over those times, one column check, the
    schema and grid checks against the target, and one distance, in that
    order; the per-row Scene check runs only to name a fault, so a
    candidate raises what ``realize`` would, where it would. Each distinct
    point (by its exact bits) is measured once. Residuals may be inf; then
    the best x is the first.
    """
    if not (tol > 0):
        raise RangeError("tol must be positive")
    if coarse < 2:
        raise RangeError(f"coarse must be >= 2, got {coarse}")
    axes = scenario.space.axes
    # The schema is probed at the first corner, which is in the space;
    # the scan reuses that binding.
    corner = tuple(float(a.lo if isinstance(a, ContinuousAxis) else a.values[0]) for a in axes)
    probe = scenario.binder(corner)
    if target.schema is not probe[0].schema:
        raise SchemaError("target trajectory schema does not match the scenario")
    n_cont = sum(isinstance(a, ContinuousAxis) for a in axes)
    if n_cont > MAX_INVERT_AXES and not force:
        raise ComplexityError(
            f"{n_cont} continuous axes exceed the inversion guard "
            f"({MAX_INVERT_AXES}); pass force=True to override"
        )

    seen: dict[tuple[str, ...], float] = {}
    corner_key = tuple(v.hex() for v in corner)
    # Every candidate is bound on scenario.grid. The times are a tuple, so
    # no model can change them for the candidates after it.
    thetas = tuple([i * scenario.grid.step for i in range(scenario.grid.count)])
    target_columns = _columns_of(target)

    def residual(x: tuple[float, ...]) -> float:
        # Each point once, keyed on its exact bits: 0.0 and -0.0 stay apart.
        key = tuple(float(v).hex() for v in x)
        if key not in seen:
            if key == corner_key:
                bound = AttributeLevelScenario(*probe, scenario.grid)
            else:
                bound = _bind(scenario, x)
            columns = _columns(bound, thetas)
            _check_comparable(bound.family.schema, bound.grid, target)
            seen[key] = _sup_distance(columns, target_columns)
        return seen[key]

    grids = []
    for a in axes:
        if isinstance(a, DiscreteAxis):
            grids.append(a.values)
        elif a.hi == a.lo:
            grids.append((a.lo,))
        else:
            grids.append(
                tuple(a.lo + (a.hi - a.lo) * i / (coarse - 1) for i in range(coarse))
            )
    total = math.prod(len(g) for g in grids)
    if total > MAX_SCAN_POINTS and not force:
        raise ComplexityError(
            f"coarse scan of {total} points exceeds the guard; pass force=True"
        )
    best_x = None
    best_r = math.inf
    for x in itertools.product(*grids):
        r = residual(x)
        if best_x is None or r < best_r:
            best_x, best_r = x, r

    # Pattern search on the continuous axes only, clamped to the box.
    steps = [
        (a.hi - a.lo) / max(coarse - 1, 1) if isinstance(a, ContinuousAxis) else 0.0
        for a in axes
    ]
    x_cur, r_cur = list(best_x), best_r
    while any(s >= tol / 10 for s in steps):
        improved = False
        for i, a in enumerate(axes):
            if not isinstance(a, ContinuousAxis) or steps[i] == 0.0:
                continue
            for cand in (x_cur[i] - steps[i], x_cur[i] + steps[i]):
                cand = min(max(cand, a.lo), a.hi)
                if cand == x_cur[i]:
                    continue
                trial = list(x_cur)
                trial[i] = cand
                r = residual(tuple(trial))
                if r < r_cur:
                    x_cur, r_cur = trial, r
                    improved = True
        if not improved:
            steps = [s * 0.5 for s in steps]
    x_best = tuple(x_cur)
    if r_cur <= tol:
        return Found(x_best, r_cur)
    return NotInImage(x_best, r_cur)


def invert_over_binders(
    scenarios: Sequence[LogicalScenario], target: Trajectory, tol: float
) -> tuple[int, Found] | NotInImage:
    """Try a registry of candidate scenarios in order; first hit wins.

    Realizes the "unknown model family" variant of inverse-image
    analysis over an explicit, finite registry.
    """
    best: NotInImage | None = None
    for i, scenario in enumerate(scenarios):
        result = invert(scenario, target, tol)
        if isinstance(result, Found):
            return i, result
        if best is None or result.best_residual < best.best_residual:
            best = result
    if best is None:
        raise RangeError("empty scenario registry")
    return best

