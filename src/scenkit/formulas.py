"""Scenario-logic formulas and their finite-trace evaluation.

Formulas constrain trajectories position-wise on the grid. Evaluation
over a prefix is three-valued and monotone: a TRUE or FALSE verdict on a
prefix never flips on any extension, which is what makes prefix-based
filtering and monitoring sound.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from .core import Scene, scene_distance
from .errors import RangeError


class Verdict3(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


class Formula:
    pass


@dataclass(frozen=True)
class TrueFormula(Formula):
    pass


@dataclass(frozen=True)
class FalseFormula(Formula):
    pass


@dataclass(frozen=True)
class ScenePredicate:
    """Conjunction of closed-interval constraints on scene values.

    ``bounds`` constrains single dimensions, ``diffs`` constrains
    differences value_a - value_b (needed for relative constraints such
    as gaps between actors). Either bound may be infinite.
    """

    bounds: tuple[tuple[str, float, float], ...] = ()
    diffs: tuple[tuple[str, str, float, float], ...] = ()

    def __post_init__(self):
        for name, lo, hi in self.bounds:
            if lo > hi:
                raise RangeError(f"bound on {name!r}: lo {lo} > hi {hi}")
        for a, b, lo, hi in self.diffs:
            if lo > hi:
                raise RangeError(f"bound on {a}-{b}: lo {lo} > hi {hi}")

    def holds(self, scene: Scene) -> bool:
        for name, lo, hi in self.bounds:
            v = scene[name]
            if v < lo or v > hi:
                return False
        for a, b, lo, hi in self.diffs:
            d = scene[a] - scene[b]
            if d < lo or d > hi:
                return False
        return True


def pred(**bounds: tuple[float, float]) -> "Atom":
    """Shorthand: ``pred(x=(0, 10), vy=(-1, 1))``."""
    return Atom(ScenePredicate(tuple((n, float(lo), float(hi)) for n, (lo, hi) in bounds.items())))


@dataclass(frozen=True)
class Atom(Formula):
    predicate: ScenePredicate


@dataclass(frozen=True)
class SceneConst(Formula):
    target: Scene


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Next(Formula):
    sub: Formula


@dataclass(frozen=True)
class Eventually(Formula):
    sub: Formula
    within: int | None = None

    def __post_init__(self):
        if self.within is not None and self.within < 1:
            raise RangeError("within must be >= 1 when given")


@dataclass(frozen=True)
class Always(Formula):
    sub: Formula
    within: int | None = None

    def __post_init__(self):
        if self.within is not None and self.within < 1:
            raise RangeError("within must be >= 1 when given")


def conjoin(formulas: Sequence[Formula]) -> Formula:
    out: Formula | None = None
    for f in formulas:
        out = f if out is None else And(out, f)
    return out if out is not None else TrueFormula()


def _not(v: Verdict3) -> Verdict3:
    if v is Verdict3.TRUE:
        return Verdict3.FALSE
    if v is Verdict3.FALSE:
        return Verdict3.TRUE
    return Verdict3.UNKNOWN


def _and3(a: Verdict3, b: Verdict3) -> Verdict3:
    if a is Verdict3.FALSE or b is Verdict3.FALSE:
        return Verdict3.FALSE
    if a is Verdict3.TRUE and b is Verdict3.TRUE:
        return Verdict3.TRUE
    return Verdict3.UNKNOWN


def _or3(a: Verdict3, b: Verdict3) -> Verdict3:
    return _not(_and3(_not(a), _not(b)))


def _scene_matches(scene: Scene, target: Scene, tol: float) -> bool:
    if tol <= 0.0:
        return scene.values == target.values
    return scene_distance(scene, target) <= tol


def evaluate3(
    formula: Formula,
    samples: Sequence[Scene],
    horizon: int,
    position: int = 0,
    scene_tol: float = 0.0,
) -> Verdict3:
    """Three-valued verdict of a formula at a grid position.

    ``samples`` is the known prefix, ``horizon`` the index of the final
    grid position of any full trace. Positions beyond the prefix are
    unknown; positions beyond the horizon do not exist (Next there is
    FALSE, temporal windows are clipped).
    """
    if isinstance(formula, TrueFormula):
        return Verdict3.TRUE
    if isinstance(formula, FalseFormula):
        return Verdict3.FALSE
    if isinstance(formula, Atom):
        if position >= len(samples):
            return Verdict3.UNKNOWN
        return Verdict3.TRUE if formula.predicate.holds(samples[position]) else Verdict3.FALSE
    if isinstance(formula, SceneConst):
        if position >= len(samples):
            return Verdict3.UNKNOWN
        ok = _scene_matches(samples[position], formula.target, scene_tol)
        return Verdict3.TRUE if ok else Verdict3.FALSE
    if isinstance(formula, And):
        # Walk the right-nested And/Next spine in a loop: trace formulas
        # nest one level per sample, too deep for one call per level.
        out = evaluate3(formula.left, samples, horizon, position, scene_tol)
        formula = formula.right
        while isinstance(formula, (And, Next)):
            if isinstance(formula, And):
                out = _and3(out, evaluate3(formula.left, samples, horizon, position, scene_tol))
                formula = formula.right
            elif position + 1 > horizon:
                return Verdict3.FALSE
            else:
                position += 1
                formula = formula.sub
        return _and3(out, evaluate3(formula, samples, horizon, position, scene_tol))
    if isinstance(formula, Or):
        return _or3(
            evaluate3(formula.left, samples, horizon, position, scene_tol),
            evaluate3(formula.right, samples, horizon, position, scene_tol),
        )
    if isinstance(formula, Next):
        if position + 1 > horizon:
            return Verdict3.FALSE
        return evaluate3(formula.sub, samples, horizon, position + 1, scene_tol)
    if isinstance(formula, Eventually):
        last = horizon if formula.within is None else min(position + formula.within, horizon)
        out = Verdict3.FALSE
        for j in range(position, last + 1):
            v = evaluate3(formula.sub, samples, horizon, j, scene_tol)
            if v is Verdict3.TRUE:
                return Verdict3.TRUE
            if v is Verdict3.UNKNOWN:
                out = Verdict3.UNKNOWN
        return out
    if isinstance(formula, Always):
        last = horizon if formula.within is None else min(position + formula.within, horizon)
        out = Verdict3.TRUE
        for j in range(position, last + 1):
            v = evaluate3(formula.sub, samples, horizon, j, scene_tol)
            if v is Verdict3.FALSE:
                return Verdict3.FALSE
            if v is Verdict3.UNKNOWN:
                out = Verdict3.UNKNOWN
        return out
    raise TypeError(f"unknown formula node {formula!r}")
