"""Scenario-logic formulas and their finite-trace evaluation.

Formulas constrain trajectories position-wise on the grid. Evaluation
over a prefix is three-valued and monotone: a TRUE or FALSE verdict on a
prefix never flips on any extension, which is what makes prefix-based
filtering and monitoring sound.

``evaluate3`` is the reference semantics: it walks a whole prefix and
returns its verdict. The library decides by ``progress``, which
consumes one scene and returns the residual formula for the rest of the
trace; the residual has folded to TrueFormula or FalseFormula exactly
when ``evaluate3`` decides the prefix. The tree walks of ``logic`` and
``monitoring``, and monitoring's pass over a given trace, carry
residuals, so a scene costs one progression instead of a re-walk of
its prefix. The tests hold ``progress`` to ``evaluate3``.

Each formula node memoizes ``progress``, keyed by the distance to the
horizon and ``scene_tol`` (all the walk reads of position and tolerance):
a decision trie whose inner nodes are the ``Atom`` and ``SceneConst``
tests the walk made, one branch per outcome, and whose leaves are
residuals. A step taken again costs only its atom tests. The memo is
kept outside the node's fields, like ``_span``, so equality, hashing,
repr and pickles ignore it. It dies with its node and holds one path per
distinct (distance, tolerance, outcomes) met: the formula and the
horizon bound it, not the number of scenes.

A scene matches a ``SceneConst`` target, as it matches the start set
and the successors' value tuples of a logic instance, through
``_values_match``: an equal value tuple matches without a distance; a
target more than ``scene_tol`` off in one coordinate is ruled out
without one, as ``hypot`` is never below its largest |argument|; any
other matches when within ``scene_tol`` by ``scene_distance``. A
``ScenePredicate`` reads scene values by index, resolved from its names
once per schema.
"""

from __future__ import annotations

import enum
import inspect
import math
import weakref
from dataclasses import dataclass
from typing import Sequence

from .core import Scene, _check_same_schema, _values_distance
from .errors import RangeError


class Verdict3(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


#: Every live node of a hash-consed class, keyed by its class and fields.
_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class _Consing(type):
    """A class call returns the live node with equal fields if there is
    one, and builds, stores and returns a new node only if not."""

    def __call__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls.__dataclass_fields__):
            bound = inspect.signature(cls.__init__).bind(None, *args, **kwargs)
            bound.apply_defaults()
            args = bound.args[1:]
        key = (cls, *args)
        node = _NODES.get(key)
        if node is None:
            node = _NODES[key] = super().__call__(*args)
        return node


class HashConsed(metaclass=_Consing):
    """Base of the formula trees, of the library and of the DSL document
    (Filliâtre & Conchon, *Type-safe modular hash-consing*, 2006). A node
    is built at most once for each structure: one table per process,
    keyed by the class and the field values, returns the live node when
    there is one, with positional, keyword and default arguments
    normalised. Operands are nodes, so they key by identity; other
    fields (predicates, scenes, names, windows) by their own ``==``.
    Structurally equal nodes are therefore one object, and ``==`` and
    ``hash`` are those of ``object``: O(1), never recursive. Subclasses
    are dataclasses declared with ``eq=False``.

    A node keeps the first-built of equal field values (``0.0`` and
    ``-0.0``, ``2`` and ``2.0``); they compare equal, so no verdict or
    merge depends on which is kept. The table holds its nodes weakly.
    Threads that build the same node at the same moment may get two
    equal nodes, which costs only a missed merge; scenkit starts no
    threads. Pickling, copying and ``dataclasses.replace`` go through
    the constructor, so they return the canonical node."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self.__dataclass_fields__)


class Formula(HashConsed):
    """A formula node, compared and merged by identity (``HashConsed``).
    ``_span`` is its verdict before any scene is seen: at a position d
    steps before the horizon, with nothing observed from there on, the
    verdict is FALSE for d < u, TRUE for d >= t and UNKNOWN in between,
    for ``(u, t) = _span``. Each node computes it from its children's
    when built, in O(1), and keeps it outside its fields; see
    ``settle``."""

    _span = (0, math.inf)


@dataclass(frozen=True, eq=False)
class TrueFormula(Formula):
    """The formula that every path satisfies."""
    _span = (0, 0)


@dataclass(frozen=True, eq=False)
class FalseFormula(Formula):
    """The formula that no path satisfies."""
    _span = (math.inf, math.inf)


@dataclass(frozen=True)
class ScenePredicate:
    """Conjunction of closed-interval constraints on scene values.

    ``bounds`` constrains single dimensions, ``diffs`` constrains
    differences value_a - value_b (needed for relative constraints such
    as gaps between actors). Either bound may be infinite.
    """

    bounds: tuple[tuple[str, float, float], ...] = ()
    diffs: tuple[tuple[str, str, float, float], ...] = ()

    #: The last schema read, and ``bounds`` and ``diffs`` with their
    #: names replaced by its indices. Kept outside the fields, and out of
    #: pickles, like ``Formula._span``.
    _at = (None, (), ())

    def __post_init__(self):
        # ``not lo <= hi`` also refuses a NaN bound.
        for name, lo, hi in self.bounds:
            if not lo <= hi:
                raise RangeError(f"bound on {name!r}: lo {lo} > hi {hi}")
        for a, b, lo, hi in self.diffs:
            if not lo <= hi:
                raise RangeError(f"bound on {a}-{b}: lo {lo} > hi {hi}")

    def __getstate__(self):
        return {"bounds": self.bounds, "diffs": self.diffs}

    def holds(self, scene: Scene) -> bool:
        """Whether the scene's values meet every bound. The names are
        resolved to indices once per schema; equal schemas are one object,
        so a scene costs one ``is``. A schema lacking a name raises
        SchemaError whatever the values."""
        schema, bounds, diffs = self._at
        if scene.schema is not schema:
            index = scene.schema.index
            bounds = tuple((index(n), lo, hi) for n, lo, hi in self.bounds)
            diffs = tuple((index(a), index(b), lo, hi) for a, b, lo, hi in self.diffs)
            self.__dict__["_at"] = (scene.schema, bounds, diffs)
        values = scene.values
        for i, lo, hi in bounds:
            v = values[i]
            if v < lo or v > hi:
                return False
        for a, b, lo, hi in diffs:
            d = values[a] - values[b]
            if d < lo or d > hi:
                return False
        return True


def pred(**bounds: tuple[float, float]) -> "Atom":
    """Shorthand: ``pred(x=(0, 10), vy=(-1, 1))``."""
    return Atom(ScenePredicate(tuple((n, float(lo), float(hi)) for n, (lo, hi) in bounds.items())))


@dataclass(frozen=True, eq=False)
class Atom(Formula):
    """The scene predicate holds at the current position."""
    predicate: ScenePredicate


@dataclass(frozen=True, eq=False)
class SceneConst(Formula):
    """The current scene matches the target scene."""
    target: Scene


@dataclass(frozen=True, eq=False)
class And(Formula):
    """Both subformulas hold."""
    left: Formula
    right: Formula

    def __post_init__(self):
        (ua, ta), (ub, tb) = self.left._span, self.right._span
        self.__dict__["_span"] = (ua if ua > ub else ub, ta if ta > tb else tb)


@dataclass(frozen=True, eq=False)
class Or(Formula):
    """At least one subformula holds."""
    left: Formula
    right: Formula

    def __post_init__(self):
        (ua, ta), (ub, tb) = self.left._span, self.right._span
        self.__dict__["_span"] = (ua if ua < ub else ub, ta if ta < tb else tb)


@dataclass(frozen=True, eq=False)
class Next(Formula):
    """The subformula holds at the next position."""
    sub: Formula

    def __post_init__(self):
        u, t = self.sub._span
        self.__dict__["_span"] = (u + 1, t + 1)


@dataclass(frozen=True, eq=False)
class Eventually(Formula):
    """The subformula holds at some position, within ``within`` steps when given."""
    sub: Formula
    within: int | None = None

    def __post_init__(self):
        if self.within is not None and self.within < 1:
            raise RangeError("within must be >= 1 when given")
        # Verdicts only improve with the distance to the horizon, so the
        # window's best position is its first.
        self.__dict__["_span"] = self.sub._span


@dataclass(frozen=True, eq=False)
class Always(Formula):
    """The subformula holds at every position, within ``within`` steps when given."""
    sub: Formula
    within: int | None = None

    def __post_init__(self):
        if self.within is not None and self.within < 1:
            raise RangeError("within must be >= 1 when given")
        # The window's worst position is its last, ``within`` steps on
        # (or the horizon).
        w = math.inf if self.within is None else self.within
        u, t = self.sub._span
        self.__dict__["_span"] = (0 if u == 0 else u + w, 0 if t == 0 else t + w)


def conjoin(formulas: Sequence[Formula]) -> Formula:
    out: Formula | None = None
    for f in formulas:
        out = f if out is None else And(out, f)
    return out if out is not None else TrueFormula()


def _values_match(
    values: tuple[float, ...], candidates: Sequence[tuple[float, ...]], tol: float
) -> bool:
    """Whether a valid scene's ``values`` match one of ``candidates``,
    value tuples in its schema's order: an equal tuple, looked for first,
    and otherwise, for ``tol > 0``, one within ``tol`` by ``scene_distance``.
    That decides as testing each candidate in order as a Scene, where one
    that is no valid Scene never matches: another length, NaN or an
    infinity (an infinite distance counts only for a finite candidate,
    one past the largest float away).

    A candidate more than ``tol`` off in one coordinate is ruled out
    unmeasured: ``hypot`` is never below its largest |argument|."""
    if values in candidates:
        return True
    if tol <= 0.0:
        return False
    for c in candidates:
        for x, y in zip(values, c):
            if abs(x - y) > tol:
                break
        else:
            d = _values_distance(values, c)
            if d <= tol and len(c) == len(values) and (d < math.inf or all(map(math.isfinite, c))):
                return True
    return False


def _const_matches(scene: Scene, target: Scene, tol: float) -> bool:
    """``_values_match`` for a ``SceneConst`` target; for ``tol > 0``,
    SchemaError on another schema, as ``scene_distance`` raises."""
    if tol > 0.0:
        _check_same_schema(scene.schema, target.schema)
    return _values_match(scene.values, (target.values,), tol)


def evaluate3(
    formula: Formula,
    samples: Sequence[Scene],
    horizon: int,
    position: int = 0,
    scene_tol: float = 0.0,
) -> Verdict3:
    """Three-valued verdict of a formula at a grid position: the
    reference semantics, which ``progress`` must match.

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
        ok = _const_matches(samples[position], formula.target, scene_tol)
        return Verdict3.TRUE if ok else Verdict3.FALSE
    if isinstance(formula, (And, Or)):
        # Walk the whole chain of this connective, nested on either side
        # and through Next, in a loop: trace formulas nest one And per
        # sample and conjoin nests to the left, too deep for one call
        # per level.
        op = And if isinstance(formula, And) else Or
        stop = Verdict3.FALSE if op is And else Verdict3.TRUE
        out = Verdict3.TRUE if op is And else Verdict3.FALSE
        todo = [(formula, position)]
        while todo:
            f, pos = todo.pop()
            if isinstance(f, op):
                todo.append((f.right, pos))
                todo.append((f.left, pos))
            elif isinstance(f, Next) and pos < horizon:
                todo.append((f.sub, pos + 1))
            else:
                v = evaluate3(f, samples, horizon, pos, scene_tol)
                if v is stop:
                    return v
                if v is Verdict3.UNKNOWN:
                    out = v
        return out
    if isinstance(formula, Next):
        while isinstance(formula, Next):
            if position + 1 > horizon:
                return Verdict3.FALSE
            position += 1
            formula = formula.sub
        return evaluate3(formula, samples, horizon, position, scene_tol)
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


# --- progression ------------------------------------------------------------

_TRUE = TrueFormula()
_FALSE = FalseFormula()


def settle(formula: Formula, horizon: int) -> Formula:
    """A formula as the residual at a position ``horizon`` steps before
    the horizon, before the scene there is seen: TrueFormula or
    FalseFormula when ``evaluate3`` decides it from positions alone
    (``Always(true)``, a ``Next`` past the horizon), the formula itself
    otherwise. A walk starts ``progress`` from ``settle(formula,
    horizon)``."""
    u, t = formula._span
    if horizon >= t:
        return _TRUE
    if horizon < u:
        return _FALSE
    return formula


def _join(kept: list[Formula], stop: Formula) -> Formula:
    """The residual of a frame: its undecided operands joined by And
    (``stop`` FALSE) or Or, or its unit if none is left."""
    op = And if stop is _FALSE else Or
    if not kept:
        return _TRUE if op is And else _FALSE
    out = kept[-1]
    for i in range(len(kept) - 2, -1, -1):
        out = op(kept[i], out)
    return out


def progress(
    formula: Formula,
    scene: Scene,
    position: int,
    horizon: int,
    scene_tol: float = 0.0,
) -> Formula:
    """The residual at position + 1 of a formula at ``position``, given
    the scene there (0 <= position <= horizon).

    This is the progression of Bacchus & Kabanza (AIJ 116, 2000), read
    in the three-valued sense of Bauer, Leucker & Schallhart (TOSEM
    20(4), 2011), with positions clipped at ``horizon`` as ``evaluate3``
    clips them. Residuals are simplified only by folding TrueFormula and
    FalseFormula, so a residual has folded exactly when ``evaluate3``
    decides the prefix seen so far, and after the scene at the horizon
    it always has. Starting from ``settle(formula, horizon)`` and
    progressing scene by scene costs O(|formula|) per scene instead of
    a re-walk of the prefix.

    The walk is a loop: And and Or chains are flattened on either side,
    and Next, Eventually and Always hand over the rest of the formula as
    an unchanged node, so a trace formula's residual is its own tail and
    no chain is walked again. Conjunction and disjunction are
    idempotent, so an And, Or, Eventually or Always node met again in
    one frame is skipped: a subformula shared in the formula's DAG is
    progressed once per frame, not once per path to it (Havelund &
    Roşu, TACAS 2002). Nodes are hash-consed, so shared means identical.

    Each node memoizes its progressions (see the module docstring). The
    walk reads the scene only through its atom tests, so a replay tests
    the same atoms in the same order, raises what they raise and returns
    the same residual object. A missing branch runs the walk once, from
    the outcomes replayed; a walk that raises adds nothing. A NaN
    ``scene_tol`` equals no key, so it is refused with RangeError.
    """
    memo = formula.__dict__.setdefault("_memo", {})
    # A trie node is [atom, branch if false, branch if true], a leaf the
    # residual; holder[slot] is where the next one sits.
    holder, slot = memo, (horizon - position, scene_tol)
    node, outcomes = memo.get(slot), []
    while node.__class__ is list:
        f = node[0]
        ok = f.predicate.holds(scene) if type(f) is Atom else _const_matches(scene, f.target, scene_tol)
        outcomes.append(ok)
        holder, slot = node, 2 if ok else 1
        node = node[slot]
    if node is not None:
        return node
    if math.isnan(scene_tol):
        raise RangeError("scene_tol must not be NaN")
    outcomes.reverse()
    tested: list[tuple[Formula, bool]] = []
    r = _walk(formula, scene, position, horizon, scene_tol, outcomes, tested)
    for f, ok in tested:
        holder[slot] = node = [f, None, None]
        holder, slot = node, 2 if ok else 1
    holder[slot] = r
    return r


def _walk(
    formula: Formula,
    scene: Scene,
    position: int,
    horizon: int,
    scene_tol: float,
    known: list[bool],
    tested: list[tuple[Formula, bool]],
) -> Formula:
    """The progression walk of ``progress``. It takes its first atom
    outcomes from the end of ``known``, and appends each atom it tests
    after those to ``tested``, with its outcome."""
    nxt = position + 1
    d = horizon - nxt
    # One frame per flattened And or Or: the constant that decides it
    # (FALSE for And, TRUE for Or), the operands still to progress
    # (leftmost last), the undecided residuals, and the And, Or,
    # Eventually and Always operands met so far: the first one, then a
    # set of the others, built at the second.
    frames: list[tuple] = []
    stop, todo, kept, first, seen = _FALSE, [formula], [], None, None
    while True:
        if todo:
            f = todo.pop()
            t = type(f)
            if t is Atom or t is SceneConst:
                if known:
                    ok = known.pop()
                else:
                    ok = f.predicate.holds(scene) if t is Atom else _const_matches(scene, f.target, scene_tol)
                    tested.append((f, ok))
                r = _TRUE if ok else _FALSE
            elif t is Next:
                r = settle(f.sub, d) if nxt <= horizon else _FALSE
            elif t is TrueFormula:
                r = _TRUE
            elif t is FalseFormula:
                r = _FALSE
            else:
                if first is None:
                    first = f
                elif f is first:
                    continue
                elif seen is None:
                    seen = {f}
                elif f in seen:
                    continue
                else:
                    seen.add(f)
                if t is And or t is Or:
                    fstop = _FALSE if t is And else _TRUE
                    if fstop is not stop:
                        frames.append((stop, todo, kept, first, seen))
                        stop, todo, kept, first, seen = fstop, [], [], None, None
                    todo.append(f.right)
                    todo.append(f.left)
                    continue
                if t is not Eventually and t is not Always:
                    raise TypeError(f"unknown formula node {f!r}")
                # The sub now, or (Eventually) and (Always) the rest of
                # the window from the next position on, if there is one.
                fstop = _FALSE if t is Always else _TRUE
                if fstop is not stop:
                    frames.append((stop, todo, kept, first, seen))
                    stop, todo, kept, first, seen = fstop, [], [], None, None
                todo.append(f.sub)
                if nxt > horizon:
                    continue
                w = f.within
                r = settle(f if w is None else f.sub if w == 1 else t(f.sub, w - 1), d)
        else:
            r = kept[0] if len(kept) == 1 else _join(kept, stop)
            if not frames:
                return r
            stop, todo, kept, first, seen = frames.pop()
        # Hand r to its frame; an operand that decides the frame is the
        # frame's residual, handed on to the frame below.
        while r is stop:
            if not frames:
                return r
            stop, todo, kept, first, seen = frames.pop()
        if r is not _TRUE and r is not _FALSE:
            kept.append(r)
