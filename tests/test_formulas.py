"""Formula progression against the three-valued evaluator, memoized
progression against the walk, deep formulas, and scene matching and
predicates against their reference readings."""

import contextlib
import copy
import dataclasses
import functools
import gc
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scenkit.formulas as formulas_module
from scenkit.core import (
    Scene,
    SceneSchema,
    TimeGrid,
    Trajectory,
    prefix,
    scene_distance,
    schema_of,
)
from scenkit.errors import RangeError, SchemaError
from scenkit.formulas import (
    _NODES,
    Always,
    And,
    Atom,
    Eventually,
    FalseFormula,
    Formula,
    Next,
    Or,
    SceneConst,
    ScenePredicate,
    TrueFormula,
    Verdict3,
    evaluate3,
    pred,
    progress,
    settle,
)
from scenkit.logic import (
    AbstractScenario,
    ScenarioLogicInstance,
    delta_step_instance,
    binary_branching,
    enumerate_scenarios,
    expand,
    trace_formula,
)
from scenkit.monitoring import Verdict, monitor_prefix, monitor_word, monitor_word_report

LINE = schema_of(("v", "m"))
VALUES = (-1.0, -0.5, 0.0, 0.5, 1.0, 1.25)

_atoms = st.builds(
    lambda lo, width: Atom(ScenePredicate((("v", float(lo), float(lo + width)),))),
    st.integers(-2, 1),
    st.integers(0, 2),
)
_consts = st.builds(lambda v: SceneConst(Scene(LINE, (v,))), st.sampled_from(VALUES))
_windows = st.one_of(st.none(), st.integers(1, 3))
_ops = st.sampled_from([And, Or])
_temporals = st.sampled_from([Eventually, Always])
_leaves = st.one_of(st.just(TrueFormula()), st.just(FalseFormula()), _atoms, _consts)


def _connectives(sub):
    # The last three builds reuse a subformula under several paths.
    return st.one_of(
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Next, sub),
        st.builds(Eventually, sub, _windows),
        st.builds(Always, sub, _windows),
        st.builds(lambda a, b, o, i: o(a, i(b, a)), sub, sub, _ops, _ops),
        st.builds(lambda a, t, w, o: o(t(a, w), Next(t(a, w))), sub, _temporals, _windows, _ops),
        st.builds(lambda a, t, w, o: o(t(a, w), t(t(a, w), w)), sub, _temporals, _windows, _ops),
    )


formulas = st.recursive(_leaves, _connectives, max_leaves=10)


def residual_verdict(residual) -> Verdict3:
    if isinstance(residual, TrueFormula):
        return Verdict3.TRUE
    if isinstance(residual, FalseFormula):
        return Verdict3.FALSE
    return Verdict3.UNKNOWN


# Small horizons put Next at and past the horizon and clip the windows;
# with scene_tol 0.3, SceneConst matches 1.0 and 1.25 to each other.
@settings(max_examples=1500, deadline=None)
@given(
    formulas,
    st.integers(0, 4),
    st.lists(st.sampled_from(VALUES), min_size=5, max_size=5),
    st.sampled_from([0.0, 0.3]),
)
def test_progression_verdict_equals_evaluate3_after_every_scene(f, horizon, values, tol):
    samples = tuple(Scene(LINE, (v,)) for v in values[: horizon + 1])
    residuals = [settle(f, horizon)]
    for k, scene in enumerate(samples):
        residuals.append(progress(residuals[-1], scene, k, horizon, tol))
    for k, r in enumerate(residuals):
        assert residual_verdict(r) is evaluate3(f, samples[:k], horizon, scene_tol=tol)
        # The residual at k means on the full trace what the formula means.
        assert evaluate3(r, samples, horizon, k, tol) is evaluate3(f, samples, horizon, 0, tol)
    assert residual_verdict(residuals[-1]) is not Verdict3.UNKNOWN


# --- the progression memo ---------------------------------------------------------

# Two atoms that raise SchemaError on a LINE scene: a predicate on a
# dimension LINE lacks, and, for scene_tol > 0, a target of another schema.
_MISSING = Atom(ScenePredicate((("w", 0.0, 1.0),)))
_ELSEWHERE = SceneConst(Scene(schema_of(("v", "s")), (0.5,)))
_memo_formulas = st.recursive(
    _leaves | st.sampled_from((_MISSING, _ELSEWHERE)), _connectives, max_leaves=10
)


@contextlib.contextmanager
def _logged_tests():
    """The atom tests that progression makes, each logged before it runs."""
    calls = []
    holds, matches = ScenePredicate.holds, formulas_module._const_matches

    def logged_holds(p, scene):
        calls.append(("holds", id(p), id(scene)))
        return holds(p, scene)

    def logged_matches(scene, target, tol):
        calls.append(("matches", id(target), id(scene), tol))
        return matches(scene, target, tol)

    ScenePredicate.holds, formulas_module._const_matches = logged_holds, logged_matches
    try:
        yield calls
    finally:
        ScenePredicate.holds, formulas_module._const_matches = holds, matches


def _progression(step, f, samples, horizon, tol):
    """Each residual of ``f`` over ``samples`` by ``step``, then the error
    that ended them if one did; the atom tests made; and the walks run."""
    walk, walks = formulas_module._walk, []

    def counted(*args):
        walks.append(args)
        return walk(*args)

    formulas_module._walk = counted
    out, r = [], settle(f, horizon)
    try:
        with _logged_tests() as calls:
            for k, scene in enumerate(samples):
                r = step(r, scene, k, horizon, tol)
                out.append(r)
    except SchemaError as e:
        out.append((type(e), str(e)))
    finally:
        formulas_module._walk = walk
    return out, calls, len(walks)


def _walk_alone(f, scene, position, horizon, tol):
    return formulas_module._walk(f, scene, position, horizon, tol, [], [])


@settings(max_examples=800, deadline=None)
@given(
    _memo_formulas,
    st.lists(
        st.tuples(
            st.integers(0, 4),
            st.lists(st.sampled_from(VALUES), min_size=5, max_size=5),
            st.sampled_from([0.0, 0.3]),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_memoized_progression_replays_the_walk(f, traces):
    # Each trace twice: the later traces, at their own horizon and
    # tolerance, branch off the paths the earlier ones added, and the
    # second pass replays them.
    for n, (horizon, values, tol) in enumerate(traces + traces):
        samples = tuple(Scene(LINE, (v,)) for v in values[: horizon + 1])
        want, want_calls, _ = _progression(_walk_alone, f, samples, horizon, tol)
        got, got_calls, walks = _progression(progress, f, samples, horizon, tol)
        assert got_calls == want_calls
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g is w if isinstance(w, Formula) else g == w
        if n >= len(traces):
            # Only a step that raises is walked again.
            assert walks == (not isinstance(want[-1], Formula))


def _memo_entries() -> int:
    """The inner nodes and leaves of every live node's memo."""
    gc.collect()
    todo = [t for f in list(_NODES.values()) for t in f.__dict__.get("_memo", {}).values()]
    n = 0
    while todo:
        t = todo.pop()
        n += 1
        if type(t) is list:
            todo += [c for c in t[1:] if c is not None]
    return n


def test_the_memo_is_invisible():
    f = And(Always(pred(v=(-0.75, 1.25))), Eventually(SceneConst(Scene(LINE, (0.375,))), 2))

    def view():
        return repr(f), hash(f), [pickle.dumps(f, p) for p in range(pickle.HIGHEST_PROTOCOL + 1)]

    before = view()
    r = settle(f, 3)
    for k, v in enumerate((0.0, 0.5, 1.0, 1.25)):
        r = progress(r, Scene(LINE, (v,)), k, 3, 0.3)
    assert f.__dict__["_memo"] and view() == before
    assert f == And(f.left, f.right) and f != f.left
    assert pickle.loads(pickle.dumps(f)) is f


def test_a_repeated_word_replays_and_adds_no_memo_entry(monkeypatch):
    # With a world formula, the formula monitored is a conjunction that
    # only the scenario holds.
    world = (Always(pred(v=(-0.625, 2.625))),)
    scenario = AbstractScenario(Eventually(_at(2.0), 3), world, _walk_instance(3))
    word = _word([0, 1, 2, 2])
    assert monitor_word(word, scenario) is Verdict.ACCEPTED
    entries = _memo_entries()

    def walked(*args):
        raise AssertionError("a repeated step was walked")

    monkeypatch.setattr(formulas_module, "_walk", walked)
    assert monitor_word(word, scenario) is Verdict.ACCEPTED
    assert _memo_entries() == entries


def test_an_atom_that_raises_leaves_no_memo_entry():
    f = Or(_at(0.625), _MISSING)
    with pytest.raises(SchemaError):
        progress(f, Scene(LINE, (1.0,)), 0, 2)
    assert not f.__dict__.get("_memo")
    # v = 0.625 decides the Or before the missing name is read.
    assert progress(f, Scene(LINE, (0.625,)), 0, 2) is TrueFormula()
    entries = _memo_entries()
    # The replayed test fails, and the walk from there raises.
    with pytest.raises(SchemaError):
        progress(f, Scene(LINE, (1.0,)), 0, 2)
    assert _memo_entries() == entries


def test_a_nan_scene_tol_is_refused_and_leaves_no_memo_entry():
    f = Always(pred(v=(0.125, 9.0)))
    scene = Scene(LINE, (1.0,))
    entries = _memo_entries()
    nan = float("nan")
    # A fresh NaN each time, and one NaN object again and again.
    for tol in [float("nan") for _ in range(5)] + [nan] * 5:
        with pytest.raises(RangeError, match="scene_tol must not be NaN"):
            progress(f, scene, 0, 3, tol)
    assert _memo_entries() == entries


# --- deep formulas ---------------------------------------------------------------

DEPTH = 10_000


def _walk_instance(horizon: int):
    start = Scene(LINE, (0.0,))
    return delta_step_instance(LINE, [(0.0,), (1.0,)], 1.0, horizon, [start], id="walk")


def _word(values):
    samples = tuple(Scene(LINE, (float(v),)) for v in values)
    return Trajectory(LINE, TimeGrid(1.0, len(samples)), samples)


def _at(v: float):
    return pred(v=(v, v))


def test_right_nested_or_chain_monitors_without_recursion():
    # Or(v = 0 at 0, Or(v = 1 at 0, ...)): one level per disjunct.
    chain = _at(float(DEPTH))
    for i in range(DEPTH - 1, -1, -1):
        chain = Or(_at(float(i)), chain)
    inst = _walk_instance(3)
    scenario = AbstractScenario(Always(chain), (), inst)
    assert monitor_word(_word([0, 1, 1, 2]), scenario) is Verdict.ACCEPTED
    low = AbstractScenario(And(chain, Next(Next(_at(-1.0)))), (), inst)
    report = monitor_word_report(_word([0, 1, 1, 2]), low)
    assert (report.verdict, report.violation_index) == (Verdict.REJECTED, 2)
    assert len(enumerate_scenarios(scenario)) == 2**3


def test_many_world_formulas_monitor_without_recursion():
    # conjoin nests the world formulas to the left, one And per formula.
    world = tuple(Always(pred(v=(-1.0 - i, 3.0 + i))) for i in range(5_000))
    scenario = AbstractScenario(Eventually(_at(2.0)), world, _walk_instance(3))
    assert monitor_word(_word([0, 1, 2, 2]), scenario) is Verdict.ACCEPTED
    assert monitor_word(_word([0, 0, 1, 1]), scenario) is Verdict.REJECTED
    assert [tuple(s.values[0] for s in t.samples) for t in enumerate_scenarios(scenario)] == [
        (0.0, 0.0, 1.0, 2.0), (0.0, 1.0, 1.0, 2.0), (0.0, 1.0, 2.0, 2.0), (0.0, 1.0, 2.0, 3.0)
    ]


def test_nested_always_monitors_each_shared_level_once():
    # Each Always level is handed on as the rest of its window and met
    # again in the same frame, where it is progressed once.
    inst = binary_branching(4)
    zeros = Trajectory(inst.schema, inst.grid(4), tuple(Scene(inst.schema, (0.0,)) for _ in range(4)))
    for depth in (100, 3_000):
        f = pred(bit=(0, 0))
        for _ in range(depth):
            f = Always(f)
        assert monitor_word(zeros, AbstractScenario(f, (), inst)) is Verdict.ACCEPTED
        assert monitor_word(
            zeros, AbstractScenario(And(f, Eventually(pred(bit=(1, 1)))), (), inst)
        ) is Verdict.REJECTED


def test_trace_formula_progresses_through_a_tree_walk():
    # Each residual of a trace formula is the rest of its chain, handed
    # on without a re-walk; two children per node, one of them pruned.
    c = _word([i // 2 for i in range(DEPTH)])
    scenario = AbstractScenario(trace_formula(c), (), _walk_instance(DEPTH - 1))
    (leaf,) = enumerate_scenarios(scenario)
    assert leaf.samples == c.samples
    assert expand(scenario, prefix(c, c.grid.t(DEPTH - 4)), 3) == (c,)
    assert monitor_prefix(prefix(c, c.grid.t(DEPTH - 3)), scenario) is Verdict3.UNKNOWN


# --- one node per structure ------------------------------------------------


def _sample_formula():
    return And(
        Eventually(pred(v=(0, 1)), 2),
        Or(Next(SceneConst(Scene(LINE, (0.5,)))), Always(Or(TrueFormula(), _at(-1.0)))),
    )


def test_equal_formulas_built_apart_are_one_node():
    f = _sample_formula()
    assert _sample_formula() is f
    assert And(f.left, f.right) is f and Or(f.left, f.right) is not f
    assert Eventually(f) is Eventually(f, None) is Eventually(f, within=None) is Eventually(sub=f)
    assert Always(f, 2) is not Always(f, 1) and Always(f, 2) is not Eventually(f, 2)
    assert TrueFormula() is TrueFormula() and TrueFormula() != FalseFormula()
    # Equal field values are one key: the node keeps the first built.
    assert Next(SceneConst(Scene(LINE, (-0.0,)))) is Next(SceneConst(Scene(LINE, (0.0,))))


@pytest.mark.parametrize(
    "copier",
    [
        lambda f: pickle.loads(pickle.dumps(f)),
        copy.copy,
        copy.deepcopy,
        dataclasses.replace,
    ],
    ids=["pickle", "copy", "deepcopy", "replace"],
)
def test_copies_are_the_canonical_node(copier):
    f = _sample_formula()
    assert copier(f) is f
    assert copier(f.left) is f.left and copier(TrueFormula()) is TrueFormula()
    assert dataclasses.replace(Always(f, 2), within=None) is Always(f)


def test_deep_formulas_hash_and_compare_without_recursion():
    def chain(n):
        out = _at(float(n))
        for i in range(n - 1, -1, -1):
            out = Or(_at(float(i)), out)
        return out

    a, b, c = chain(3_000), chain(3_000), chain(2_999)
    assert a is b and a == b and hash(a) == hash(b)
    assert a != c and {a: 1}[b] == 1 and c not in {a: 1}


# --- scene matching and predicates ------------------------------------------

PAIR = schema_of(("a", "m"), ("b", "m"))
# Built apart from PAIR, so PAIR itself, and one with the same names and
# length but another unit.
PAIR_TWIN = schema_of(("a", "m"), ("b", "m"))
PAIR_OTHER = schema_of(("a", "m"), ("b", "s"))

_coords = st.sampled_from((0.0, 1.0, -1.0, 0.5, 1e308, -1e308)) | st.floats(-4.0, 4.0)
_pairs = st.tuples(_coords, _coords)
# Value tuples a successor relation may yield: also NaN, infinities and
# the wrong length.
_non_finite = st.sampled_from((math.nan, math.inf, -math.inf))
_raw_pairs = (
    _pairs
    | st.tuples(_coords | _non_finite, _coords | _non_finite)
    | st.lists(_coords, min_size=1, max_size=3).map(tuple)
)


def _matches_in_order(scene, candidates, tol):
    """The reference: each candidate's distance tested in order, values
    alone when ``tol <= 0``."""
    if tol <= 0.0:
        return any(c.values == scene.values for c in candidates)
    return any(scene_distance(scene, c) <= tol for c in candidates)


def _outcome(match, *args):
    try:
        return match(*args)
    except SchemaError as exc:
        return "SchemaError", str(exc)


#: Fixed tolerances: a negative one and 0.0; ones whose squares are
#: subnormal or 0.0 (5e-324, 1e-300, 1e-160, 1e-154), where a distance
#: taken by squares would lose tiny differences; ordinary ones; and inf.
_FIXED_TOLS = (-1.0, 0.0, 5e-324, 1e-300, 1e-160, 1e-154, 1e-9, 0.5, 1.0, math.inf)
#: Coordinate differences whose squares underflow (to 0.0 below about
#: 1.5e-162) or overflow.
_EXTREME_STEPS = (1.1e-212, 1e-200, 1e-170, 2e-162, 1e-160, 1e-154, 1e160, 1e200, 1e300)


def _tolerances(scene, candidates):
    """Tolerances next to a candidate's distance, as well as fixed ones."""
    near = [scene_distance(scene, c) for c in candidates] or [1.0]
    beside = st.sampled_from(near).flatmap(
        lambda d: st.sampled_from((d, math.nextafter(d, math.inf), math.nextafter(d, -math.inf)))
    )
    return st.sampled_from(_FIXED_TOLS) | beside


def _nudged(values, tol):
    """Finite tuples that differ from ``values`` in one coordinate by half,
    one or two times ``tol`` or a float one ulp either side of these, or
    by an ``_EXTREME_STEPS`` difference."""
    steps = [math.nextafter(k * tol, to) for k in (0.5, 1.0, 2.0) for to in (-math.inf, k * tol, math.inf)]
    out = []
    for i, x in enumerate(values):
        for d in (*steps, *_EXTREME_STEPS):
            out += [values[:i] + (y,) + values[i + 1 :] for y in (x + d, x - d) if math.isfinite(y)]
    return st.sampled_from(out)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_value_admission_decides_as_the_in_order_test(data):
    # The reference builds each candidate's Scene in order and tests its
    # distance; a candidate that is no valid Scene (NaN, an infinity, the
    # wrong length) never matches.
    scene = Scene(PAIR, data.draw(_pairs | st.just((0.0, 0.0))))
    near = data.draw(st.sampled_from(_FIXED_TOLS))
    candidates = tuple(
        data.draw(st.lists(st.just(scene.values) | _raw_pairs | _nudged(scene.values, near), max_size=5))
    )
    valid = []
    for c in candidates:
        try:
            valid.append(Scene(PAIR, c))
        except SchemaError:
            pass
    tol = data.draw(st.just(near) | _tolerances(scene, valid))
    want = _matches_in_order(scene, valid, tol)
    if tol < 0.0:
        # An instance refuses a negative tolerance; the matcher, which
        # ``SceneConst`` also calls, takes it as 0.0.
        with pytest.raises(RangeError):
            ScenarioLogicInstance("pairs", PAIR, 1.0, 1, (scene,), lambda p: candidates, scene_tol=tol)
        assert formulas_module._values_match(scene.values, candidates, tol) == want
        return
    inst = ScenarioLogicInstance(
        "pairs", PAIR, 1.0, 1, (scene,), lambda p: candidates, scene_tol=tol
    )
    assert inst.allows_step((scene,), scene) == want


@pytest.mark.parametrize(
    "tol, measured", ((0.5, 3), (1e-6, 3), (1e-154, 3), (1e-160, 3), (1e-300, 3))
)
def test_value_admission_measures_what_no_coordinate_rules_out(monkeypatch, tol, measured):
    # A candidate is measured exactly when every coordinate is within tol,
    # whatever the size of tol. No candidate here is within tol.
    calls = []
    distance = formulas_module._values_distance
    monkeypatch.setattr(formulas_module, "_values_distance", lambda a, b: calls.append(b) or distance(a, b))
    within = ((0.8 * tol, 0.8 * tol), (-0.9 * tol, 0.5 * tol), (tol, 0.5 * tol))
    beyond = ((1.5 * tol, 0.0), (0.0, -2.0 * tol), (2.0 * tol, 2.0 * tol), (3.0 * tol, 0.0))
    assert not formulas_module._values_match((0.0, 0.0), within + beyond, tol)
    assert calls == list(within)
    assert len(calls) == measured


@pytest.mark.parametrize("tol", (1e-300, 5e-324))
def test_a_tiny_tolerance_tells_tiny_differences_apart(tol):
    # The square of the difference underflows to 0.0; the distance does not.
    zero, tiny = Scene(LINE, (0.0,)), Scene(LINE, (1e-200,))
    for stays in ((0.0,), (1e-200,)):
        inst = ScenarioLogicInstance("tiny", LINE, 1.0, 1, (zero,), lambda p: (stays,), scene_tol=tol)
        moved = tiny if stays == (0.0,) else zero
        assert not inst.allows_step((zero,), moved)
        assert inst.allows_step((zero,), Scene(LINE, stays))
    assert progress(SceneConst(tiny), zero, 0, 0, tol) is FalseFormula()
    assert progress(SceneConst(tiny), tiny, 0, 0, tol) is TrueFormula()


@pytest.mark.parametrize("tol", (0.0, 0.5, math.inf))
def test_a_candidate_that_is_no_valid_scene_never_matches(tol):
    scene = Scene(PAIR, (1.0, 2.0))
    odd = ((math.nan, 2.0), (1.0, math.inf), (-math.inf, 2.0), (math.inf, -math.inf), (1.0,))
    inst = ScenarioLogicInstance("pairs", PAIR, 1.0, 1, (scene,), lambda p: odd, scene_tol=tol)
    assert not inst.allows_step((scene,), scene)
    # Finite candidates far off: (1e308, -1e308) at a finite distance,
    # about 1.4e308, and (1.5e308, -1.5e308) past the largest float, at
    # distance inf. Only tol = inf admits either.
    for far in (Scene(PAIR, (1e308, -1e308)), Scene(PAIR, (1.5e308, -1.5e308))):
        inst = dataclasses.replace(inst, successors=lambda p: (*odd, far.values))
        assert inst.allows_step((scene,), scene) is (tol == math.inf)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_scene_const_decides_and_raises_as_the_in_order_test(data):
    scene = Scene(PAIR, data.draw(_pairs | st.just((0.0, 0.0))))
    schema = data.draw(st.sampled_from((PAIR, PAIR, PAIR_TWIN, PAIR_OTHER)))
    near = data.draw(st.sampled_from(_FIXED_TOLS))
    target = Scene(schema, data.draw(st.just(scene.values) | _pairs | _nudged(scene.values, near)))
    tol = data.draw(st.just(near) | _tolerances(scene, [target] if schema is PAIR else []))
    want = _outcome(_matches_in_order, scene, (target,), tol)
    const = SceneConst(target)
    assert _outcome(lambda: progress(const, scene, 0, 0, tol) is TrueFormula()) == want
    assert _outcome(lambda: evaluate3(const, (scene,), 0, 0, tol) is Verdict3.TRUE) == want


def test_scene_const_raises_where_the_in_order_test_raises():
    scene = Scene(PAIR, (1.0, 2.0))
    exact, other = Scene(PAIR_TWIN, (1.0, 2.0)), Scene(PAIR_OTHER, (1.0, 2.0))
    near, far = Scene(PAIR, (1.0, 2.5)), Scene(PAIR, (1e308, -1e308))

    def holds(target, tol):
        return progress(SceneConst(target), scene, 0, 0, tol) is TrueFormula()

    with pytest.raises(SchemaError):
        holds(other, 1.0)
    assert holds(exact, 1.0)
    assert holds(near, 1.0)
    assert not holds(near, 0.1)
    # With tol <= 0 the values decide alone.
    assert holds(other, 0.0)
    assert not holds(near, 0.0)
    assert not holds(far, 1e300)


def test_scene_const_compares_each_schema_object_once(monkeypatch):
    twin2 = schema_of(("a", "m"), ("b", "m"))
    consts = [SceneConst(Scene(s, (float(i), 0.0))) for i in range(1, 7) for s in (PAIR_TWIN, twin2)]
    f = functools.reduce(Or, consts)
    calls = []
    eq = SceneSchema.__eq__
    monkeypatch.setattr(SceneSchema, "__eq__", lambda a, b: calls.append(b) or eq(a, b))
    assert progress(f, Scene(PAIR, (0.0, 0.0)), 0, 0, 0.5) is FalseFormula()
    assert calls == []


XYZ = schema_of(("x", "m"), ("y", "m"), ("z", "m"))
XYZ_TWIN = schema_of(("x", "m"), ("y", "m"), ("z", "m"))
ZYX = schema_of(("z", "m"), ("y", "m"), ("x", "m"))

_names = st.sampled_from("xyz")
_lows = st.integers(-3, 3).map(float)
_widths = st.sampled_from((0.0, 1.0, 2.0, math.inf))
_predicates = st.builds(
    lambda bounds, diffs: ScenePredicate(
        tuple((n, lo, lo + w) for n, lo, w in bounds),
        tuple((a, b, lo, lo + w) for a, b, lo, w in diffs),
    ),
    st.lists(st.tuples(_names, _lows, _widths), max_size=3),
    st.lists(st.tuples(_names, _names, _lows, _widths), max_size=2),
)


def _holds_by_name(p, scene):
    """The reference: every dimension looked up by name."""
    return all(lo <= scene[n] <= hi for n, lo, hi in p.bounds) and all(
        lo <= scene[a] - scene[b] <= hi for a, b, lo, hi in p.diffs
    )


@settings(max_examples=300, deadline=None)
@given(_predicates, st.lists(st.tuples(_coords, _coords, _coords), min_size=1, max_size=6))
def test_holds_reads_by_index_what_names_read(p, rows):
    fresh = ScenePredicate(p.bounds, p.diffs)
    for i, (x, y, z) in enumerate(rows):
        # One predicate on two schemas that order the same names
        # differently, and on XYZ built a second time.
        scenes = (Scene(XYZ, (x, y, z)), Scene(ZYX, (z, y, x)), Scene(XYZ_TWIN, (x, y, z)))
        for scene in scenes[i % 3:] + scenes[: i % 3]:
            assert p.holds(scene) == _holds_by_name(p, scene)
    # The resolved indices are not part of the predicate's value.
    assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)
    assert pickle.dumps(p) == pickle.dumps(fresh)
    assert pickle.loads(pickle.dumps(p)) == p


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ScenePredicate((("x", 1.0, 0.0),)), "bound on 'x': lo 1.0 > hi 0.0"),
        (lambda: ScenePredicate((), (("x", "y", 1.0, 0.0),)), "bound on x-y: lo 1.0 > hi 0.0"),
        (lambda: pred(x=(math.nan, 0.0)), "bound on 'x': lo nan > hi 0.0"),
        (lambda: pred(x=(0.0, math.nan)), "bound on 'x': lo 0.0 > hi nan"),
        (lambda: ScenePredicate((), (("x", "y", math.nan, math.nan),)), "bound on x-y: lo nan > hi nan"),
    ],
    ids=["reversed", "reversed-diff", "nan-lo", "nan-hi", "nan-diff"],
)
def test_predicate_refuses_an_empty_interval(build, message):
    with pytest.raises(RangeError) as err:
        build()
    assert str(err.value) == message


def test_holds_refuses_a_schema_that_lacks_a_name():
    # The unknown name raises even where an earlier bound already fails.
    p = ScenePredicate((("x", 5.0, 6.0), ("w", 0.0, 1.0)))
    with pytest.raises(SchemaError):
        p.holds(Scene(XYZ, (0.0, 0.0, 0.0)))
