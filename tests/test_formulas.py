"""Formula progression against the three-valued evaluator, and deep formulas."""

from hypothesis import given, settings
from hypothesis import strategies as st

from scenkit.core import Scene, TimeGrid, Trajectory, prefix, schema_of
from scenkit.formulas import (
    Always,
    And,
    Atom,
    Eventually,
    FalseFormula,
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
    delta_step_instance,
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
formulas = st.recursive(
    st.one_of(st.just(TrueFormula()), st.just(FalseFormula()), _atoms, _consts),
    lambda sub: st.one_of(
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Next, sub),
        st.builds(Eventually, sub, _windows),
        st.builds(Always, sub, _windows),
    ),
    max_leaves=10,
)


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


def test_trace_formula_progresses_through_a_tree_walk():
    # Each residual of a trace formula is the rest of its chain, handed
    # on without a re-walk; two children per node, one of them pruned.
    c = _word([i // 2 for i in range(DEPTH)])
    scenario = AbstractScenario(trace_formula(c), (), _walk_instance(DEPTH - 1))
    (leaf,) = enumerate_scenarios(scenario)
    assert leaf.samples == c.samples
    assert expand(scenario, prefix(c, c.grid.t(DEPTH - 4)), 3) == (c,)
    assert monitor_prefix(prefix(c, c.grid.t(DEPTH - 3)), scenario) is Verdict3.UNKNOWN
