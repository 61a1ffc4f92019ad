"""Scenes and Trajectories that the walks and ``evaluate`` build without
running their constructors' checks. Each route is held to the checked
constructors: values bit for bit, the schema by identity, and the grid.
A fault is still refused where data enters, and ``evaluate`` raises what
the per-row reference below raises, with the same message."""

import dataclasses
import gc
import math
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scenkit
from scenkit import dsl, logic, rural
from scenkit.core import Scene, TimeGrid, Trajectory, schema_of
from scenkit.dynamics import (
    AttributeLevelScenario,
    DeterministicModel,
    TruncatedResult,
    _walk,
    clock_model,
    combine,
    constant_acceleration,
    constant_velocity,
    drift,
    evaluate,
    family_of,
    stop_at,
    waypoint_follower,
)
from scenkit.errors import (
    RejectionBudgetError,
    SchemaError,
    TruncationError,
    UnsatisfiableError,
)
from scenkit.fixtures import slope_drive_scenario, straight_drive_scenario
from scenkit.logic import (
    AbstractScenario,
    _count_dag,
    _paths,
    _residual,
    _roots,
    binary_scenarios,
    check_axioms,
    delta_step_instance,
    enumerate_scenarios,
    expand,
    sample_abstract,
)
from scenkit.logical import DiscreteAxis, _bind
from scenkit.rural import RuralConfig, enumerate_choices, synthesize

from conftest import every_node_formulas, small_instances, with_dead_ends


def assert_as_checked(trajectories, schema, step):
    """Each trajectory is what the checked constructors build of its parts:
    a tuple of Scenes of ``schema`` itself, holding floats that the Scene
    check returns bit for bit, on the grid of ``step`` and its length."""
    for t in trajectories:
        rebuilt = Trajectory(t.schema, t.grid, tuple(Scene(s.schema, s.values) for s in t.samples))
        assert type(t) is Trajectory and type(t.samples) is tuple
        assert t.schema is schema and rebuilt.schema is schema
        assert t.grid == rebuilt.grid == TimeGrid(step, len(t.samples))
        for s, r in zip(t.samples, rebuilt.samples, strict=True):
            assert type(s) is Scene and s.schema is schema and type(s.values) is tuple
            assert all(type(v) is float for v in s.values)
            assert [v.hex() for v in s.values] == [v.hex() for v in r.values]
        assert t == rebuilt and hash(t) == hash(rebuilt)


# --- the walks ------------------------------------------------------------------


@st.composite
def walked_scenarios(draw):
    inst, _ = draw(small_instances())
    if draw(st.booleans()):
        inst = with_dead_ends(inst)
    return AbstractScenario(draw(every_node_formulas(inst.schema)), (), inst)


@settings(max_examples=80, deadline=None)
@given(walked_scenarios(), st.integers(0, 2**32 - 1))
def test_every_walk_builds_what_the_checked_constructors_build(scenario, seed):
    inst = scenario.instance
    found = list(enumerate_scenarios(scenario))
    for start in inst.initial_scenes:
        c = Trajectory(inst.schema, inst.grid(1), (start,))
        for steps in range(inst.horizon + 1):
            found += expand(scenario, c, steps)
    for strategy in ("uniform-leaf", "uniform-branch", "rejection"):
        try:
            found += sample_abstract(scenario, 3, strategy, seed, max_attempts=20)
        except (UnsatisfiableError, RejectionBudgetError):
            pass
    assert_as_checked(found, inst.schema, inst.step)


def test_an_override_that_returns_a_foreign_scene_is_refused():
    scenario = binary_scenarios(3)
    other = schema_of(("other", "dimensionless"))

    def override(scenario, path):
        return [path + (Scene(other, (0.0,)),)]

    inst = dataclasses.replace(scenario.instance, one_step_override=override)
    c = Trajectory(inst.schema, inst.grid(1), (inst.initial_scenes[0],))
    with pytest.raises(SchemaError, match="sample schema differs from trajectory schema"):
        expand(AbstractScenario(scenario.constraints, (), inst), c, 1)


def test_check_axioms_refuses_a_start_of_another_schema():
    schema, other = schema_of(("d0", "dimensionless")), schema_of(("other", "dimensionless"))
    inst = delta_step_instance(schema, [(1.0,)], 1.0, 3, [Scene(other, (0.0,))])
    with pytest.raises(SchemaError, match="sample schema differs from trajectory schema"):
        check_axioms(inst, [], probes=3)


# --- evaluate ---------------------------------------------------------------------


def reference_evaluate(scenario, allow_truncation=False):
    """``evaluate`` with each row built by the checked Scene constructor."""
    family, grid = scenario.family, scenario.grid
    columns, fault = _walk(scenario, [i * grid.step for i in range(grid.count)])
    schema, rows = family.schema, zip(*columns)
    if fault is None:
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


def parts(result):
    """What is compared of a result: a trajectory's parts, as exact bits,
    a truncated result's, or the value itself."""
    if isinstance(result, TruncatedResult):
        return ("truncated", parts(result.trajectory), result.contradiction_time, result.t_sup)
    if isinstance(result, Trajectory):
        assert_as_checked([result], result.schema, result.grid.step)
        return ("trajectory", result.schema, result.grid,
                [[v.hex() for v in s.values] for s in result.samples])
    return result


def outcome(call):
    """The result's parts, or the exception's type, message and attributes."""
    try:
        result = call()
    except Exception as exc:  # noqa: BLE001 - any error must match
        return ("raised", type(exc), str(exc), {k: parts(v) for k, v in vars(exc).items()})
    return parts(result)


def assert_evaluates_as_reference(scenario, allow_truncation=False):
    want = outcome(lambda: reference_evaluate(scenario, allow_truncation))
    assert outcome(lambda: evaluate(scenario, allow_truncation)) == want
    return want


ASSETS = Path(scenkit.__file__).parent / "assets"
PLANE = schema_of(("x", "m"), ("y", "m"), ("vx", "m/s"), ("vy", "m/s"), ("clock", "s"))


def corner(logical):
    """A logical scenario bound at the first corner of its space."""
    return _bind(logical, tuple(a.values[0] if isinstance(a, DiscreteAxis) else a.lo
                                for a in logical.space.axes))


def library_scenarios():
    """The model library's factories, alone and combined, the fixtures,
    and the shipped specs' logical scenarios at their first corner."""
    start = Scene(PLANE, (0.0, 1.0, 2.0, -1.0, 0.0))
    grid = TimeGrid(0.25, 41)
    families = [
        family_of(drift(PLANE, {"x": 1.5, "clock": 1.0})),
        family_of(constant_velocity(PLANE, 3.0, -0.5)),
        family_of(constant_acceleration(PLANE, 0.3, -2.0)),
        family_of(stop_at(PLANE, 4.0)),
        family_of(waypoint_follower(PLANE, [(0.0, 0.0, 1.0), (3.0, 9.0, 2.0), (7.5, 4.0, 4.0)])),
        combine([constant_velocity(PLANE, 1.0, 1.0), clock_model(PLANE)], 0.1),
        combine([drift(PLANE, {"x": 1.0}, id="a"), drift(PLANE, {"x": 1.0, "y": 2.0}, id="b")],
                0.1, shared=("x",)),
    ]
    out = [AttributeLevelScenario(start, f, grid) for f in families]
    out += [straight_drive_scenario(), corner(slope_drive_scenario())]
    for path in sorted(ASSETS.glob("*.scn")):
        out += [corner(logical) for logical in dsl.load(path.read_text()).logicals.values()]
    return out


@pytest.mark.parametrize("index", range(len(library_scenarios())))
def test_evaluate_builds_what_the_per_row_reference_builds(index):
    assert assert_evaluates_as_reference(library_scenarios()[index])[0] == "trajectory"


def test_rural_synthesis_builds_what_the_per_row_reference_builds(monkeypatch):
    cfg = RuralConfig(n=2, m=1)
    choices = list(enumerate_choices(cfg.n, cfg.m))
    fast = [synthesize(choice, cfg) for choice in choices]
    monkeypatch.setattr(rural, "evaluate", reference_evaluate)
    for choice, got in zip(choices, fast, strict=True):
        want = synthesize(choice, cfg)
        assert_as_checked([got], want.schema, want.grid.step)
        assert got == want and got.grid == want.grid


class Unreadable:
    """A value whose conversion to float fails."""

    def __float__(self):
        raise ZeroDivisionError("unreadable value")


FAULTS = {
    "nan": math.nan,
    "inf": -math.inf,
    "half": 0.5,  # a fault in an enum dimension only
    "unreadable": Unreadable(),
    "text": "1.5",  # read through float, as the Scene check reads it
}

MIXED = schema_of(("pos", "m"), ("lane", "enum-code"), ("v", "m/s"))


def injected(faults, count=6):
    """A lone member over MIXED whose columns hold ``faults`` at their
    (row, column) cells."""
    def evolve(ts, v):
        columns = [[v[0] + t for t in ts], [1.0 for _ in ts], [2.0 * t for t in ts]]
        for (row, col), value in faults.items():
            columns[col][row] = value
        return columns

    model = DeterministicModel("injected", MIXED, math.inf, evolve)
    return AttributeLevelScenario(Scene(MIXED, (0.0, 1.0, 0.0)), family_of(model), TimeGrid(0.5, count))


cells = st.tuples(st.integers(0, 5), st.integers(0, 2))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(cells, st.sampled_from(sorted(FAULTS)), max_size=3))
def test_a_column_fault_raises_the_per_row_fault(faults):
    assert_evaluates_as_reference(injected({cell: FAULTS[k] for cell, k in faults.items()}))


@pytest.mark.parametrize(
    "faults, message",
    [
        # Row-major order: the earlier row wins over the earlier column.
        ({(3, 0): math.nan, (2, 2): math.inf}, "non-finite value inf in dimension 'v'"),
        ({(2, 2): math.nan, (2, 1): 0.5}, "enum dimension 'lane' holds non-integer 0.5"),
        # A conversion that raises in a later row does not hide a NaN in an earlier one.
        ({(1, 2): math.nan, (4, 0): Unreadable()}, "non-finite value nan in dimension 'v'"),
        ({(1, 2): Unreadable(), (4, 0): math.nan}, "unreadable value"),
    ],
)
def test_the_first_fault_in_row_major_order_is_named(faults, message):
    want = assert_evaluates_as_reference(injected(faults))
    assert want[0] == "raised" and want[2] == message


# --- construction counts ------------------------------------------------------------


def counting(monkeypatch, cls):
    """Count the runs of ``cls.__post_init__`` from now on."""
    calls = []
    check = cls.__post_init__

    def post_init(self):
        calls.append(1)
        check(self)

    monkeypatch.setattr(cls, "__post_init__", post_init)
    return calls


def test_enumeration_and_evaluate_run_no_constructor_check(monkeypatch):
    scenario = binary_scenarios(12)
    slope = _bind(slope_drive_scenario(), (2.0,))
    trajectories = counting(monkeypatch, Trajectory)
    scenes = counting(monkeypatch, Scene)
    assert len(enumerate_scenarios(scenario)) == 4096
    assert trajectories == []
    # The DAG's states were built as checked Scenes, one per state.
    assert len(scenes) == 46
    scenes.clear()
    assert len(evaluate(slope).samples) == 101
    assert scenes == []
    # The checked constructors are still counted.
    Trajectory(slope.family.schema, TimeGrid(1.0, 1), (Scene(slope.family.schema, (0.0,)),))
    assert (len(trajectories), len(scenes)) == (1, 1)


def test_every_walk_builds_one_grid_per_call(monkeypatch):
    scenario = binary_scenarios(8)
    inst = scenario.instance
    c = Trajectory(inst.schema, inst.grid(2), inst.initial_scenes)
    grids = counting(monkeypatch, TimeGrid)
    for steps in (1, 3, 6):
        assert len(expand(scenario, c, steps)) == 2**steps
        assert len(grids) == 1
        grids.clear()
    assert len(enumerate_scenarios(scenario)) == 256
    assert len(grids) == 1
    for strategy in ("uniform-leaf", "uniform-branch", "rejection"):
        grids.clear()
        drawn = sample_abstract(scenario, 20, strategy, 7)
        assert len(drawn) == 20 and len(grids) == 1
        assert len({id(t.grid) for t in drawn}) == 1


# --- the leaf read-off --------------------------------------------------------------


def checked_leaves(inst, dag, base):
    """The reference for ``logic._leaves``: each path of the DAG built
    by the checked constructor, on a grid of its own."""
    return tuple(Trajectory(inst.schema, inst.grid(len(p)), p) for p in _paths(dag, base))


def assert_same_leaves(got, want, inst):
    """The same trajectories in the same order, on equal grids, with the
    same value bits; and what the checked constructors build."""
    assert type(got) is tuple and len(got) == len(want)
    for t, r in zip(got, want):
        assert t.grid == r.grid
        assert [[v.hex() for v in s.values] for s in t.samples] == [
            [v.hex() for v in s.values] for s in r.samples
        ]
    assert len({id(t.grid) for t in got}) <= 1
    assert_as_checked(got, inst.schema, inst.step)


@settings(max_examples=150, deadline=None)
@given(walked_scenarios(), st.data())
def test_enumeration_and_expansion_wrap_the_leaves_as_the_checked_constructor(scenario, data):
    inst, conj = scenario.instance, scenario.conjoined()
    dag = _count_dag(inst, _roots(inst, conj), inst.horizon)
    assert_same_leaves(enumerate_scenarios(scenario), checked_leaves(inst, dag, ()), inst)
    prefix = (data.draw(st.sampled_from(inst.initial_scenes)),)
    for _ in range(data.draw(st.integers(0, inst.horizon))):
        nxt = inst.successors(prefix)
        if not nxt:
            break
        prefix += (Scene(inst.schema, data.draw(st.sampled_from(nxt))),)
    c = Trajectory(inst.schema, inst.grid(len(prefix)), prefix)
    for steps in range(1, inst.horizon - len(prefix) + 2):
        dag = _count_dag(inst, [(prefix, _residual(inst, conj, prefix))], steps)
        assert_same_leaves(expand(scenario, c, steps), checked_leaves(inst, dag, prefix[:-1]), inst)


def test_expansion_from_a_longer_prefix_wraps_the_leaves_as_the_checked_constructor():
    scenario = binary_scenarios(6)
    inst = scenario.instance
    prefix = inst.initial_scenes + inst.initial_scenes[:1]
    c = Trajectory(inst.schema, inst.grid(3), prefix)
    dag = _count_dag(inst, [(prefix, _residual(inst, scenario.conjoined(), prefix))], 3)
    got = expand(scenario, c, 3)
    assert len(got) == 8 and all(t.samples[:3] == prefix for t in got)
    assert_same_leaves(got, checked_leaves(inst, dag, prefix[:-1]), inst)


def _walks(scenario):
    """The two walks that read leaves off a DAG, over ``scenario``."""
    inst = scenario.instance
    c = Trajectory(inst.schema, inst.grid(1), inst.initial_scenes[:1])
    return {
        "enumerate": lambda: enumerate_scenarios(scenario),
        "expand": lambda: expand(scenario, c, inst.horizon),
    }


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("walk", ["enumerate", "expand"])
def test_the_collector_is_restored_when_wrapping_raises(monkeypatch, collecting, walk):
    make, calls = logic._trusted_trajectory, []

    def failing(*args):
        calls.append(gc.isenabled())
        if len(calls) == 3:
            raise RuntimeError("wrapping failed")
        return make(*args)

    monkeypatch.setattr(logic, "_trusted_trajectory", failing)
    read = _walks(binary_scenarios(5))[walk]
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        with pytest.raises(RuntimeError, match="wrapping failed"):
            read()
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert calls == [False] * 3


@pytest.mark.parametrize("walk", ["enumerate", "expand"])
def test_no_collection_runs_while_the_leaves_are_wrapped(monkeypatch, walk):
    make, wrapped, collections = logic._trusted_trajectory, [], []

    def marking(*args):
        wrapped.append(len(collections))
        return make(*args)

    def hook(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    monkeypatch.setattr(logic, "_trusted_trajectory", marking)
    read = _walks(binary_scenarios(12))[walk]
    gc.callbacks.append(hook)
    try:
        leaves = read()
    finally:
        gc.callbacks.remove(hook)
    assert len(leaves) == len(wrapped) == (4096 if walk == "enumerate" else 2048)
    # No collection started between the first leaf wrapped and the last.
    assert wrapped[0] == wrapped[-1]
