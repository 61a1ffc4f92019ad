import dataclasses
import gc
import random

import pytest
from hypothesis import strategies as st

from scenkit.core import Scene, SceneSchema, TimeGrid, Trajectory, schema_of
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
)
from scenkit.logic import AbstractScenario, delta_step_instance, quantized_motion_instance


@pytest.fixture(autouse=True)
def collector_left_as_found():
    """Fail a test that leaves the cyclic collector enabled when it found
    it disabled, or the other way round: the walks pause it, and a test
    that leaves it changed changes every test after it."""
    before = gc.isenabled()
    yield
    after = gc.isenabled()
    if after != before:
        (gc.enable if before else gc.disable)()
        pytest.fail(f"the test left gc.isenabled() {after}; it found {before}")


@pytest.fixture
def plane():
    return schema_of(("x", "m"), ("y", "m"), ("vx", "m/s"), ("vy", "m/s"))


@pytest.fixture
def line():
    return schema_of(("pos", "m"))


def make_trajectory(schema: SceneSchema, rows, step=0.1) -> Trajectory:
    samples = tuple(Scene(schema, tuple(r)) for r in rows)
    return Trajectory(schema, TimeGrid(step, len(samples)), samples)


def random_formula(rng: random.Random, schema: SceneSchema, depth: int = 2):
    """Small random formula over integer box atoms."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.15:
            return TrueFormula()
        name = schema.names[rng.randrange(schema.k)]
        lo = rng.randint(-4, 2)
        return Atom(ScenePredicate(((name, float(lo), float(lo + rng.randint(1, 5))),)))
    pick = rng.random()
    if pick < 0.3:
        return And(random_formula(rng, schema, depth - 1), random_formula(rng, schema, depth - 1))
    if pick < 0.55:
        return Or(random_formula(rng, schema, depth - 1), random_formula(rng, schema, depth - 1))
    if pick < 0.7:
        return Next(random_formula(rng, schema, depth - 1))
    if pick < 0.85:
        return Eventually(random_formula(rng, schema, depth - 1), rng.choice([None, 2]))
    return Always(random_formula(rng, schema, depth - 1), rng.choice([None, 2]))


def random_step_scenario(seed: int) -> AbstractScenario:
    """Random quantized-delta instance plus a random constraint formula."""
    rng = random.Random(seed)
    k = rng.choice([1, 2])
    schema = schema_of(*[(f"d{i}", "dimensionless") for i in range(k)])
    deltas = list(
        dict.fromkeys(
            tuple(float(rng.randint(-2, 2)) for _ in range(k))
            for _ in range(rng.randint(2, 3))
        )
    )
    horizon = rng.randint(2, 5)
    initials = [
        Scene(schema, tuple(float(rng.randint(-2, 2)) for _ in range(k)))
        for _ in range(rng.randint(1, 2))
    ]
    inst = delta_step_instance(schema, deltas, 1.0, horizon, initials, id=f"step-{seed}")
    return AbstractScenario(random_formula(rng, schema), (), inst)


PLANE = schema_of(("x", "m"), ("y", "m"), ("vx", "m/s"), ("vy", "m/s"))


@st.composite
def small_instances(draw, max_horizon=3):
    """A small quantized-motion or delta-step instance, and the strategy
    of the integer vectors its starts and steps are drawn from."""
    horizon = draw(st.integers(0, max_horizon))
    if draw(st.booleans()):
        schema = PLANE
        vec = st.tuples(*[st.integers(-1, 1).map(float)] * 4)
        accels = draw(st.lists(st.integers(-1, 1).map(float), min_size=1, max_size=2, unique=True))
        starts = [Scene(schema, v) for v in draw(st.lists(vec, min_size=1, max_size=2))]
        inst = quantized_motion_instance(schema, accels, 1.0, horizon, starts)
    else:
        k = draw(st.integers(1, 2))
        schema = schema_of(*[(f"d{i}", "dimensionless") for i in range(k)])
        vec = st.tuples(*[st.integers(-2, 2).map(float)] * k)
        deltas = draw(st.lists(vec, min_size=1, max_size=3))
        starts = [Scene(schema, v) for v in draw(st.lists(vec, min_size=1, max_size=2))]
        inst = delta_step_instance(schema, deltas, 1.0, horizon, starts)
    return inst, vec


def with_dead_ends(inst):
    """The instance with its steps kept inside the box [-2, 2], so some
    prefixes have no successor at all: dead ends."""
    step = inst.successors
    return dataclasses.replace(
        inst,
        successors=lambda p: tuple(v for v in step(p) if max(map(abs, v)) <= 2.0),
    )


def every_node_formulas(schema: SceneSchema):
    """Formulas of every node type over a schema: TRUE, FALSE, box
    atoms, scene constants of small integer vectors, And, Or, Next, and
    Eventually and Always with windows of 1-2 or none."""
    atoms = st.builds(
        lambda name, lo, width: Atom(ScenePredicate(((name, float(lo), float(lo + width)),))),
        st.sampled_from(schema.names),
        st.integers(-3, 2),
        st.integers(0, 3),
    )
    consts = st.tuples(*[st.integers(-1, 1).map(float)] * schema.k).map(
        lambda v: SceneConst(Scene(schema, v))
    )
    within = st.sampled_from([None, 1, 2])
    return st.recursive(
        st.one_of(st.just(TrueFormula()), st.just(FalseFormula()), atoms, consts),
        lambda sub: st.one_of(
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
            st.builds(Next, sub),
            st.builds(Eventually, sub, within),
            st.builds(Always, sub, within),
        ),
        max_leaves=6,
    )


def shared_formulas(schema: SceneSchema):
    """Formulas in which one node occurs under several paths: nodes of
    ``every_node_formulas`` joined as o(a, i(b, a)), o(T a, next T a) and
    o(T a, T T a), for o and i And or Or and T a windowed or unbounded
    Eventually or Always."""
    ops = st.sampled_from([And, Or])
    temporal = st.builds(
        lambda t, w: lambda a: t(a, w),
        st.sampled_from([Eventually, Always]),
        st.sampled_from([None, 1, 2]),
    )
    return st.recursive(
        every_node_formulas(schema),
        lambda sub: st.one_of(
            st.builds(lambda a, b, o, i: o(a, i(b, a)), sub, sub, ops, ops),
            st.builds(lambda a, t, o: o(t(a), Next(t(a))), sub, temporal, ops),
            st.builds(lambda a, t, o: o(t(a), t(t(a))), sub, temporal, ops),
        ),
        max_leaves=3,
    )


@st.composite
def worlds_and_words(draw, formulas):
    """A small quantized-motion or delta-step instance, a formula drawn
    from ``formulas(dimension names)``, and a full-length word that may
    start off the start set or leave the successors at any step."""
    inst, vec = draw(small_instances())
    schema, horizon = inst.schema, inst.horizon
    anywhere = vec.map(lambda v: Scene(schema, v))
    path = (draw(st.one_of(st.sampled_from(inst.initial_scenes), anywhere)),)
    for _ in range(horizon):
        on_track = st.sampled_from(inst.successors(path)).map(lambda v: Scene(schema, v))
        path += (draw(st.one_of(on_track, on_track, anywhere)),)
    A = AbstractScenario(draw(formulas(schema.names)), (), inst)
    return A, Trajectory(schema, inst.grid(len(path)), path)
