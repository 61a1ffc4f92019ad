"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances and runtime budgets are pinned here, not configured.
"""

import functools
import math
import random
import time

from scenkit.core import Scene, TimeGrid, Trajectory, schema_of, trajectory_from_values
from scenkit.dynamics import constant_velocity, evaluate, family_of
from scenkit.formulas import TrueFormula, Verdict3
from scenkit.fixtures import (
    planar_instance,
    reach_or_stop_scenario,
    slope_drive_scenario,
    stop_at_origin_trajectory,
    straight_drive_scenario,
    straight_drive_trajectory,
    wrong_start_trajectory,
)
from scenkit.logic import (
    AbstractScenario,
    binary_branching,
    binary_scenarios,
    check_axioms,
    delta_step_instance,
    encode_logical,
    enumerate_scenarios,
    prefix_breaking_mutant,
    sample_abstract,
)
from scenkit.logical import (
    ContinuousAxis,
    DiscreteAxis,
    Found,
    LogicalScenario,
    NotInImage,
    ParameterSpace,
    draw_parameters,
    invert,
    realize,
)
from scenkit.monitoring import Verdict, monitor_prefix, monitor_word
from scenkit.rural import RuralConfig, count_lower_bound, enumerate_choices, rural_formula, suggested_grid, synthesize

from conftest import random_step_scenario


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {label}: FAIL")
                raise
            print(f"[acceptance] {label}: PASS")

        return wrapper

    return deco


@criterion("01 closed-form drive reproduction")
def test_criterion_01_drive_reproduction():
    t0 = time.perf_counter()
    traj = evaluate(straight_drive_scenario())
    elapsed = time.perf_counter() - t0
    assert isinstance(traj, Trajectory)
    for i, s in enumerate(traj.samples):
        t = i * 0.1
        expected = (-50.0 + 10.0 * t, 100.0 - 5.0 * t, 10.0, -5.0)
        for got, want in zip(s.values, expected):
            assert abs(got - want) <= 1e-12
    assert traj.samples[-1].values == (150.0, 0.0, 10.0, -5.0)
    assert elapsed < 0.1


@criterion("02 reach-or-stop membership")
def test_criterion_02_membership():
    t0 = time.perf_counter()
    A = reach_or_stop_scenario()
    assert monitor_word(straight_drive_trajectory(), A) is Verdict.ACCEPTED
    assert monitor_word(stop_at_origin_trajectory(), A) is Verdict.ACCEPTED
    assert monitor_word(wrong_start_trajectory(), A) is Verdict.REJECTED
    assert time.perf_counter() - t0 < 1.0


@criterion("03 binary branching counts to n=16")
def test_criterion_03_binary_counts():
    for n in range(1, 16):
        assert len(enumerate_scenarios(binary_scenarios(n))) == 2**n
    t0 = time.perf_counter()
    leaves = enumerate_scenarios(binary_scenarios(16))
    elapsed = time.perf_counter() - t0
    assert len(leaves) == 65536
    assert elapsed < 5.0


@criterion("04 logical-encoding set equality")
def test_criterion_04_encoding_equality():
    t0 = time.perf_counter()
    schema = schema_of(("x", "m"), ("y", "m"), ("vx", "m/s"), ("vy", "m/s"))
    for size in (1, 5, 20):
        values = tuple(5.0 + k for k in range(size))
        space = ParameterSpace((DiscreteAxis("v", values),))

        def binder(x):
            start = Scene(schema, (0.0, 0.0, x[0], 0.0))
            return start, family_of(constant_velocity(schema, vx=x[0], vy=0.0))

        L = LogicalScenario(space, binder, TimeGrid(0.1, 11), name=f"speeds-{size}")
        instance = encode_logical(L)
        leaves = enumerate_scenarios(AbstractScenario(TrueFormula(), (), instance))
        realized = sorted(realize(L, (v,)).sort_key() for v in values)
        assert sorted(t.sort_key() for t in leaves) == realized
        assert len(leaves) == size
    assert time.perf_counter() - t0 < 2.0


@criterion("05 overtaking choice counts")
def test_criterion_05_rural_counts():
    t0 = time.perf_counter()
    assert count_lower_bound(3, 2) == 360
    assert len(enumerate_choices(3, 2)) == 360
    for n in range(0, 5):
        for m in range(0, 4):
            assert len(enumerate_choices(n, m)) == count_lower_bound(n, m)
    assert time.perf_counter() - t0 < 1.0


@criterion("06 inverse-image recovery")
def test_criterion_06_inversion():
    t0 = time.perf_counter()
    L = slope_drive_scenario()
    target = realize(L, (2.0,))
    result = invert(L, target, tol=1e-6)
    assert isinstance(result, Found)
    assert abs(result.x[0] - 2.0) <= 1e-6
    assert result.residual <= 1e-6
    zero = trajectory_from_values(target.schema, 0.1, [[0.0]] * 101)
    miss = invert(L, zero, tol=1e-6)
    assert isinstance(miss, NotInImage)
    assert time.perf_counter() - t0 < 2.0


def _shipped_instances():
    from scenkit.dynamics import drift

    schema1 = schema_of(("d0", "dimensionless"))
    line = schema_of(("pos", "m"))
    speeds = LogicalScenario(
        ParameterSpace((DiscreteAxis("v", (1.0, 2.0, 3.0)),)),
        lambda x: (Scene(line, (0.0,)), family_of(drift(line, {"pos": x[0]}))),
        TimeGrid(0.5, 4),
        name="speeds",
    )
    return [
        binary_branching(6),
        encode_logical(speeds),
        planar_instance(),
        delta_step_instance(
            schema1, [(-1.0,), (0.0,), (1.0,)], 1.0, 4,
            [Scene(schema1, (0.0,))], id="unit-step",
        ),
    ]


@criterion("07 semantics axiom suite")
def test_criterion_07_axioms():
    from scenkit.formulas import Atom, Eventually, ScenePredicate

    for instance in _shipped_instances():
        name = instance.schema.names[0]
        formulas = [
            TrueFormula(),
            Atom(ScenePredicate(((name, 0.0, 2.0),))),
            Eventually(Atom(ScenePredicate(((name, 1.0, 1.0),))), within=2),
        ]
        report = check_axioms(instance, formulas, probes=500, rng_seed=3)
        assert report.probes == 500
        assert report.passed, (instance.id, report.counterexamples[:2])
    mutant = prefix_breaking_mutant(binary_branching(6))
    assert not check_axioms(mutant, [TrueFormula()], probes=100, rng_seed=3).passed


@criterion("08 monitor soundness and irrevocability")
def test_criterion_08_monitor_soundness():
    from scenkit.formulas import Atom, Eventually, ScenePredicate

    word_checks = 0
    for n in range(1, 9):
        inst = binary_branching(n)
        universe = enumerate_scenarios(AbstractScenario(TrueFormula(), (), inst))
        formulas = [
            TrueFormula(),
            Atom(ScenePredicate((("bit", 0.0, 0.0),))),
            Eventually(Atom(ScenePredicate((("bit", 1.0, 1.0),)))),
        ]
        for formula in formulas:
            A = AbstractScenario(formula, (), inst)
            members = {t.sort_key() for t in enumerate_scenarios(A)}
            for c in universe:
                assert (monitor_word(c, A) is Verdict.ACCEPTED) == (
                    c.sort_key() in members
                )
                word_checks += 1
    assert word_checks >= 510

    rng = random.Random(1)
    for seed in range(200):
        A = random_step_scenario(seed)
        universe = enumerate_scenarios(AbstractScenario(TrueFormula(), (), A.instance))
        members = {t.sort_key() for t in enumerate_scenarios(A)}
        for _ in range(2):
            c = universe[rng.randrange(len(universe))]
            assert (monitor_word(c, A) is Verdict.ACCEPTED) == (
                c.sort_key() in members
            )

    # Irrevocability over at least 10^4 one-step prefix extensions.
    extensions = 0
    violations = 0
    seed = 0
    while extensions < 10_000:
        A = random_step_scenario(seed % 400)
        inst = A.instance
        rng = random.Random(seed + 7919)
        path = (inst.initial_scenes[rng.randrange(len(inst.initial_scenes))],)
        prev = monitor_prefix(
            Trajectory(inst.schema, inst.grid(1), path), A
        )
        while len(path) < inst.full_length():
            cands = tuple(inst.successors(path))
            path = path + (Scene(inst.schema, cands[rng.randrange(len(cands))]),)
            cur = monitor_prefix(
                Trajectory(inst.schema, inst.grid(len(path)), path), A
            )
            if prev is Verdict3.FALSE and cur is not Verdict3.FALSE:
                violations += 1
            if prev is Verdict3.TRUE and cur is not Verdict3.TRUE:
                violations += 1
            prev = cur
            extensions += 1
        seed += 1
    assert violations == 0


@criterion("09 sampling statistics")
def test_criterion_09_sampling():
    t0 = time.perf_counter()
    A = binary_scenarios(3)
    leaves = enumerate_scenarios(A)
    assert len(leaves) == 8
    draws = sample_abstract(A, 8000, "uniform-leaf", rng_seed=5)
    counts = {}
    for t in draws:
        counts[t.sort_key()] = counts.get(t.sort_key(), 0) + 1
    assert set(counts) == {t.sort_key() for t in leaves}
    for leaf_count in counts.values():
        assert abs(leaf_count - 1000) <= 100

    space = ParameterSpace((ContinuousAxis("u", 0.0, 1.0),))
    xs = sorted(x[0] for x in draw_parameters(space, None, 10_000, rng_seed=6))
    ks = 0.0
    n = len(xs)
    for i, x in enumerate(xs):
        ks = max(ks, (i + 1) / n - x, x - i / n)
    assert ks < 0.03

    for strategy in ("uniform-leaf", "uniform-branch", "rejection"):
        for t in sample_abstract(A, 100, strategy, rng_seed=8):
            assert monitor_word(t, A) is Verdict.ACCEPTED
    assert time.perf_counter() - t0 < 10.0


@criterion("10 rural synthesis accepted across all 360 choices")
def test_criterion_10_rural_synthesis():
    t0 = time.perf_counter()
    cfg = RuralConfig(n=3, m=2)
    grid = suggested_grid(cfg)
    scenario = rural_formula(cfg, grid)
    choices = enumerate_choices(3, 2)
    assert len(choices) == 360
    for choice in choices:
        traj = synthesize(choice, cfg, grid)
        assert monitor_word(traj, scenario) is Verdict.ACCEPTED
        for s in traj.samples:
            assert math.hypot(s["tractor_vx"], s["tractor_vy"]) <= cfg.v_tractor_max
            for k in range(cfg.n):
                assert math.hypot(s[f"red{k}_vx"], s[f"red{k}_vy"]) <= cfg.v_car_max
            for j in range(cfg.m):
                assert math.hypot(s[f"blue{j}_vx"], s[f"blue{j}_vy"]) <= cfg.v_car_max
    assert time.perf_counter() - t0 < 30.0
