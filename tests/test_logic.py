import dataclasses
import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenkit import dsl, logic
from scenkit.core import Scene, TimeGrid, Trajectory, schema_of, is_prefix
from scenkit.dynamics import drift, family_of
from scenkit.errors import (
    ComplexityError,
    HorizonError,
    RangeError,
    RejectionBudgetError,
    SchemaError,
    UnsatisfiableError,
)
from scenkit.formulas import (
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
    conjoin,
    evaluate3,
    progress,
    settle,
)
from scenkit.fixtures import planar_instance, reach_or_stop_formula
from scenkit.logic import (
    AbstractScenario,
    ScenarioLogicInstance,
    _children,
    _count_dag,
    _residual,
    _roots,
    _unrank,
    binary_branching,
    binary_scenarios,
    box_step,
    check_axioms,
    count_scenarios,
    delta_step_instance,
    encode_logical,
    enumerate_scenarios,
    expand,
    is_deterministic,
    prefix_breaking_mutant,
    quantized_motion_instance,
    sample_abstract,
    trace_formula,
)
from scenkit.logical import DiscreteAxis, LogicalScenario, ParameterSpace, derive_seed, realize
from scenkit.monitoring import (
    Verdict,
    WordReport,
    monitor_prefix,
    monitor_word,
    monitor_word_report,
)
from scenkit.rural import RuralConfig, rural_formula

from conftest import (
    PLANE,
    every_node_formulas,
    random_step_scenario,
    shared_formulas,
    small_instances,
    with_dead_ends,
    worlds_and_words,
)

ASSETS = Path(__file__).resolve().parents[1] / "src" / "scenkit" / "assets"


def bit_trajectory(bits, instance):
    schema = instance.schema
    samples = tuple(Scene(schema, (float(b),)) for b in bits)
    return instance.grid(len(samples)), samples


def as_traj(instance, bits):
    from scenkit.core import Trajectory

    grid, samples = bit_trajectory(bits, instance)
    return Trajectory(instance.schema, grid, samples)


# --- three-valued formula evaluation --------------------------------------------


def test_formula_verdicts_on_prefixes(line):
    low = Atom(ScenePredicate((("pos", 0.0, 1.0),)))
    samples = (Scene(line, (0.5,)),)
    assert evaluate3(low, samples, horizon=3) is Verdict3.TRUE
    assert evaluate3(Eventually(low), (), 3) is Verdict3.UNKNOWN
    assert evaluate3(Always(low), samples, 3) is Verdict3.UNKNOWN
    bad = (Scene(line, (5.0,)),)
    assert evaluate3(Always(low), bad, 3) is Verdict3.FALSE
    assert evaluate3(And(low, TrueFormula()), bad, 3) is Verdict3.FALSE


def test_formula_monotonicity_random_walks(line):
    from conftest import random_formula

    rng = random.Random(5)
    for _ in range(300):
        f = random_formula(rng, line)
        horizon = 4
        samples = ()
        prev = evaluate3(f, samples, horizon)
        for _ in range(horizon + 1):
            samples = samples + (Scene(line, (float(rng.randint(-3, 3)),)),)
            cur = evaluate3(f, samples, horizon)
            if prev is Verdict3.TRUE:
                assert cur is Verdict3.TRUE
            if prev is Verdict3.FALSE:
                assert cur is Verdict3.FALSE
            prev = cur


def test_and_is_the_three_valued_conjunction_of_its_sides(line):
    # evaluate3 walks right-nested And/Next spines in a loop; each And must
    # still mean the conjunction of one verdict per side.
    from conftest import random_formula

    rng = random.Random(9)
    for _ in range(3000):
        left = random_formula(rng, line)
        right = random_formula(rng, line)
        if rng.random() < 0.5:
            right = Next(And(random_formula(rng, line), Next(right)))
        horizon = rng.randint(0, 4)
        samples = tuple(
            Scene(line, (float(rng.randint(-3, 3)),)) for _ in range(rng.randint(0, horizon + 1))
        )
        pos = rng.randint(0, horizon)
        sides = {evaluate3(left, samples, horizon, pos), evaluate3(right, samples, horizon, pos)}
        if Verdict3.FALSE in sides:
            expected = Verdict3.FALSE
        elif sides == {Verdict3.TRUE}:
            expected = Verdict3.TRUE
        else:
            expected = Verdict3.UNKNOWN
        assert evaluate3(And(left, right), samples, horizon, pos) is expected


# --- expansion -------------------------------------------------------------------


def test_expand_zero_steps_is_identity():
    A = binary_scenarios(4)
    c = as_traj(A.instance, [0, 1])
    assert expand(A, c, 0) == (c,)


def test_binary_one_step_branches_into_two():
    A = binary_scenarios(4)
    c = as_traj(A.instance, [0, 1])
    kids = expand(A, c, 1)
    assert {k.samples[-1].values for k in kids} == {(0.0,), (1.0,)}
    assert all(is_prefix(c, k) for k in kids)


def test_expand_composes():
    A = binary_scenarios(5)
    c = as_traj(A.instance, [1])
    two = {t.sort_key() for t in expand(A, c, 2)}
    composed = set()
    for mid in expand(A, c, 1):
        composed |= {t.sort_key() for t in expand(A, mid, 1)}
    assert two == composed


def test_a_nan_scene_tol_is_refused():
    schema = schema_of(("x", "m"), ("y", "m"), ("vx", "m/s"), ("vy", "m/s"))
    start = Scene(schema, (0.0, 0.0, 0.0, 0.0))
    for tol in (float("nan"), -1.0, -math.inf):
        with pytest.raises(RangeError, match="scene_tol must not be NaN"):
            logic.quantized_motion_instance(schema, [0.0], 1.0, 2, [start], snap_tol=tol)
        with pytest.raises(RangeError, match="scene_tol must not be NaN"):
            dataclasses.replace(binary_scenarios(2).instance, scene_tol=tol)


def test_expand_beyond_horizon_raises():
    A = binary_scenarios(3)
    c = as_traj(A.instance, [0, 1, 1])
    with pytest.raises(HorizonError):
        expand(A, c, 1)
    with pytest.raises(RangeError):
        expand(A, c, -1)


# --- enumeration ------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 13))
def test_binary_enumeration_counts(n):
    leaves = enumerate_scenarios(binary_scenarios(n))
    assert len(leaves) == 2**n
    assert len({t.sort_key() for t in leaves}) == 2**n


def test_false_formula_enumerates_empty():
    A = AbstractScenario(FalseFormula(), (), binary_branching(4))
    assert enumerate_scenarios(A) == ()


def test_enumeration_guard():
    with pytest.raises(ComplexityError):
        enumerate_scenarios(binary_scenarios(12), guard=100)


def test_constraint_conjunction_shrinks_enumeration():
    inst = binary_branching(5)
    f1 = Atom(ScenePredicate((("bit", 0.0, 0.0),)))  # first sample is 0
    f2 = Eventually(Atom(ScenePredicate((("bit", 1.0, 1.0),))))
    sets = {}
    for name, formula in (("f1", f1), ("f2", f2), ("both", And(f1, f2))):
        sets[name] = {t.sort_key() for t in enumerate_scenarios(AbstractScenario(formula, (), inst))}
    assert sets["both"] == sets["f1"] & sets["f2"]
    assert sets["both"] <= sets["f1"]
    assert len(sets["f1"]) == 16


def test_world_formulas_conjoin_with_constraints():
    inst = binary_branching(3)
    world = (Always(Atom(ScenePredicate((("bit", 0.0, 0.0),)))),)
    A = AbstractScenario(TrueFormula(), world, inst)
    leaves = enumerate_scenarios(A)
    assert len(leaves) == 1
    assert all(s.values == (0.0,) for s in leaves[0].samples)


# --- the logical-scenario encoding ---------------------------------------------------


def speeds_scenario(values):
    schema = schema_of(("pos", "m"))
    space = ParameterSpace((DiscreteAxis("v", tuple(values)),))

    def binder(x):
        return Scene(schema, (0.0,)), family_of(drift(schema, {"pos": x[0]}))

    return LogicalScenario(space, binder, TimeGrid(0.5, 5), name="speeds")


@pytest.mark.parametrize("values", [(2.0,), (1.0, 2.0, 3.0, 4.0, 5.0)])
def test_encoding_matches_image(values):
    L = speeds_scenario(values)
    inst = encode_logical(L)
    leaves = enumerate_scenarios(AbstractScenario(TrueFormula(), (), inst))
    realized = sorted(realize(L, (v,)).sort_key() for v in values)
    assert sorted(t.sort_key() for t in leaves) == realized


def test_encoding_shares_prefixes_until_divergence():
    # Two parameter points with equal starting scenes force a shared root.
    L = speeds_scenario((1.0, 2.0))
    inst = encode_logical(L)
    assert len(inst.initial_scenes) == 1
    from scenkit.core import Trajectory

    root = Trajectory(inst.schema, inst.grid(1), (inst.initial_scenes[0],))
    A = AbstractScenario(TrueFormula(), (), inst)
    kids = expand(A, root, 1)
    assert len(kids) == 2


def test_encoding_requires_discrete_axes():
    from scenkit.fixtures import slope_drive_scenario

    with pytest.raises(ComplexityError):
        encode_logical(slope_drive_scenario())


# --- trace formulas --------------------------------------------------------------------


def test_trace_formula_pins_single_trajectory():
    A = binary_scenarios(4)
    target = enumerate_scenarios(A)[5]
    pinned = AbstractScenario(trace_formula(target), (), A.instance)
    leaves = enumerate_scenarios(pinned)
    assert len(leaves) == 1
    assert leaves[0].sort_key() == target.sort_key()


def test_long_trace_formula_monitors_without_recursion_error(plane):
    # One And/Next level per sample: 10,000 levels are far past the
    # interpreter's recursion limit.
    n = 10_000
    rows = [(-50.0 + i, 100.0 - 0.5 * i, 10.0, -5.0) for i in range(n)]
    samples = tuple(Scene(plane, r) for r in rows)
    own = Trajectory(plane, TimeGrid(0.1, n), samples)
    inst = quantized_motion_instance(
        plane, accels=(-2.0, 0.0, 2.0), step=0.1, horizon=n - 1, probe_scenes=samples[:1]
    )
    A = AbstractScenario(trace_formula(own), (), inst)
    assert monitor_word(own, A) is Verdict.ACCEPTED
    moved = list(samples)
    moved[n // 2] = moved[n // 2].replace(x=moved[n // 2]["x"] + 1e-3)
    other = Trajectory(plane, own.grid, tuple(moved))
    assert monitor_word(other, A) is Verdict.REJECTED
    assert evaluate3(A.constraints, other.samples, n - 1, scene_tol=1e-6) is Verdict3.FALSE


def test_trace_formula_of_length_one_is_scene_const(line):
    from conftest import make_trajectory

    t = make_trajectory(line, [[1.5]])
    f = trace_formula(t)
    assert isinstance(f, SceneConst)


def test_satisfiability_reduction_on_random_pairs():
    # Membership of c in the scenario set is equivalent to satisfiability
    # of the pinned-trace conjunction.
    checked = 0
    for seed in range(60):
        A = random_step_scenario(seed)
        universe = enumerate_scenarios(
            AbstractScenario(TrueFormula(), (), A.instance)
        )
        rng = random.Random(seed)
        members = {t.sort_key() for t in enumerate_scenarios(A)}
        for _ in range(4):
            if not universe:
                break
            c = universe[rng.randrange(len(universe))]
            pinned = AbstractScenario(
                And(trace_formula(c), A.conjoined()), (), A.instance
            )
            nonempty = len(enumerate_scenarios(pinned)) > 0
            assert nonempty == (c.sort_key() in members)
            assert nonempty == (monitor_word(c, A) is Verdict.ACCEPTED)
            checked += 1
    assert checked >= 200


# --- axiom checking ----------------------------------------------------------------------


def shipped_instances():
    return [
        binary_branching(5),
        encode_logical(speeds_scenario((1.0, 2.0, 3.0))),
        planar_instance(),
        delta_step_instance(
            schema_of(("d0", "dimensionless")),
            [(-1.0,), (0.0,), (1.0,)],
            1.0,
            4,
            [Scene(schema_of(("d0", "dimensionless")), (0.0,))],
            id="unit-step",
        ),
    ]


def probe_formulas(schema):
    name = schema.names[0]
    return [
        TrueFormula(),
        Atom(ScenePredicate(((name, 0.0, 2.0),))),
        Eventually(Atom(ScenePredicate(((name, 1.0, 1.0),))), within=2),
        Always(Atom(ScenePredicate(((name, -5.0, 5.0),)))),
    ]


@pytest.mark.parametrize("instance", shipped_instances(), ids=lambda i: i.id)
def test_axioms_hold_on_shipped_instances(instance):
    report = check_axioms(instance, probe_formulas(instance.schema), probes=500, rng_seed=2)
    assert report.passed, report.counterexamples[:3]


def test_axioms_catch_prefix_breaking_mutant():
    broken = prefix_breaking_mutant(binary_branching(5))
    report = check_axioms(broken, [TrueFormula()], probes=100, rng_seed=2)
    assert not report.passed
    assert any("prefix" in c for c in report.counterexamples)


def test_conjunction_cardinality_never_exceeds_either_side():
    inst = binary_branching(5)
    rng = random.Random(9)
    from conftest import random_formula

    for _ in range(50):
        f, g = random_formula(rng, inst.schema), random_formula(rng, inst.schema)
        a = len(enumerate_scenarios(AbstractScenario(f, (), inst)))
        b = len(enumerate_scenarios(AbstractScenario(g, (), inst)))
        both = len(enumerate_scenarios(AbstractScenario(And(f, g), (), inst)))
        assert both <= min(a, b)


# --- sampling ---------------------------------------------------------------------------------


def test_sample_abstract_unsatisfiable():
    A = AbstractScenario(FalseFormula(), (), binary_branching(3))
    with pytest.raises(UnsatisfiableError):
        sample_abstract(A, 5, "uniform-leaf", rng_seed=0)
    with pytest.raises(UnsatisfiableError):
        sample_abstract(A, 5, "rejection", rng_seed=0)


def test_sample_abstract_strategies_produce_members():
    A = binary_scenarios(3)
    members = {t.sort_key() for t in enumerate_scenarios(A)}
    for strategy in ("uniform-leaf", "uniform-branch", "rejection"):
        out = sample_abstract(A, 40, strategy, rng_seed=11)
        assert len(out) == 40
        assert all(t.sort_key() in members for t in out)
        assert all(monitor_word(t, A) is Verdict.ACCEPTED for t in out)


def test_sample_abstract_is_seed_reproducible():
    A = binary_scenarios(4)
    a = sample_abstract(A, 25, "uniform-leaf", rng_seed=7)
    b = sample_abstract(A, 25, "uniform-leaf", rng_seed=7)
    assert [t.sort_key() for t in a] == [t.sort_key() for t in b]


def test_rejection_budget_error_reports_rate():
    inst = binary_branching(8)
    # Constraint pins one exact leaf out of 256: rejection from the world
    # alone accepts it rarely, so a tiny budget runs out.
    target = enumerate_scenarios(binary_scenarios(8))[137]
    A = AbstractScenario(trace_formula(target), (), inst)
    with pytest.raises(RejectionBudgetError) as err:
        sample_abstract(A, 30, "rejection", rng_seed=1, max_attempts=40)
    assert 0.0 <= err.value.acceptance_rate < 0.5


def test_uniform_leaf_requires_valid_strategy():
    with pytest.raises(RangeError):
        sample_abstract(binary_scenarios(3), 1, "bogus", rng_seed=0)


# --- counting and unranking against the enumeration ----------------------------------


def _dag(A):
    """The counted DAG that enumeration, counting and uniform-leaf draws read."""
    inst = A.instance
    return _count_dag(inst, _roots(inst, A.conjoined()), inst.horizon)


def _assert_count_and_draws_match_enumeration(A, seed):
    leaves = enumerate_scenarios(A)
    assert count_scenarios(A) == len(leaves)
    dag = _dag(A)
    assert [_unrank(dag, r) for r in range(len(leaves))] == [t.samples for t in leaves]
    if leaves:
        draws = sample_abstract(A, 10, "uniform-leaf", rng_seed=seed)
        picks = [random.Random(derive_seed(seed, i)).randrange(len(leaves)) for i in range(10)]
        assert draws == [leaves[r] for r in picks]


@given(small_instances(max_horizon=4), st.booleans(), st.data())
@settings(max_examples=300, deadline=None)
def test_count_and_unranking_match_the_enumeration(case, boxed, data):
    inst, _ = case
    assert inst.markov
    if boxed:
        # Dead ends below the formula's pruning.
        inst = with_dead_ends(inst)
    A = AbstractScenario(data.draw(every_node_formulas(inst.schema)), (), inst)
    _assert_count_and_draws_match_enumeration(A, data.draw(st.integers(0, 2**31)))


class _Interner:
    """Reference identity of formulas, by structure: structurally equal
    nodes share an id. A node's key is its type, its scalar fields and its
    operands' ids, built in a loop once per node; nodes are cached by
    ``id()`` and held here."""

    def __init__(self):
        self.seen: dict[int, tuple[int, Formula]] = {}
        self.ids: dict[tuple, int] = {}

    def __call__(self, formula: Formula) -> int:
        seen = self.seen
        todo = [formula]
        while todo:
            f = todo[-1]
            if id(f) in seen:
                todo.pop()
                continue
            fields = [getattr(f, name) for name in type(f).__dataclass_fields__]
            missing = [v for v in fields if isinstance(v, Formula) and id(v) not in seen]
            if missing:
                todo.extend(missing)
                continue
            todo.pop()
            key = (type(f), *(seen[id(v)][0] if isinstance(v, Formula) else v for v in fields))
            seen[id(f)] = (self.ids.setdefault(key, len(self.ids)), f)
        return seen[id(formula)][0]


class _InternedStates(logic._States):
    """The merge rule with residuals keyed by their structural ids
    instead of their identity."""

    def __init__(self, cap):
        super().__init__(cap)
        self.intern = _Interner()

    def lookup(self, node, make):
        return super().lookup((node[0], *map(self.intern, node[1:])), lambda _: make(node))


@given(small_instances(max_horizon=4), st.booleans(), st.data())
@settings(max_examples=300, deadline=None)
def test_states_merge_by_identity_as_by_structure(case, boxed, data):
    inst, _ = case
    if boxed:
        inst = with_dead_ends(inst)
    formulas = st.one_of(every_node_formulas(inst.schema), shared_formulas(inst.schema))
    A = AbstractScenario(data.draw(formulas), (), inst)
    dag = _dag(A)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(logic, "_States", _InternedStates)
        assert _dag(A) == dag


@given(every_node_formulas(PLANE), st.integers(0, 2**31))
@settings(max_examples=100, deadline=None)
def test_count_and_unranking_match_the_enumeration_of_an_encoding(formula, seed):
    spec = dsl.load((ASSETS / "straight_drive.scn").read_text(encoding="utf-8"))
    inst = encode_logical(spec.logicals["speed_choices"])
    assert not inst.markov
    _assert_count_and_draws_match_enumeration(AbstractScenario(formula, (), inst), seed)


def test_merging_an_encoding_would_splice_its_trajectories():
    spec = dsl.load(
        """
        schema S { x: m }
        logical cross {
          param v: set{-1, 1}
          start { S.x = -v }
          bind drift(x = v)
          horizon 2 s step 1 s
        }
        """
    )
    inst = encode_logical(spec.logicals["cross"])
    A = AbstractScenario(TrueFormula(), (), inst)
    # The two trajectories cross at x = 0 after one step.
    assert [[s.values[0] for s in t.samples] for t in enumerate_scenarios(A)] == [
        [-1.0, 0.0, 1.0],
        [1.0, 0.0, -1.0],
    ]
    _assert_count_and_draws_match_enumeration(A, 3)
    merged = AbstractScenario(TrueFormula(), (), dataclasses.replace(inst, markov=True))
    spliced = _unrank(_dag(merged), 1)
    assert [s.values[0] for s in spliced] == [1.0, 0.0, 1.0]


def test_count_keeps_nodes_with_different_residuals_apart():
    # Up-then-down and down-then-up both reach 0 after two steps, one
    # still owing a visit to -1 and the other to 1: residuals of one
    # shape that differ only in their atoms.
    d = schema_of(("d", "dimensionless"))
    inst = delta_step_instance(d, [(-1.0,), (1.0,)], 1.0, 3, [Scene(d, (0.0,))])
    visits = And(Eventually(Atom(ScenePredicate((("d", 1.0, 1.0),)))),
                 Eventually(Atom(ScenePredicate((("d", -1.0, -1.0),)))))
    A = AbstractScenario(visits, (), inst)
    assert len(enumerate_scenarios(A)) == 2
    _assert_count_and_draws_match_enumeration(A, 0)
    for within in (1, 2):
        windows = And(Always(Atom(ScenePredicate((("d", -2.0, 2.0),))), within),
                      Eventually(Atom(ScenePredicate((("d", 1.0, 1.0),))), within + 1))
        _assert_count_and_draws_match_enumeration(AbstractScenario(windows, (), inst), 0)
    # Here they differ only in their node type: at 0 after two steps the
    # residual is Next(Always(q)) via 1 and Next(Eventually(q)) via -1.
    inst = dataclasses.replace(inst, horizon=4)
    q = Atom(ScenePredicate((("d", -1.0, 1.0),)))

    def branch(value, tail):
        return And(Next(Atom(ScenePredicate((("d", value, value),)))), Next(Next(Next(tail))))

    either = AbstractScenario(Or(branch(1.0, Always(q)), branch(-1.0, Eventually(q))), (), inst)
    assert len(enumerate_scenarios(either)) == 9
    _assert_count_and_draws_match_enumeration(either, 0)


def test_count_merges_equal_nodes():
    # Two states per level: the residual stays TRUE, and the last bit is
    # all a binary node's completions depend on.
    dag = _dag(binary_scenarios(16))
    assert len(dag.scenes) == 32
    assert dag.total() == 2**16


def test_count_over_a_long_horizon_without_recursion_error():
    d = schema_of(("d", "dimensionless"))
    inst = delta_step_instance(d, [(0.0,), (1.0,)], 1.0, 10_000, [Scene(d, (0.0,))])
    target = Trajectory(
        d, inst.grid(10_001), tuple(Scene(d, (float(i // 2),)) for i in range(10_001))
    )
    A = AbstractScenario(trace_formula(target), (), inst)
    assert count_scenarios(A) == 1
    assert _unrank(_dag(A), 0) == target.samples


def test_count_needs_a_finite_start_set_and_respects_the_guard():
    reach = dsl.load((ASSETS / "straight_drive.scn").read_text(encoding="utf-8")).abstracts["reach"]
    with pytest.raises(ComplexityError, match="no finite initial scene set"):
        count_scenarios(reach)
    inst = binary_branching(60)
    with pytest.raises(ComplexityError, match="guard of 100 states"):
        _count_dag(inst, _roots(inst, TrueFormula()), inst.horizon, 100)
    inst = binary_branching(50)
    assert _count_dag(inst, _roots(inst, TrueFormula()), inst.horizon, 100).total() == 2**50


# --- enumeration and expansion off the counted DAG --------------------------------------


def test_enumeration_progresses_each_state_not_each_tree_node(monkeypatch):
    import scenkit.logic as logic

    calls = []
    progress = logic.progress

    def counted(*args):
        calls.append(1)
        return progress(*args)

    monkeypatch.setattr(logic, "progress", counted)
    assert len(enumerate_scenarios(binary_scenarios(16))) == 2**16
    # 2 roots, then 2 states x 2 children on each of 15 levels; growing
    # the tree progresses all of its 131,070 nodes.
    assert len(calls) < 100


@given(small_instances(max_horizon=4), st.data())
@settings(max_examples=200, deadline=None)
def test_non_markov_copy_enumerates_and_expands_the_same_leaves(case, data):
    inst, _ = case
    A = AbstractScenario(data.draw(every_node_formulas(inst.schema)), (), inst)
    B = dataclasses.replace(A, instance=dataclasses.replace(inst, markov=False))
    assert enumerate_scenarios(B) == enumerate_scenarios(A)
    prefix = (data.draw(st.sampled_from(inst.initial_scenes)),)
    for _ in range(data.draw(st.integers(0, inst.horizon))):
        prefix += (Scene(inst.schema, data.draw(st.sampled_from(inst.successors(prefix)))),)
    c = Trajectory(inst.schema, inst.grid(len(prefix)), prefix)
    steps = data.draw(st.integers(0, inst.horizon - (len(prefix) - 1)))
    assert expand(B, c, steps) == expand(A, c, steps)


def test_enumeration_guard_counts_leaves_before_building_any(monkeypatch):
    import time

    import scenkit.logic as logic

    def no_trajectory(*args):
        raise AssertionError("a trajectory was built")

    monkeypatch.setattr(logic, "Trajectory", no_trajectory)
    monkeypatch.setattr(logic, "_trusted_trajectory", no_trajectory)
    start = time.perf_counter()
    with pytest.raises(ComplexityError, match=f"{2**40} accepted scenarios"):
        enumerate_scenarios(binary_scenarios(40))
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ComplexityError, match="4096 accepted scenarios"):
        enumerate_scenarios(binary_scenarios(12), guard=4095)
    monkeypatch.undo()
    assert len(enumerate_scenarios(binary_scenarios(12), guard=4096)) == 4096
    assert len(enumerate_scenarios(binary_scenarios(12), guard=1, force=True)) == 4096


# --- sampling walks over merged states against the per-node walk ---------------------


def _per_node_walk(scenario, count, strategy, rng_seed, max_attempts=10_000):
    """uniform-branch and rejection as sampled before the state memo, kept
    as the reference: every step of every attempt computes its node's
    children again, and a rejection leaf progresses the whole formula
    over its path."""
    inst = scenario.instance
    conj = scenario.conjoined()
    if isinstance(settle(conj, inst.horizon), FalseFormula):
        raise UnsatisfiableError("the constraint formula is unsatisfiable")
    if inst.initial_scenes is None:
        raise ComplexityError("sampling needs a finite initial scene set")
    guide = conj if strategy == "uniform-branch" else conjoin(scenario.world)
    roots = _roots(inst, guide)
    if not roots:
        raise UnsatisfiableError("no admissible starting scene")
    out = []
    attempts = accepted = 0
    while len(out) < count:
        if attempts >= max_attempts:
            rate = accepted / attempts
            raise RejectionBudgetError(
                f"gave up after {attempts} attempts (acceptance rate {rate:.3g})",
                acceptance_rate=rate,
            )
        rng = random.Random(derive_seed(rng_seed, attempts))
        attempts += 1
        path, r = roots[rng.randrange(len(roots))]
        dead = False
        for _ in range(inst.horizon):
            kids = _children(inst, (path, r))
            if not kids:
                dead = True
                break
            path, r = kids[rng.randrange(len(kids))]
        if dead:
            continue
        if strategy == "rejection":
            r = _residual(inst, conj, path)
        if not isinstance(r, TrueFormula):
            continue
        accepted += 1
        out.append(Trajectory(inst.schema, inst.grid(len(path)), path))
    return out


def _outcome(sample, *args, **kwargs):
    """Draws, or the error raised, with a budget error's acceptance rate."""
    try:
        return sample(*args, **kwargs)
    except RejectionBudgetError as exc:
        return type(exc), str(exc), exc.acceptance_rate
    except (UnsatisfiableError, ComplexityError) as exc:
        return type(exc), str(exc)


@given(
    small_instances(max_horizon=4),
    st.booleans(),
    st.booleans(),
    st.sampled_from(["uniform-branch", "rejection"]),
    st.integers(1, 12),
    st.integers(0, 2**31),
    st.data(),
)
@settings(max_examples=400, deadline=None)
def test_memoized_walks_draw_what_the_per_node_walk_draws(
    case, boxed, markov, strategy, count, seed, data
):
    inst, _ = case
    if boxed:
        # Steps may not leave the box [-2, 2]: dead ends below the pruning.
        step = inst.successors
        inst = dataclasses.replace(
            inst,
            successors=lambda p: tuple(v for v in step(p) if max(map(abs, v)) <= 2.0),
        )
    inst = dataclasses.replace(inst, markov=markov)
    formulas = every_node_formulas(inst.schema)
    A = AbstractScenario(
        data.draw(formulas), tuple(data.draw(st.lists(formulas, max_size=2))), inst
    )
    budget = data.draw(st.integers(1, 60))
    args = (A, count, strategy, seed)
    assert _outcome(sample_abstract, *args, max_attempts=budget) == _outcome(
        _per_node_walk, *args, max_attempts=budget
    )


def _owing_visits():
    """Scenarios whose walks reach one (depth, scene) with residuals that
    differ (see test_count_keeps_nodes_with_different_residuals_apart),
    through the constraint and through the world."""
    d = schema_of(("d", "dimensionless"))
    inst = delta_step_instance(d, [(-1.0,), (1.0,)], 1.0, 3, [Scene(d, (0.0,))])

    def at(lo, hi):
        return Atom(ScenePredicate((("d", lo, hi),)))

    visits = And(Eventually(at(1.0, 1.0)), Eventually(at(-1.0, -1.0)))
    windows = And(Always(at(-2.0, 2.0), 1), Eventually(at(1.0, 1.0), 2))
    out = [AbstractScenario(visits, (), inst), AbstractScenario(windows, (visits,), inst),
           AbstractScenario(TrueFormula(), (visits,), inst)]
    longer = dataclasses.replace(inst, horizon=4)

    def branch(value, tail):
        return And(Next(at(value, value)), Next(Next(Next(tail))))

    q = at(-1.0, 1.0)
    either = Or(branch(1.0, Always(q)), branch(-1.0, Eventually(q)))
    return out + [AbstractScenario(either, (), longer), AbstractScenario(q, (either,), longer)]


@pytest.mark.parametrize("A", _owing_visits())
@pytest.mark.parametrize("strategy", ["uniform-branch", "rejection"])
def test_memoized_walks_keep_states_with_different_residuals_apart(A, strategy):
    for seed in range(40):
        args = (A, 6, strategy, seed)
        assert _outcome(sample_abstract, *args, max_attempts=30) == _outcome(
            _per_node_walk, *args, max_attempts=30
        )


@pytest.mark.parametrize("strategy", ["uniform-branch", "rejection"])
def test_memoized_walks_past_the_memo_cap_draw_the_same(strategy):
    d0 = schema_of(("d0", "dimensionless"))
    inst = delta_step_instance(d0, [(-1.0,), (0.0,), (1.0,)], 1.0, 8, [Scene(d0, (0.0,))])
    # Rarely met, so rejection walks many distinct states before two draws.
    constraint = And(Always(Atom(ScenePredicate((("d0", -3.0, 3.0),)))),
                     Eventually(Atom(ScenePredicate((("d0", 3.0, 3.0),)))))
    A = AbstractScenario(constraint, (), inst)
    sizes = [0]
    for count, seed in ((2, 5), (1, 6), (3, 7), (2, 5), (1, 8)):
        assert sample_abstract(A, count, strategy, seed) == _per_node_walk(A, count, strategy, seed)
        sizes.append(len(A.__dict__["_walks"].memo))
        # A call adds at most count x (horizon + 1) states to the table.
        assert sizes[-1] - sizes[-2] <= count * 9
    # The first call stops at its bound and walks past it; later calls
    # add to the same table.
    assert sizes[1] == 2 * 9 < sizes[-1]


@given(
    small_instances(max_horizon=4),
    st.booleans(),
    st.booleans(),
    st.lists(
        st.tuples(
            st.sampled_from(["uniform-leaf", "uniform-branch", "rejection"]),
            st.integers(1, 6),
            st.integers(0, 2**31),
        ),
        min_size=2,
        max_size=6,
    ),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_a_kept_scenario_draws_what_fresh_scenarios_draw(case, boxed, markov, calls, data):
    inst, _ = case
    inst = dataclasses.replace(with_dead_ends(inst) if boxed else inst, markov=markov)
    formulas = every_node_formulas(inst.schema)
    A = AbstractScenario(
        data.draw(formulas), tuple(data.draw(st.lists(formulas, max_size=2))), inst
    )
    for strategy, count, seed in calls:
        args = (count, strategy, seed)
        fresh = dataclasses.replace(A)
        assert _outcome(sample_abstract, A, *args, max_attempts=40) == _outcome(
            sample_abstract, fresh, *args, max_attempts=40
        )


def test_memoized_walks_compute_each_state_once(monkeypatch):
    import scenkit.logic as logic

    calls = []
    successors = binary_branching(12).successors
    inst = dataclasses.replace(
        binary_branching(12), successors=lambda p: calls.append(1) or successors(p)
    )
    draws = sample_abstract(AbstractScenario(TrueFormula(), (), inst), 50, "uniform-branch", 0)
    assert len(draws) == 50
    # Two states per depth below the roots, one successors call each;
    # the per-node walk makes 50 x 11.
    assert len(calls) == 22


def _tuple_path_walks(scenario, count, strategy, rng_seed, max_attempts=10_000):
    """uniform-branch and rejection as sampled before a walk kept its path
    in one list, kept verbatim as the reference: a step extends the path
    tuple by its new scene."""
    inst = scenario.instance
    conj = scenario.conjoined()
    if isinstance(settle(conj, inst.horizon), FalseFormula):
        raise UnsatisfiableError("the constraint formula is unsatisfiable")
    if inst.initial_scenes is None:
        raise ComplexityError("sampling needs a finite initial scene set")
    schema, grid = inst.schema, inst.grid(inst.full_length())
    if strategy == "uniform-branch":
        roots = _roots(inst, conj)
    else:
        check = settle(scenario.constraints, inst.horizon)
        roots = [
            (p, r, progress(check, p[0], 0, inst.horizon, inst.scene_tol))
            for p, r in _roots(inst, conjoin(scenario.world))
        ]
    if not roots:
        raise UnsatisfiableError("no admissible starting scene")

    def children(node: tuple) -> list[tuple]:
        path = node[0]
        kids = _children(inst, node[:2])
        if strategy == "uniform-branch":
            return [(p[-1], r) for p, r in kids]
        position, check = len(path), node[2]
        return [
            (p[-1], r, progress(check, p[-1], position, inst.horizon, inst.scene_tol))
            for p, r in kids
        ]

    states = None
    if inst.markov:
        states = scenario.__dict__.setdefault("_walks", logic._States(0))
        states.cap = len(states.memo) + count * inst.full_length()
    out = []
    attempts = 0
    while len(out) < count:
        if attempts >= max_attempts:
            rate = len(out) / attempts
            raise RejectionBudgetError(
                f"gave up after {attempts} attempts (acceptance rate {rate:.3g})",
                acceptance_rate=rate,
            )
        rng = random.Random(derive_seed(rng_seed, attempts))
        attempts += 1
        node = roots[rng.randrange(len(roots))]
        for _ in range(inst.horizon):
            kids = children(node) if states is None else states.lookup(node, children)
            if not kids:
                break
            scene, *residuals = kids[rng.randrange(len(kids))]
            node = (node[0] + (scene,), *residuals)
        else:
            if isinstance(node[-1], TrueFormula):
                out.append(logic._trusted_trajectory(schema, grid, node[0]))
    return out


def _drawn_bits(draws):
    """Draws as value bits and grids, or the outcome of a failed call."""
    if not isinstance(draws, list):
        return draws
    return [(t.grid, [[v.hex() for v in s.values] for s in t.samples]) for t in draws]


@given(
    small_instances(max_horizon=5),
    st.booleans(),
    st.booleans(),
    st.sampled_from(["uniform-branch", "rejection"]),
    st.lists(st.tuples(st.integers(1, 8), st.integers(0, 2**31)), min_size=2, max_size=3),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_list_path_walks_draw_what_the_tuple_path_walk_draws(
    case, boxed, markov, strategy, calls, data
):
    inst, _ = case
    inst = dataclasses.replace(with_dead_ends(inst) if boxed else inst, markov=markov)
    formulas = every_node_formulas(inst.schema)
    A = AbstractScenario(
        data.draw(formulas), tuple(data.draw(st.lists(formulas, max_size=2))), inst
    )
    B = dataclasses.replace(A)
    # The first call finds each memo cold, and the later ones warm.
    for count, seed in calls:
        args = (count, strategy, seed)
        got = _outcome(sample_abstract, A, *args, max_attempts=40)
        want = _outcome(_tuple_path_walks, B, *args, max_attempts=40)
        assert got == want and _drawn_bits(got) == _drawn_bits(want)
        if isinstance(got, list):
            assert all(type(t.samples) is tuple for t in got)


# --- quantized successors against a per-pair reference ------------------------------


def _advance(s, ax, ay, step):
    """One quantized step from ``s``, each successor built alone."""
    vals = list(s.values)
    vals[0] = s.values[0] + s.values[2] * step
    vals[1] = s.values[1] + s.values[3] * step
    vals[2] = s.values[2] + ax * step
    vals[3] = s.values[3] + ay * step
    return Scene(PLANE, tuple(vals))


def _successor_values(successors):
    """The successors' values as hex strings, or the message of the error."""
    try:
        return [tuple(v.hex() for v in s.values) for s in successors()]
    except SchemaError as exc:
        return str(exc)


_motion = st.floats(min_value=-1e306, max_value=1e306, allow_nan=False)


@given(
    st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=4),
    st.floats(min_value=1e-3, max_value=1e3),
    st.tuples(_motion, _motion, _motion, _motion),
)
def test_quantized_successors_match_the_reference(accels, step, end_values):
    # Bit for bit and in product order; built as Scenes, a position past
    # the largest float raises the reference's error.
    end = Scene(PLANE, end_values)
    inst = quantized_motion_instance(PLANE, accels, step, 3, probe_scenes=(end,))
    assert _successor_values(
        lambda: [Scene(PLANE, v) for v in inst.successors((end,))]
    ) == _successor_values(
        lambda: [_advance(end, ax, ay, step) for ax in accels for ay in accels]
    )


def test_quantized_successors_refuse_a_non_finite_position():
    # The relation yields the infinite position as values; a walk that
    # builds it as a child raises, and admission never matches it.
    end = Scene(PLANE, (1e308, 0.0, 1e308, 0.0))
    inst = quantized_motion_instance(PLANE, (0.0, 1.0), 10.0, 3, probe_scenes=(end,))
    assert {v[0] for v in inst.successors((end,))} == {float("inf")}
    A = AbstractScenario(TrueFormula(), (), inst)
    start = Trajectory(PLANE, inst.grid(1), (end,))
    for walk in (lambda: expand(A, start, 1), lambda: monitor_prefix(start, A)):
        with pytest.raises(SchemaError, match="non-finite value inf in dimension 'x'"):
            walk()
    assert not inst.allows_step((end,), end)


# --- misc -------------------------------------------------------------------------------------


def test_prefix_closure_exact_on_random_instances():
    for seed in range(30):
        A = random_step_scenario(seed)
        inst = A.instance
        from scenkit.core import Trajectory

        root = Trajectory(inst.schema, inst.grid(1), (inst.initial_scenes[0],))
        for steps in (1, 2):
            if steps > inst.horizon:
                continue
            for t in expand(AbstractScenario(TrueFormula(), (), inst), root, steps):
                assert is_prefix(root, t)


def test_deterministic_query():
    single = delta_step_instance(
        schema_of(("d0", "dimensionless")),
        [(1.0,)],
        1.0,
        4,
        [Scene(schema_of(("d0", "dimensionless")), (0.0,))],
    )
    assert is_deterministic(AbstractScenario(TrueFormula(), (), single))
    assert not is_deterministic(binary_scenarios(4))


def test_planar_instance_follows_reach_formula():
    A = AbstractScenario(reach_or_stop_formula(), (), planar_instance())
    from scenkit.fixtures import straight_drive_trajectory

    assert monitor_word(straight_drive_trajectory(), A) is Verdict.ACCEPTED


# --- canonical order against a brute-force reference ---------------------------------


def _reference_order(inst, paths):
    """Full-path keyed dedupe and sort: the order the walk must produce."""
    seen = {}
    for p in paths:
        seen[tuple(s.values for s in p)] = p
    return [(inst.grid(len(seen[k])), k) for k in sorted(seen)]


def _all_extensions(inst, prefix, steps):
    """Every successor path of ``steps`` more scenes, in successor order."""
    if steps == 0:
        return [prefix]
    out = []
    for values in inst.successors(prefix):
        out.extend(_all_extensions(inst, prefix + (Scene(inst.schema, values),), steps - 1))
    return out


def _survives(A, path, start):
    """No prefix of path longer than ``start`` samples is already FALSE."""
    conj, inst = A.conjoined(), A.instance
    return all(
        evaluate3(conj, path[:i], inst.horizon) is not Verdict3.FALSE
        for i in range(start + 1, len(path) + 1)
    )


def _keys_of(trajs):
    return [(t.grid, t.sort_key()) for t in trajs]


def _formulas(dims):
    atoms = st.builds(
        lambda name, lo, width: Atom(ScenePredicate(((name, float(lo), float(lo + width)),))),
        st.sampled_from(dims),
        st.integers(-4, 3),
        st.integers(0, 4),
    )
    within = st.sampled_from([None, 1, 2])
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            st.builds(Always, sub, within),
            st.builds(Eventually, sub, within),
            st.builds(Next, sub),
            st.builds(And, sub, sub),
        ),
        max_leaves=4,
    )


@st.composite
def small_step_scenarios(draw):
    k = draw(st.integers(1, 2))
    schema = schema_of(*[(f"d{i}", "dimensionless") for i in range(k)])
    vec = st.tuples(*[st.integers(-2, 2).map(float)] * k)
    deltas = draw(st.lists(vec, min_size=1, max_size=4))
    if draw(st.booleans()):
        deltas.append(deltas[0])
    if draw(st.booleans()):
        deltas.sort(reverse=True)
    else:
        deltas = draw(st.permutations(deltas))
    starts = [Scene(schema, v) for v in draw(st.lists(vec, min_size=1, max_size=3))]
    inst = delta_step_instance(schema, deltas, 1.0, draw(st.integers(0, 4)), starts)
    return AbstractScenario(draw(_formulas(schema.names)), (), inst)


@given(small_step_scenarios())
@settings(max_examples=150, deadline=None)
def test_enumeration_matches_brute_force_in_order(A):
    inst = A.instance
    paths = [
        p
        for s in inst.initial_scenes
        for p in _all_extensions(inst, (s,), inst.horizon)
        if _survives(A, p, 0)
        and evaluate3(A.conjoined(), p, inst.horizon) is Verdict3.TRUE
    ]
    assert _keys_of(enumerate_scenarios(A)) == _reference_order(inst, paths)


@given(small_step_scenarios(), st.data())
@settings(max_examples=150, deadline=None)
def test_expand_matches_brute_force_in_order(A, data):
    inst = A.instance
    prefix = (data.draw(st.sampled_from(inst.initial_scenes)),)
    for _ in range(data.draw(st.integers(0, inst.horizon))):
        prefix += (Scene(inst.schema, data.draw(st.sampled_from(inst.successors(prefix)))),)
    steps = data.draw(st.integers(0, inst.horizon - (len(prefix) - 1)))
    c = Trajectory(inst.schema, inst.grid(len(prefix)), prefix)
    paths = [p for p in _all_extensions(inst, prefix, steps) if _survives(A, p, len(prefix))]
    assert _keys_of(expand(A, c, steps)) == _reference_order(inst, paths)


def test_default_admission_matches_successors_up_to_scene_tol():
    schema = schema_of(("d", "dimensionless"))
    base = delta_step_instance(schema, [(1.0,), (-1.0,)], 1.0, 3, [Scene(schema, (0.0,))])
    inst = dataclasses.replace(base, scene_tol=1e-6)
    start = (Scene(schema, (0.0,)),)
    assert inst.allows_step(start, Scene(schema, (1.0,)))
    assert inst.allows_step(start, Scene(schema, (1.0 + 1e-7,)))
    assert not inst.allows_step(start, Scene(schema, (1.0 + 1e-5,)))
    assert not base.allows_step(start, Scene(schema, (1.0 + 1e-7,)))

    def word(*values):
        return Trajectory(schema, TimeGrid(1.0, 4), tuple(Scene(schema, (v,)) for v in values))

    A = AbstractScenario(TrueFormula(), (), inst)
    assert monitor_word(word(0.0, 1.0 + 1e-7, 2.0, 1.0), A) is Verdict.ACCEPTED
    assert monitor_word(word(0.0, 1.0 + 1e-5, 2.0, 1.0), A) is Verdict.REJECTED

# --- one start set: the word problem agrees with enumeration ------------------------


@given(worlds_and_words(_formulas))
@settings(max_examples=300, deadline=None)
def test_word_problem_accepts_exactly_the_enumerated_scenarios(case):
    A, word = case
    members = {t.sort_key() for t in enumerate_scenarios(A)}
    assert (monitor_word(word, A) is Verdict.ACCEPTED) == (word.sort_key() in members)


def test_quantized_word_off_the_start_set_is_rejected():
    origin = Scene(PLANE, (0.0, 0.0, 0.0, 0.0))
    inst = quantized_motion_instance(PLANE, (0.0,), 1.0, 2, probe_scenes=(origin,))
    A = AbstractScenario(TrueFormula(), (), inst)
    held = Trajectory(PLANE, inst.grid(3), (Scene(PLANE, (1.0, 0.0, 0.0, 0.0)),) * 3)
    report = monitor_word_report(held, A)
    assert report == WordReport(Verdict.REJECTED, 0, "starting scene not admissible")
    assert [t.samples for t in enumerate_scenarios(A)] == [(origin,) * 3]
    # Starts match up to the instance's scene_tol, as steps do.
    assert inst.allows_initial(Scene(PLANE, (1e-7, 0.0, 0.0, 0.0)))
    assert not inst.allows_initial(Scene(PLANE, (1e-5, 0.0, 0.0, 0.0)))


def test_check_axioms_needs_a_finite_start_set():
    text = (ASSETS / "straight_drive.scn").read_text(encoding="utf-8")
    dsl_inst = dsl.load(text).abstracts["reach"].instance
    rural_inst = rural_formula(RuralConfig(n=1, m=1)).instance
    for inst in (dsl_inst, rural_inst):
        assert inst.initial_scenes is None
        with pytest.raises(RangeError, match=re.escape(repr(inst.id))):
            check_axioms(inst, [TrueFormula()], probes=1)


def test_expand_refuses_box_worlds():
    # Box worlds admit steps by ``allows`` and carry no successors.
    text = (ASSETS / "straight_drive.scn").read_text(encoding="utf-8")
    dsl_inst = dsl.load(text).abstracts["reach"].instance
    rural_inst = rural_formula(RuralConfig(n=1, m=1)).instance
    for inst in (dsl_inst, rural_inst):
        assert inst.successors is None and inst.allows is not None
        start = Scene(inst.schema, (0.0,) * inst.schema.k)
        c = Trajectory(inst.schema, inst.grid(1), (start,))
        A = AbstractScenario(TrueFormula(), (), inst)
        assert expand(A, c, 0) == (c,)
        with pytest.raises(ComplexityError, match=re.escape(repr(inst.id))):
            expand(A, c, 1)


_BOX_WALKS = {
    "enumerate_scenarios": lambda A: enumerate_scenarios(A),
    "count_scenarios": lambda A: count_scenarios(A),
    "uniform-leaf": lambda A: sample_abstract(A, 2, "uniform-leaf", 0),
    "uniform-branch": lambda A: sample_abstract(A, 2, "uniform-branch", 0),
    "rejection": lambda A: sample_abstract(A, 2, "rejection", 0),
    "check_axioms": lambda A: check_axioms(A.instance, (A.constraints,), 5),
    "is_deterministic": lambda A: is_deterministic(A),
}


@pytest.mark.parametrize("walk", sorted(_BOX_WALKS))
def test_walks_refuse_box_worlds_with_finite_starts(walk, line):
    # A finite start set gets a box world past the start check; the first
    # successor query is then refused, not called on None.
    inst = ScenarioLogicInstance(
        "box", line, 1.0, 2, (Scene(line, (0.0,)),), None, allows=box_step([(-1, 1)])
    )
    with pytest.raises(ComplexityError, match=re.escape(repr(inst.id))):
        _BOX_WALKS[walk](AbstractScenario(TrueFormula(), (), inst))


def test_horizon_zero_box_world_enumerates_its_starts(line):
    starts = (Scene(line, (0.0,)), Scene(line, (1.0,)))
    inst = ScenarioLogicInstance("box", line, 1.0, 0, starts, None, allows=box_step([(-1, 1)]))
    leaves = enumerate_scenarios(AbstractScenario(TrueFormula(), (), inst))
    assert [t.samples for t in leaves] == [(s,) for s in starts]
