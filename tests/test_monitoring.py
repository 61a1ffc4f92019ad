import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenkit import dsl, formulas, logic, monitoring
from scenkit.core import Scene, Trajectory, prefix, schema_of
from scenkit.errors import HorizonError, LengthError, SchemaError
from scenkit.formulas import (
    Always,
    And,
    Atom,
    Eventually,
    FalseFormula,
    Next,
    Or,
    ScenePredicate,
    TrueFormula,
    Verdict3,
    evaluate3,
)
from scenkit.fixtures import (
    reach_or_stop_scenario,
    stop_at_origin_trajectory,
    straight_drive_trajectory,
    wrong_start_trajectory,
)
from scenkit.logic import (
    AbstractScenario,
    ScenarioLogicInstance,
    binary_branching,
    binary_scenarios,
    box_step,
    count_scenarios,
    enumerate_scenarios,
    sample_abstract,
)
from scenkit.monitoring import (
    StreamMonitor,
    Verdict,
    WordReport,
    monitor_prefix,
    monitor_stream,
    monitor_word,
    monitor_word_report,
)

from conftest import (
    every_node_formulas,
    random_step_scenario,
    small_instances,
    with_dead_ends,
    worlds_and_words,
)


def bit_prefix(instance, bits):
    samples = tuple(Scene(instance.schema, (float(b),)) for b in bits)
    return Trajectory(instance.schema, instance.grid(len(samples)), samples)


# --- the word problem -------------------------------------------------------------


def test_reach_scenario_word_verdicts():
    A = reach_or_stop_scenario()
    assert monitor_word(straight_drive_trajectory(), A) is Verdict.ACCEPTED
    assert monitor_word(stop_at_origin_trajectory(), A) is Verdict.ACCEPTED
    assert monitor_word(wrong_start_trajectory(), A) is Verdict.REJECTED


def test_word_monitoring_builds_no_scene(monkeypatch):
    # Each step is admitted by comparing its values with the successors'
    # value tuples, so no candidate becomes a Scene.
    A = reach_or_stop_scenario()
    words = (stop_at_origin_trajectory(), straight_drive_trajectory())
    built = []
    post_init = Scene.__post_init__
    monkeypatch.setattr(Scene, "__post_init__", lambda self: built.append(self) or post_init(self))
    for word in words:
        assert monitor_word(word, A) is Verdict.ACCEPTED
    assert built == []


def test_word_admission_measures_few_distances(monkeypatch):
    # The quantized accelerations put all but one successor 0.2 m/s away
    # in a velocity, far past scene_tol, so one coordinate rules them out
    # unmeasured. Measuring every candidate not equal to the scene took
    # 264 distances on the stop word and 710 on the straight one.
    calls = []
    distance = formulas._values_distance
    monkeypatch.setattr(formulas, "_values_distance", lambda a, b: calls.append(b) or distance(a, b))
    A = reach_or_stop_scenario()
    assert monitor_word(stop_at_origin_trajectory(), A) is Verdict.ACCEPTED
    assert len(calls) <= 2
    calls.clear()
    assert monitor_word(straight_drive_trajectory(), A) is Verdict.ACCEPTED
    assert len(calls) <= 100


def _measuring_every_candidate(values, candidates, tol):
    """The value matcher without the one-coordinate rejection: every
    candidate that is not an equal tuple is measured."""
    if values in candidates:
        return True
    if tol <= 0.0:
        return False
    for c in candidates:
        d = formulas._values_distance(values, c)
        if d <= tol and len(c) == len(values) and (d < math.inf or all(map(math.isfinite, c))):
            return True
    return False


def _nudged(word, by, coordinate):
    """The word with coordinate ``coordinate(i)`` of each scene i moved by
    ``by``; a scene with coordinate None stays."""
    samples = []
    for i, s in enumerate(word.samples):
        values = list(s.values)
        if coordinate(i) is not None:
            values[coordinate(i)] += by
        samples.append(Scene(s.schema, tuple(values)))
    return Trajectory(word.schema, word.grid, tuple(samples))


def _monitored(word, A):
    """The word's verdict and violation index, its prefix verdicts at
    several lengths, and a stream monitor's verdict after every step."""
    report = monitor_word_report(word, A)
    prefixes = [
        monitor_prefix(Trajectory(word.schema, A.instance.grid(n), word.samples[:n]), A)
        for n in (1, 2, 3, 50, 131, 132, 200, 201)
    ]
    stream = StreamMonitor(A)
    steps = [stream.step(s) for s in word.samples]
    return report.verdict, report.violation_index, prefixes, steps


@pytest.mark.parametrize("k", (0, 0.5, 1, 1.5, 2, 2.5, 3))
def test_one_coordinate_rejection_decides_as_measuring_every_candidate(monkeypatch, k):
    # Scenes moved by k * snap_tol: near scene_tol, the admission of a
    # step and the match of a scene constant turn on the measured
    # distance. Moving every scene, each in another coordinate, moves
    # every step; moving x from scene 100 on moves one step and the
    # scenes the targets are matched against.
    A = reach_or_stop_scenario()
    for word in (stop_at_origin_trajectory(), straight_drive_trajectory(), wrong_start_trajectory()):
        for coordinate in (lambda i: i % 4, lambda i: 0 if i >= 100 else None):
            nudged = _nudged(word, k * A.instance.scene_tol, coordinate)
            got = _monitored(nudged, A)
            with monkeypatch.context() as m:
                m.setattr(formulas, "_values_match", _measuring_every_candidate)
                m.setattr(logic, "_values_match", _measuring_every_candidate)
                assert _monitored(nudged, A) == got


@pytest.mark.xfail(
    strict=True,
    reason="FALSE is revocable under scene_tol > 0: admission measures the observed "
    "scene, the search walks the successors' exact tuples (ROADMAP item 13)",
)
def test_a_false_prefix_has_no_accepted_word_under_a_tolerance():
    # The straight drive with x moved by one scene_tol from scene 100 on.
    A = reach_or_stop_scenario()
    word = _nudged(straight_drive_trajectory(), A.instance.scene_tol, lambda i: 0 if i >= 100 else None)
    verdicts = [
        monitor_prefix(Trajectory(word.schema, A.instance.grid(n), word.samples[:n]), A)
        for n in (198, 200)
    ]
    if monitor_word_report(word, A).verdict is Verdict.ACCEPTED:
        assert Verdict3.FALSE not in verdicts


def test_word_requires_full_length():
    A = reach_or_stop_scenario()
    with pytest.raises(LengthError):
        monitor_word(prefix(straight_drive_trajectory(), 10.0), A)


def test_word_report_flags_bad_transition():
    A = binary_scenarios(4)
    c = bit_prefix(A.instance, [0, 1, 0, 1])
    bent = Trajectory(
        c.schema,
        c.grid,
        c.samples[:2] + (Scene(c.schema, (7.0,)),) + c.samples[3:],
    )
    report = monitor_word_report(bent, A)
    assert report.verdict is Verdict.REJECTED
    assert report.violation_index == 2


def agreement_formulas(schema):
    bit = schema.names[0]
    return [
        TrueFormula(),
        Atom(ScenePredicate(((bit, 0.0, 0.0),))),
        Eventually(Atom(ScenePredicate(((bit, 1.0, 1.0),)))),
        And(
            Atom(ScenePredicate(((bit, 0.0, 0.0),))),
            Eventually(Atom(ScenePredicate(((bit, 1.0, 1.0),))), within=2),
        ),
    ]


def test_word_agrees_with_enumeration_exhaustively_on_binary():
    checks = 0
    for n in range(1, 9):
        inst = binary_branching(n)
        universe = enumerate_scenarios(AbstractScenario(TrueFormula(), (), inst))
        assert len(universe) == 2**n
        for formula in agreement_formulas(inst.schema):
            A = AbstractScenario(formula, (), inst)
            members = {t.sort_key() for t in enumerate_scenarios(A)}
            for c in universe:
                accepted = monitor_word(c, A) is Verdict.ACCEPTED
                assert accepted == (c.sort_key() in members)
                checks += 1
    assert checks >= 510


def test_word_agrees_with_enumeration_on_random_step_fixtures():
    rng = random.Random(0)
    for seed in range(200):
        A = random_step_scenario(seed)
        universe = enumerate_scenarios(AbstractScenario(TrueFormula(), (), A.instance))
        members = {t.sort_key() for t in enumerate_scenarios(A)}
        picks = [universe[rng.randrange(len(universe))] for _ in range(3)]
        for c in picks:
            assert (monitor_word(c, A) is Verdict.ACCEPTED) == (
                c.sort_key() in members
            )
        # A transition far outside the delta set must be rejected and is
        # never enumerable.
        c = picks[0]
        k = rng.randrange(1, len(c.samples))
        bent = Trajectory(
            c.schema,
            c.grid,
            c.samples[:k]
            + (Scene(c.schema, tuple(v + 50.0 for v in c.samples[k].values)),)
            + c.samples[k + 1 :],
        )
        assert monitor_word(bent, A) is Verdict.REJECTED
        assert bent.sort_key() not in members


# --- the prefix problem --------------------------------------------------------------


def test_empty_prefix_of_unconstrained_binary_is_true():
    assert monitor_prefix(None, binary_scenarios(3)) is Verdict3.TRUE


def test_prefix_violating_scene_constraint_is_false():
    inst = binary_branching(3)
    A = AbstractScenario(Atom(ScenePredicate((("bit", 0.0, 0.0),))), (), inst)
    assert monitor_prefix(bit_prefix(inst, [1]), A) is Verdict3.FALSE


def test_reach_prefix_is_unknown_with_witnesses_both_ways():
    A = reach_or_stop_scenario()
    half = prefix(straight_drive_trajectory(), 10.0)
    assert monitor_prefix(half, A) is Verdict3.UNKNOWN
    # One extension accepts (the straight continuation reaches the target),
    # one rejects (braking to a stop far from both target scenes).
    accepting = straight_drive_trajectory()
    assert monitor_word(accepting, A) is Verdict.ACCEPTED
    from scenkit.fixtures import PLANAR_HORIZON, _planar_action_path

    actions = [(0.0, 0.0)] * 100 + [(-2.0, 2.0)] * 25 + [(0.0, 0.0)] * 75
    rejecting = _planar_action_path(half.samples[0], actions[:PLANAR_HORIZON])
    from scenkit.core import trajectory_distance

    shared = prefix(rejecting, 10.0)
    assert trajectory_distance(shared, half) <= 1e-6
    assert monitor_word(rejecting, A) is Verdict.REJECTED


def test_prefix_all_extensions_rejected_is_false():
    inst = binary_branching(3)
    # Requires a 1 in the final position while the prefix pinned 0s and the
    # constraint forbids 1s: expansion survives but no leaf is accepted.
    A = AbstractScenario(
        Eventually(Atom(ScenePredicate((("bit", 2.0, 3.0),)))), (), inst
    )
    assert monitor_prefix(bit_prefix(inst, [0, 0]), A) is Verdict3.FALSE


def test_dead_end_world_gets_no_true_verdict():
    # One start and no successors: no full-length path exists, so no
    # prefix can be TRUE, although the formula is.
    schema = binary_branching(1).schema
    start = Scene(schema, (0.0,))
    inst = ScenarioLogicInstance(
        id="dead-end", schema=schema, step=1.0, horizon=2,
        initial_scenes=(start,), successors=lambda p: (),
    )
    A = AbstractScenario(TrueFormula(), (), inst)
    assert enumerate_scenarios(A) == ()
    assert monitor_prefix(None, A) is Verdict3.FALSE
    assert monitor_prefix(bit_prefix(inst, [0]), A) is Verdict3.FALSE


def bit_world(edges):
    """A one-bit world from 0 with horizon 2 and the given successor map."""
    schema = binary_branching(1).schema
    return ScenarioLogicInstance(
        id="bits", schema=schema, step=1.0, horizon=2,
        initial_scenes=(Scene(schema, (0.0,)),),
        successors=lambda p: tuple((float(v),) for v in edges[p[-1].values[0]]),
    )


def test_true_prefix_backtracks_past_a_dead_end():
    # The search for a completion below (0) meets the dead end 2 before
    # the completion through 1.
    inst = bit_world({0: (2, 1), 1: (3,), 2: (), 3: ()})
    A = AbstractScenario(TrueFormula(), (), inst)
    assert monitor_prefix(bit_prefix(inst, [0]), A) is Verdict3.TRUE
    assert monitor_prefix(bit_prefix(inst, [0, 2]), A) is Verdict3.FALSE


def test_settled_child_without_completion_is_no_acceptance():
    # The one child of the start satisfies the formula, but no path
    # reaches full length.
    inst = bit_world({0: (1,), 1: ()})
    A = AbstractScenario(Eventually(Atom(ScenePredicate((("bit", 1.0, 1.0),)))), (), inst)
    assert count_scenarios(A) == 0
    assert monitor_prefix(None, A) is Verdict3.FALSE
    assert monitor_prefix(bit_prefix(inst, [0]), A) is Verdict3.FALSE
    assert StreamMonitor(A).verdict is Verdict3.FALSE


def test_search_past_the_node_budget_is_unknown(monkeypatch):
    # The start has one successor, so the fan-out guess lets the search
    # run; below it 2**17 completions, all accepted, need more nodes
    # than the budget.
    schema = binary_branching(1).schema
    zero, one = Scene(schema, (0.0,)), Scene(schema, (1.0,))
    inst = ScenarioLogicInstance(
        id="late-branching", schema=schema, step=1.0, horizon=18,
        initial_scenes=(zero,),
        successors=lambda p: (zero.values,) if len(p) == 1 else (zero.values, one.values),
    )
    A = AbstractScenario(Always(Atom(ScenePredicate((("bit", 0.0, 1.0),)))), (), inst)
    assert monitor_prefix(None, A) is Verdict3.UNKNOWN
    monkeypatch.setattr(monitoring, "DEFAULT_EXPLORE_BUDGET", 10**6)
    assert monitor_prefix(None, A) is Verdict3.TRUE


def completions(inst, path):
    """Every full-length path through the successors that extends ``path``."""
    if len(path) == inst.full_length():
        return [path]
    return [q for v in inst.successors(path)
            for q in completions(inst, path + (Scene(inst.schema, v),))]


def brute_force_verdict(A, path):
    """TRUE if a completion exists and all are accepted, FALSE if none is
    accepted, UNKNOWN otherwise."""
    inst = A.instance
    starts = [(s,) for s in inst.initial_scenes] if not path else [path]
    verdicts = {
        evaluate3(A.conjoined(), q, inst.horizon, scene_tol=inst.scene_tol)
        for p in starts
        for q in completions(inst, p)
    }
    if Verdict3.TRUE not in verdicts:
        return Verdict3.FALSE
    return Verdict3.TRUE if len(verdicts) == 1 else Verdict3.UNKNOWN


@given(small_instances(), st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_prefix_verdicts_match_brute_force_over_the_completions(case, boxed, data):
    inst, _ = case
    if boxed:
        inst = with_dead_ends(inst)
    A = AbstractScenario(data.draw(every_node_formulas(inst.schema)), (), inst)
    prefixes = [()]
    frontier = [(s,) for s in inst.initial_scenes]
    while frontier:
        prefixes += frontier
        frontier = [p + (Scene(inst.schema, v),) for p in frontier if len(p) < inst.full_length()
                    for v in inst.successors(p)]
    for path in prefixes:
        got = monitor_prefix(bit_prefix_like(inst, path) if path else None, A)
        want = brute_force_verdict(A, path)
        if boxed:
            # Dead ends below an undecided residual count against TRUE.
            assert got is want or got is Verdict3.UNKNOWN, path
        else:
            assert got is want, path


def test_prefix_of_invalid_path_is_false():
    A = binary_scenarios(4)
    bad = bit_prefix(A.instance, [0, 5])
    assert monitor_prefix(bad, A) is Verdict3.FALSE


def test_prefix_length_guard():
    A = binary_scenarios(3)
    with pytest.raises(LengthError):
        monitor_prefix(bit_prefix(A.instance, [0, 1, 0, 1]), A)


def walk_verdicts(A, rng):
    """Follow one random successor path, returning the verdict sequence."""
    inst = A.instance
    path = (inst.initial_scenes[rng.randrange(len(inst.initial_scenes))],)
    verdicts = [monitor_prefix(bit_prefix_like(inst, path), A)]
    while len(path) < inst.full_length():
        cands = tuple(inst.successors(path))
        path = path + (Scene(inst.schema, cands[rng.randrange(len(cands))]),)
        verdicts.append(monitor_prefix(bit_prefix_like(inst, path), A))
    return verdicts


def bit_prefix_like(inst, samples):
    return Trajectory(inst.schema, inst.grid(len(samples)), tuple(samples))


@pytest.mark.parametrize("seed", range(25))
def test_irrevocability_on_random_walks(seed):
    A = random_step_scenario(seed)
    rng = random.Random(seed * 31 + 1)
    for _ in range(8):
        verdicts = walk_verdicts(A, rng)
        for prev, cur in zip(verdicts, verdicts[1:]):
            if prev is Verdict3.FALSE:
                assert cur is Verdict3.FALSE
            if prev is Verdict3.TRUE:
                assert cur is Verdict3.TRUE
        # A full-length TRUE prefix is exactly word acceptance.
        final = verdicts[-1]
        assert final in (Verdict3.TRUE, Verdict3.FALSE)


def test_sampled_scenarios_are_accepted():
    A = binary_scenarios(4)
    for t in sample_abstract(A, 50, "uniform-branch", rng_seed=3):
        assert monitor_word(t, A) is Verdict.ACCEPTED


# --- the stream monitor -----------------------------------------------------------------


def test_stream_matches_prefix_monitor_pointwise():
    rng = random.Random(40)
    for seed in range(20):
        A = random_step_scenario(seed)
        inst = A.instance
        path = (inst.initial_scenes[0],)
        while len(path) < inst.full_length():
            cands = tuple(inst.successors(path))
            path = path + (Scene(inst.schema, cands[rng.randrange(len(cands))]),)
        mon = monitor_stream(A)
        for i, scene in enumerate(path):
            got = mon.step(scene)
            want = monitor_prefix(bit_prefix_like(inst, path[: i + 1]), A)
            assert got is want, (seed, i, got, want)


def test_stream_false_is_terminal():
    inst = binary_branching(4)
    A = AbstractScenario(Atom(ScenePredicate((("bit", 0.0, 0.0),))), (), inst)
    mon = monitor_stream(A)
    one = Scene(inst.schema, (1.0,))
    zero = Scene(inst.schema, (0.0,))
    assert mon.step(one) is Verdict3.FALSE
    for scene in (zero, zero, one):
        assert mon.step(scene) is Verdict3.FALSE


def test_stream_true_is_terminal_and_matches_word():
    A = reach_or_stop_scenario()
    drive = straight_drive_trajectory()
    mon = monitor_stream(A)
    last = None
    for scene in drive.samples:
        last = mon.step(scene)
    assert last is Verdict3.TRUE
    assert monitor_word(drive, A) is Verdict.ACCEPTED


def test_stream_horizon_guard():
    A = binary_scenarios(2)
    mon = StreamMonitor(A)
    zero = Scene(A.instance.schema, (0.0,))
    mon.step(zero)
    mon.step(zero)
    with pytest.raises(HorizonError):
        mon.step(zero)


def test_stream_refuses_a_scene_of_another_schema_and_stays_as_it_was():
    inst = binary_branching(3)
    A = AbstractScenario(Eventually(Atom(ScenePredicate((("bit", 1.0, 1.0),)))), (), inst)
    zero, one = Scene(inst.schema, (0.0,)), Scene(inst.schema, (1.0,))
    other = Scene(schema_of(("bit", "m")), (0.0,))
    mon = StreamMonitor(A)
    assert mon.step(zero) is Verdict3.UNKNOWN
    with pytest.raises(SchemaError):
        mon.step(other)
    assert (mon.fed, mon.verdict) == (1, Verdict3.UNKNOWN)
    assert mon.step(one) is Verdict3.TRUE
    # A latched verdict refuses it too.
    with pytest.raises(SchemaError):
        mon.step(other)
    assert (mon.fed, mon.verdict) == (2, Verdict3.TRUE)
    assert mon.step(zero) is Verdict3.TRUE
    assert mon.fed == 3


def test_stream_step_that_raises_leaves_the_monitor_as_it_was():
    # Below a 1 the world yields a NaN, which the search builds as a
    # child once the tree below the prefix is small enough to search: at
    # the fifth zero, 16 steps before the horizon.
    schema = binary_branching(1).schema
    zero = Scene(schema, (0.0,))
    inst = ScenarioLogicInstance(
        id="nan-below-one", schema=schema, step=1.0, horizon=20, initial_scenes=(zero,),
        successors=lambda p: ((0.0,), (1.0,)) if p[-1].values[0] == 0.0 else ((math.nan,),),
    )
    A = AbstractScenario(Eventually(Atom(ScenePredicate((("bit", 2.0, 2.0),)))), (), inst)
    mon = StreamMonitor(A)
    while True:
        fed = mon.fed
        try:
            assert mon.step(zero) is Verdict3.UNKNOWN
        except SchemaError as exc:
            assert "non-finite value nan" in str(exc)
            break
    assert fed == 4
    assert (mon.fed, mon.verdict) == (fed, Verdict3.UNKNOWN)


# --- worlds the successors do not cover, and first violations -----------------------


ASSETS = Path(__file__).resolve().parents[1] / "src" / "scenkit" / "assets"


def dsl_reach():
    spec = dsl.load((ASSETS / "straight_drive.scn").read_text(encoding="utf-8"))
    return spec.abstracts["reach"]


def test_dsl_reach_prefixes_of_an_accepted_drive_are_never_false():
    # The DSL box world admits any step inside its box and has no
    # successors to search, so no prefix of an accepted trace may be
    # declared FALSE.
    A = dsl_reach()
    drive = straight_drive_trajectory()
    for k in range(1, drive.grid.count):
        verdict = monitor_prefix(bit_prefix_like(A.instance, drive.samples[:k]), A)
        assert verdict is not Verdict3.FALSE, k
    for k in (199, 200):
        assert monitor_prefix(bit_prefix_like(A.instance, drive.samples[:k]), A) is Verdict3.UNKNOWN
    assert monitor_word(drive, A) is Verdict.ACCEPTED


def linear_first_false(A, samples):
    """Reference: scan prefixes in order for the first FALSE formula verdict."""
    inst = A.instance
    conj = A.conjoined()
    for i in range(len(samples)):
        if evaluate3(conj, samples[: i + 1], inst.horizon, scene_tol=inst.scene_tol) is Verdict3.FALSE:
            return i
    return None


def test_violation_index_is_the_first_false_prefix_on_binary_words():
    rng = random.Random(5)
    checks = 0
    for n in range(1, 9):
        inst = binary_branching(n)
        for formula in agreement_formulas(inst.schema):
            A = AbstractScenario(formula, (), inst)
            for _ in range(6):
                word = bit_prefix(inst, [rng.randint(0, 1) for _ in range(n)])
                report = monitor_word_report(word, A)
                if report.verdict is Verdict.ACCEPTED:
                    assert report.violation_index is None
                else:
                    assert report.violation_index == linear_first_false(A, word.samples)
                    checks += 1
    assert checks >= 50


def test_violation_index_is_the_first_false_prefix_on_step_words():
    rng = random.Random(6)
    checks = 0
    for seed in range(60):
        A = random_step_scenario(seed)
        inst = A.instance
        for _ in range(4):
            path = (inst.initial_scenes[rng.randrange(len(inst.initial_scenes))],)
            while len(path) < inst.full_length():
                cands = tuple(inst.successors(path))
                path = path + (Scene(inst.schema, cands[rng.randrange(len(cands))]),)
            report = monitor_word_report(bit_prefix_like(inst, path), A)
            if report.verdict is Verdict.REJECTED:
                assert report.violation_index == linear_first_false(A, path)
                checks += 1
    assert checks >= 20


def stream_first_false(A, samples):
    """Reference: replay a stream monitor until its verdict turns FALSE."""
    mon = StreamMonitor(A)
    for i, scene in enumerate(samples):
        if mon.step(scene) is Verdict3.FALSE:
            return i
    return None


def test_dsl_violation_index_matches_a_stream_replay():
    A = dsl_reach()
    drive = straight_drive_trajectory()
    start = drive.samples[0]
    words = [wrong_start_trajectory(), stop_at_origin_trajectory(), drive]
    words.append(Trajectory(drive.schema, drive.grid, (start,) * drive.grid.count))
    # Moves of 1e-3 and 0.5 stay inside the step box (x may move by 3),
    # moves of 5 leave it.
    for i, dx in [(0, 1e-3), (0, 5.0), (1, 5.0), (100, 0.5), (100, 5.0), (200, 1e-3), (200, 5.0)]:
        samples = list(drive.samples)
        samples[i] = samples[i].replace(x=samples[i]["x"] + dx)
        words.append(Trajectory(drive.schema, drive.grid, tuple(samples)))
    rejected = 0
    for word in words:
        report = monitor_word_report(word, A)
        assert report.violation_index == stream_first_false(A, word.samples)
        rejected += report.verdict is Verdict.REJECTED
    assert rejected == 8
    hold = monitor_word_report(words[3], A)
    assert hold.violation_index == drive.grid.count - 1


# --- one forward pass against the reference procedures ------------------------------


def reference_word_report(c, A):
    """The word report as three procedures: an admission loop, one
    evaluate3 verdict on the admissible part, and a bisection of further
    evaluate3 verdicts for the shortest FALSE prefix."""
    inst, samples, conj = A.instance, c.samples, A.conjoined()

    def verdict(p):
        return evaluate3(conj, p, inst.horizon, scene_tol=inst.scene_tol)

    bad = None
    if not inst.allows_initial(samples[0]):
        bad = 0
    else:
        for i in range(1, len(samples)):
            if not inst.allows_step(samples[:i], samples[i]):
                bad = i
                break
    seen = samples if bad is None else samples[:bad]
    if verdict(seen) is Verdict3.FALSE:
        # The verdict is monotone in the prefix.
        lo, hi = 1, len(seen)
        while lo < hi:
            mid = (lo + hi) // 2
            if verdict(seen[:mid]) is Verdict3.FALSE:
                hi = mid
            else:
                lo = mid + 1
        return WordReport(Verdict.REJECTED, lo - 1, "constraint formula not satisfied")
    if bad is not None:
        what = f"transition at step {bad}" if bad else "starting scene"
        return WordReport(Verdict.REJECTED, bad, f"{what} not admissible")
    return WordReport(Verdict.ACCEPTED, None, "accepted")


def formulas_over(dims):
    """Every node type, windows of 1-2 or none; small horizons put Next at
    and past the horizon."""
    atoms = st.builds(
        lambda name, lo, width: Atom(ScenePredicate(((name, float(lo), float(lo + width)),))),
        st.sampled_from(dims),
        st.integers(-3, 2),
        st.integers(0, 3),
    )
    within = st.sampled_from([None, 1, 2])
    return st.recursive(
        st.one_of(st.just(TrueFormula()), st.just(FalseFormula()), atoms),
        lambda sub: st.one_of(
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
            st.builds(Next, sub),
            st.builds(Eventually, sub, within),
            st.builds(Always, sub, within),
        ),
        max_leaves=6,
    )


@given(worlds_and_words(formulas_over))
@settings(max_examples=400, deadline=None)
def test_word_report_equals_the_reference_procedures(case):
    A, word = case
    assert monitor_word_report(word, A) == reference_word_report(word, A)


@st.composite
def box_worlds_and_words(draw):
    """A box world (``box_step`` admission) with any start or a finite
    start set, a formula, and an admissible full-length word."""
    k = draw(st.integers(1, 2))
    schema = schema_of(*[(f"d{i}", "dimensionless") for i in range(k)])
    lows = draw(st.lists(st.integers(-2, 1), min_size=k, max_size=k))
    bounds = [(lo, lo + draw(st.integers(0, 2))) for lo in lows]
    vec = st.tuples(*[st.integers(-2, 2).map(float)] * k)
    starts = None
    if draw(st.booleans()):
        starts = tuple(Scene(schema, v) for v in draw(st.lists(vec, min_size=1, max_size=2)))
    horizon = draw(st.integers(0, 4))
    inst = ScenarioLogicInstance(
        id="box", schema=schema, step=1.0, horizon=horizon, initial_scenes=starts,
        successors=None, allows=box_step(bounds),
    )
    first = draw(st.sampled_from(starts)) if starts else Scene(schema, draw(vec))
    path = [first]
    for _ in range(horizon):
        moves = [draw(st.integers(lo, hi)) for lo, hi in bounds]
        path.append(Scene(schema, tuple(v + d for v, d in zip(path[-1].values, moves))))
    A = AbstractScenario(draw(formulas_over(schema.names)), (), inst)
    return A, tuple(path)


@given(box_worlds_and_words())
@settings(max_examples=300, deadline=None)
def test_box_world_prefix_verdict_is_the_formulas_own(case):
    # Box worlds are not explored: every prefix of an admissible word
    # gets the formula's own three-valued verdict.
    A, path = case
    inst = A.instance
    for k in range(len(path) + 1):
        c = bit_prefix_like(inst, path[:k]) if k else None
        want = evaluate3(A.conjoined(), path[:k], inst.horizon, scene_tol=inst.scene_tol)
        assert monitor_prefix(c, A) is want, k


# --- deep formulas through the public API ----------------------------------------------

DEEP = 3_000


def deep_eventually():
    f = Atom(ScenePredicate((("bit", 0.0, 0.0),)))
    for _ in range(DEEP):
        f = Eventually(f)
    return f


def deep_and_or_chain():
    f = Atom(ScenePredicate((("bit", 0.0, 0.0),)))
    five = Atom(ScenePredicate((("bit", 5.0, 5.0),)))
    for i in range(DEEP):
        f = And(f, TrueFormula()) if i % 2 == 0 else Or(f, five)
    return f


@pytest.mark.parametrize("build", [deep_eventually, deep_and_or_chain])
def test_deep_formulas_decide_without_recursion(build):
    inst = binary_branching(4)
    A = AbstractScenario(build(), (), inst)
    assert monitor_prefix(bit_prefix(inst, [0]), A) is Verdict3.TRUE
    assert monitor_prefix(bit_prefix(inst, [0, 0]), A) is Verdict3.TRUE
    report = monitor_word_report(bit_prefix(inst, [0, 0, 0, 0]), A)
    assert report == WordReport(Verdict.ACCEPTED, None, "accepted")
