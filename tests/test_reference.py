"""Differential checks against values saved from the reference implementation.

Scene validation, family evaluation and the enumeration walk have fast
paths, and monitoring has been simplified; these tests pin what the
straightforward code produced, so a change that moves a sample value, an
order, a verdict or an error message fails here.
"""

import hashlib
import math
import struct
from pathlib import Path

import pytest

from scenkit import dsl
from scenkit.core import Scene, Trajectory, prefix, schema_of
from scenkit.errors import ScenarioError, SchemaError
from scenkit.fixtures import (
    reach_or_stop_scenario,
    stop_at_origin_trajectory,
    straight_drive_trajectory,
    wrong_start_trajectory,
)
from scenkit.formulas import Always, And, Eventually, TrueFormula, pred
from scenkit.logic import (
    AbstractScenario,
    binary_scenarios,
    delta_step_instance,
    encode_logical,
    enumerate_scenarios,
    sample_abstract,
)
from scenkit.logical import sample
from scenkit.monitoring import monitor_prefix, monitor_word_report
from scenkit.rural import RuralConfig, enumerate_choices, synthesize

from conftest import random_step_scenario

ASSETS = Path(__file__).resolve().parents[1] / "src" / "scenkit" / "assets"


def _digest(trajectories) -> str:
    """SHA-256 over the little-endian doubles of every sample, in order."""
    h = hashlib.sha256()
    for traj in trajectories:
        for s in traj.samples:
            h.update(struct.pack(f"<{len(s.values)}d", *s.values))
    return h.hexdigest()


def _logical_draws(asset: str, name: str, count: int, seed: int):
    spec = dsl.load((ASSETS / asset).read_text(encoding="utf-8"))
    draws = sample(spec.logicals[name], spec.distributions[name], count, seed)
    return [traj for _, traj in draws]


def test_rural_synthesis_matches_reference_digest():
    cfg = RuralConfig(n=3, m=2)
    choices = enumerate_choices(3, 2)[::9]
    assert len(choices) == 40
    assert _digest(synthesize(c, cfg) for c in choices) == (
        "2837678aadfd87d7577160e7eab7c3b8a01d05ef5416b8d59d3237e6b275f2f3"
    )


@pytest.mark.parametrize(
    "asset, name, count, seed, digest",
    [
        (
            "slope_drive.scn", "slope_drive", 50, 7,
            "daeb5228a677828acaa8392586d9f14af0e2c9298d6efb43247eb16c695d26cb",
        ),
        (
            "straight_drive.scn", "speed_choices", 30, 3,
            "b58e49dca05d5c1994b7b68e8ef9743fc2bc41fb052b00b5cbde82b67e6cfd2e",
        ),
    ],
)
def test_seeded_realizations_match_reference_digest(asset, name, count, seed, digest):
    assert _digest(_logical_draws(asset, name, count, seed)) == digest


MIXED = schema_of(("x", "m"), ("kind", "enum-code"), ("z", "m/s"))


@pytest.mark.parametrize(
    "values, message",
    [
        ((1.0, 2.0), "scene has 2 values, schema expects 3"),
        ((0.0, 1.0, 2.0, 3.0), "scene has 4 values, schema expects 3"),
        ((math.nan,), "scene has 1 values, schema expects 3"),
        ((math.nan, 1.0, 0.0), "non-finite value nan in dimension 'x'"),
        ((0.0, math.inf, 0.0), "non-finite value inf in dimension 'kind'"),
        ((0.0, 1.0, -math.inf), "non-finite value -inf in dimension 'z'"),
        ((0.0, 2.5, 0.0), "enum dimension 'kind' holds non-integer 2.5"),
        ((0.0, 1.5, math.nan), "enum dimension 'kind' holds non-integer 1.5"),
        ((math.inf, 1.5, 0.0), "non-finite value inf in dimension 'x'"),
    ],
)
def test_scene_error_messages_match_reference(values, message):
    with pytest.raises(SchemaError) as info:
        Scene(MIXED, values)
    assert str(info.value) == message


def test_scene_accepts_integral_enum_values():
    assert Scene(MIXED, (0.5, -3, 1)).values == (0.5, -3.0, 1.0)


def test_schema_index_on_unknown_name():
    assert [MIXED.index(n) for n in ("x", "kind", "z")] == [0, 1, 2]
    assert MIXED.has("kind") and not MIXED.has("q")
    with pytest.raises(SchemaError) as info:
        MIXED.index("q")
    assert str(info.value) == "no dimension named 'q'"


@pytest.mark.parametrize(
    "strategy, digest",
    [
        ("uniform-branch", "e9d19346970c57237f67e3de56384c8bfdab11cfa9c9a926841cce1878f3d830"),
        ("rejection", "f2f67212e14e7ca47da305139e129ef0abdd8042408592a75d1540160479ca6c"),
        ("uniform-leaf", "fd8b9d77f16bb90fcb6489d91699c71b7bc5d4b2079761bc0597737addd08663"),
    ],
)
def test_seeded_abstract_draws_match_reference_digest(strategy, digest):
    h = hashlib.sha256()
    for seed in range(20):
        try:
            draws = sample_abstract(
                random_step_scenario(seed), 6, strategy, rng_seed=seed, max_attempts=200
            )
        except ScenarioError as exc:
            h.update(f"{type(exc).__name__}: {exc}".encode())
            continue
        h.update(_digest(draws).encode())
    assert h.hexdigest() == digest


def test_binary_enumeration_matches_reference_digest():
    leaves = [t for n in range(1, 13) for t in enumerate_scenarios(binary_scenarios(n))]
    assert len(leaves) == 2**13 - 2
    assert _digest(leaves) == (
        "0eea8afd4cf6be3c64cb7aeed7e6e6567edbd3d598aa1f2b9bcd92a5d6651871"
    )


def test_walk_enumeration_matches_reference_digest():
    d0 = schema_of(("d0", "dimensionless"))
    inst = delta_step_instance(d0, [(-1.0,), (0.0,), (1.0,)], 1.0, 8, [Scene(d0, (0.0,))])
    constraint = And(Always(pred(d0=(-3.0, 3.0))), Eventually(pred(d0=(2.0, 2.0))))
    leaves = enumerate_scenarios(AbstractScenario(constraint, (), inst))
    assert len(leaves) == 2057
    assert _digest(leaves) == (
        "917ad51fd6929b369f080dfa91afaaf2eab57cade07d7e1904d5971f756285c4"
    )


def _speed_choice_words(leaves):
    """The leaves, copies with x moved by 1e-3 at one sample, and splices
    that switch from one leaf to another after k samples."""
    schema = leaves[0][0].schema
    words = list(leaves)
    for leaf in leaves:
        for i, s in enumerate(leaf):
            moved = Scene(schema, (s.values[0] + 1e-3,) + s.values[1:])
            words.append(leaf[:i] + (moved,) + leaf[i + 1:])
    for a in leaves:
        for b in leaves:
            if a is not b:
                words.extend(a[:k] + b[k:] for k in range(1, len(a)))
    return words


def test_encoded_logical_monitoring_matches_reference_digest():
    # monitor_prefix on every prefix and monitor_word_report on every word
    # of the speed_choices encoding, under formulas that settle early,
    # late or never.
    spec = dsl.load((ASSETS / "straight_drive.scn").read_text(encoding="utf-8"))
    inst = encode_logical(spec.logicals["speed_choices"])
    leaves = [t.samples for t in enumerate_scenarios(AbstractScenario(TrueFormula(), (), inst))]
    words = _speed_choice_words(leaves)
    assert len(words) == 42
    reach = Eventually(pred(x=(15.0, 100.0)))
    slow = Always(pred(vx=(0.0, 12.0)))
    formulas = [TrueFormula(), reach, slow, And(reach, slow), Always(pred(x=(-1.0, 3.0)))]
    rows = []
    for f in formulas:
        A = AbstractScenario(f, (), inst)
        rows.append("empty " + monitor_prefix(None, A).value)
        for w in words:
            rows.append("".join(
                monitor_prefix(Trajectory(inst.schema, inst.grid(k), w[:k]), A).value[0]
                for k in range(1, len(w) + 1)
            ))
            r = monitor_word_report(Trajectory(inst.schema, inst.grid(len(w)), w), A)
            rows.append(f"{r.verdict.value} {r.violation_index} {r.reason}")
    assert sum(r.startswith("accepted") for r in rows) == 30
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == (
        "8564e9d95e6bcc8dc4a51925e466b91f3c61f7160ad155c6c2e679158307f8f8"
    )


@pytest.mark.parametrize(
    "trajectory, verdicts",
    [
        (straight_drive_trajectory, "u" * 21 + "t"),
        (stop_at_origin_trajectory, "t" * 22),
        (wrong_start_trajectory, "f" * 22),
    ],
)
def test_reach_or_stop_prefix_verdicts_near_the_horizon_match_reference(trajectory, verdicts):
    # Prefixes of 180 to 201 samples, where the exploration below the
    # prefix is decisive (9 successors per scene, up to 21 steps left).
    traj = trajectory()
    A = reach_or_stop_scenario()
    got = "".join(
        monitor_prefix(prefix(traj, traj.grid.t(k - 1)), A).value[0] for k in range(180, 202)
    )
    assert got == verdicts
