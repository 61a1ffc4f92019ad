import itertools
import math
import time

import pytest

from scenkit.core import TimeGrid, Trajectory, trajectory_distance
from scenkit.dynamics import combine, evaluate, waypoint_follower, AttributeLevelScenario
from scenkit.errors import ComplexityError, RangeError, ScheduleError
from scenkit.formulas import Verdict3
from scenkit.monitoring import Verdict, monitor_prefix, monitor_word
from scenkit.rural import (
    ManeuverChoice,
    RuralConfig,
    count_lower_bound,
    enumerate_choices,
    iter_choices,
    kmh_to_ms,
    ms_to_kmh,
    rural_formula,
    rural_schema,
    suggested_grid,
    synthesize,
    weak_compositions,
)


# --- combinatorics ---------------------------------------------------------------


def test_weak_compositions_of_two_into_four_parts():
    comps = weak_compositions(2, 4)
    assert len(comps) == 10
    assert all(sum(c) == 2 and len(c) == 4 for c in comps)
    assert len(set(comps)) == 10


def test_weak_compositions_of_zero():
    assert weak_compositions(0, 5) == [(0, 0, 0, 0, 0)]


@pytest.mark.parametrize("m", range(0, 9))
@pytest.mark.parametrize("parts", range(1, 9))
def test_weak_composition_count_matches_binomial(m, parts):
    assert len(weak_compositions(m, parts)) == math.comb(m + parts - 1, parts - 1)


def _bar_placements(m, parts):
    """Weak compositions read off every placement of parts - 1 bars among
    m + parts - 1 slots, in ``itertools.combinations`` order."""
    for bars in itertools.combinations(range(m + parts - 1), parts - 1):
        edges = (-1, *bars, m + parts - 1)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


@pytest.mark.parametrize("m", range(0, 7))
@pytest.mark.parametrize("parts", range(1, 6))
def test_weak_compositions_are_in_lexicographic_order(m, parts):
    every = itertools.product(range(m + 1), repeat=parts)
    assert weak_compositions(m, parts) == [c for c in every if sum(c) == m]
    assert weak_compositions(m, parts) == list(_bar_placements(m, parts))


def test_first_choices_of_configurations_too_large_to_build():
    first = next(iter_choices(3, 10**6))
    assert first == ManeuverChoice((0, 1, 2), (0, 0, 0, 10**6), (0, 1, 2))
    # No pool of the m + 3 slots is built: that alone takes tens of
    # milliseconds at m = 10**6.
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        next(iter_choices(3, 10**6))
        best = min(best, time.perf_counter() - t0)
    assert best < 0.01
    first = next(iter_choices(1200, 1))
    assert first.blue_passes == (0,) * 1200 + (1,)
    assert first.overtake_order == first.final_order == tuple(range(1200))


def test_weak_composition_rejects_negative():
    with pytest.raises(RangeError):
        weak_compositions(-1, 3)
    with pytest.raises(RangeError):
        weak_compositions(2, 0)


def test_lower_bound_values():
    assert count_lower_bound(3, 2) == 360
    assert count_lower_bound(0, 0) == 1
    assert count_lower_bound(1, 1) == 2
    assert count_lower_bound(10, 10) == math.factorial(10) ** 2 * math.comb(20, 10)


def test_enumerate_choices_matches_closed_form():
    for n in range(0, 5):
        for m in range(0, 4):
            choices = enumerate_choices(n, m)
            assert len(choices) == count_lower_bound(n, m)
            assert len(set(choices)) == len(choices)


def test_enumerate_choices_minimal_cases():
    assert len(enumerate_choices(1, 0)) == 1
    assert len(enumerate_choices(3, 2)) == 360


def test_iter_choices_yields_enumerate_order():
    for n, m in [(0, 2), (1, 1), (3, 2)]:
        assert list(iter_choices(n, m)) == enumerate_choices(n, m)
    # Past the guard the first choices are still the first ones.
    first = next(iter_choices(5, 5))
    assert first == ManeuverChoice((0, 1, 2, 3, 4), (0, 0, 0, 0, 0, 5), (0, 1, 2, 3, 4))


def test_enumerate_choices_guard():
    with pytest.raises(ComplexityError):
        enumerate_choices(6, 6)


def test_maneuver_choice_validation():
    with pytest.raises(RangeError):
        ManeuverChoice((0, 0), (1, 0, 0), (0, 1))
    with pytest.raises(RangeError):
        ManeuverChoice((0, 1), (1, 0), (0, 1))
    with pytest.raises(RangeError):
        ManeuverChoice((0, 1), (-1, 1, 1), (0, 1))


# --- units -------------------------------------------------------------------------


def test_unit_round_trip_exact():
    for v in (40.0, 100.0, 27.5, 3.6):
        assert abs(ms_to_kmh(kmh_to_ms(v)) - v) <= 1e-12 * abs(v)
    assert kmh_to_ms(40.0) == pytest.approx(11.11111111111111)
    assert kmh_to_ms(100.0) == pytest.approx(27.77777777777778)


def test_config_defaults_and_validation():
    cfg = RuralConfig(n=2, m=1)
    assert cfg.v_tractor_max == pytest.approx(kmh_to_ms(40.0))
    assert cfg.v_car_max == pytest.approx(kmh_to_ms(100.0))
    with pytest.raises(RangeError):
        RuralConfig(n=-1, m=0)
    with pytest.raises(RangeError):
        RuralConfig(n=1, m=1, tractor_speed=20.0)


# --- synthesis ------------------------------------------------------------------------


def accepted(cfg, grid, scenario, choice):
    traj = synthesize(choice, cfg, grid)
    return monitor_word(traj, scenario) is Verdict.ACCEPTED


def test_all_choices_accepted_small():
    cfg = RuralConfig(n=2, m=1)
    grid = suggested_grid(cfg)
    scenario = rural_formula(cfg, grid)
    for choice in enumerate_choices(2, 1):
        assert accepted(cfg, grid, scenario, choice)


def test_tractor_only_scenario_accepted():
    cfg = RuralConfig(n=0, m=0)
    grid = suggested_grid(cfg)
    choice = ManeuverChoice((), (0,), ())
    traj = synthesize(choice, cfg, grid)
    assert monitor_word(traj, rural_formula(cfg, grid)) is Verdict.ACCEPTED


def test_distinct_choices_yield_distinct_trajectories():
    cfg = RuralConfig(n=2, m=1)
    grid = suggested_grid(cfg)
    trajectories = [synthesize(c, cfg, grid) for c in enumerate_choices(2, 1)]
    assert len(trajectories) == 12
    for i in range(len(trajectories)):
        for j in range(i + 1, len(trajectories)):
            assert trajectory_distance(trajectories[i], trajectories[j]) > 0.0


def test_speed_caps_respected_at_every_grid_point():
    cfg = RuralConfig(n=2, m=2)
    grid = suggested_grid(cfg)
    for choice in enumerate_choices(2, 2)[:8]:
        traj = synthesize(choice, cfg, grid)
        for s in traj.samples:
            assert math.hypot(s["tractor_vx"], s["tractor_vy"]) <= cfg.v_tractor_max
            for k in range(cfg.n):
                assert math.hypot(s[f"red{k}_vx"], s[f"red{k}_vy"]) <= cfg.v_car_max
            for j in range(cfg.m):
                assert math.hypot(s[f"blue{j}_vx"], s[f"blue{j}_vy"]) <= cfg.v_car_max


def test_phase_one_precedes_phase_three():
    from scenkit.rural import _phase_one, _phase_three

    cfg = RuralConfig(n=2, m=1)
    grid = suggested_grid(cfg)
    p1, p3 = _phase_one(cfg), _phase_three(cfg)
    for choice in enumerate_choices(2, 1)[:6]:
        traj = synthesize(choice, cfg, grid)
        ts1 = [i for i, s in enumerate(traj.samples) if p1.holds(s)]
        ts3 = [i for i, s in enumerate(traj.samples) if p3.holds(s)]
        assert ts1 and ts3
        assert ts1[0] == 0
        assert max(ts1) < min(ts3)


def test_schedule_error_when_grid_too_short():
    cfg = RuralConfig(n=2, m=1)
    choice = enumerate_choices(2, 1)[0]
    with pytest.raises(ScheduleError) as err:
        synthesize(choice, cfg, TimeGrid(0.2, 20))
    assert "settle" in str(err.value)


def test_choice_mismatch_rejected():
    cfg = RuralConfig(n=2, m=1)
    with pytest.raises(RangeError):
        synthesize(ManeuverChoice((0,), (1, 0), (0,)), cfg, suggested_grid(cfg))


# --- the phase formula reverse checks ----------------------------------------------------


def convoy_trajectory(cfg, grid, tractor_speed=None):
    """All actors hold formation; no red ever passes."""
    schema = rural_schema(cfg.n, cfg.m)
    v_t = tractor_speed if tractor_speed is not None else cfg.tractor_speed
    t_end = grid.duration
    members = [
        waypoint_follower(
            schema, [(0.0, 0.0, cfg.lane_we_y), (t_end, v_t * t_end, cfg.lane_we_y)],
            x="tractor_x", y="tractor_y", vx="tractor_vx", vy="tractor_vy", id="tractor",
        )
    ]
    for k in range(cfg.n):
        x0 = -(cfg.gap_min + cfg.slot_gap * (k + 1))
        members.append(
            waypoint_follower(
                schema, [(0.0, x0, cfg.lane_we_y), (t_end, x0 + v_t * t_end, cfg.lane_we_y)],
                x=f"red{k}_x", y=f"red{k}_y", vx=f"red{k}_vx", vy=f"red{k}_vy", id=f"red{k}",
            )
        )
    for j in range(cfg.m):
        x0 = 200.0 + 100.0 * j
        members.append(
            waypoint_follower(
                schema, [(0.0, x0, cfg.lane_ew_y), (t_end, x0 - cfg.blue_speed * t_end, cfg.lane_ew_y)],
                x=f"blue{j}_x", y=f"blue{j}_y", vx=f"blue{j}_vx", vy=f"blue{j}_vy", id=f"blue{j}",
            )
        )
    fam = combine(members, epsilon=grid.step, shared=("clock",))
    from scenkit.core import Scene

    start = fam.evolve(0.0, Scene(schema, (0.0,) * schema.k))
    traj = evaluate(AttributeLevelScenario(start, fam, grid))
    return traj


def test_red_never_passing_is_rejected():
    cfg = RuralConfig(n=2, m=1)
    grid = suggested_grid(cfg)
    traj = convoy_trajectory(cfg, grid)
    assert monitor_word(traj, rural_formula(cfg, grid)) is Verdict.REJECTED


def test_speeding_tractor_rejected_by_world_model():
    cfg = RuralConfig(n=0, m=0)
    grid = suggested_grid(cfg)
    traj = convoy_trajectory(cfg, grid, tractor_speed=kmh_to_ms(50.0))
    assert monitor_word(traj, rural_formula(cfg, grid)) is Verdict.REJECTED


def test_prefixes_of_an_accepted_synthesis_are_unknown():
    # The rural box world admits steps its hold-course successor never
    # offers: a prefix the formula leaves open must stay UNKNOWN.
    cfg = RuralConfig(n=3, m=2)
    grid = suggested_grid(cfg)
    scenario = rural_formula(cfg, grid)
    traj = synthesize(enumerate_choices(3, 2)[0], cfg, grid)
    assert monitor_word(traj, scenario) is Verdict.ACCEPTED
    for k in (2, 50, 150, 250):
        part = Trajectory(traj.schema, TimeGrid(grid.step, k), traj.samples[:k])
        assert monitor_prefix(part, scenario) is Verdict3.UNKNOWN, k
