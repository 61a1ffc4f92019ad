"""Rural overtaking case study.

A slow tractor jams the west-east lane; n red cars behind it overtake,
interleaved with m oncoming blue cars on the east-west lane. The
maneuver-level choices form the triple (overtake order, blue-pass
composition, final order), counted exactly by (n!)^2 * C(m+n, n); the
synthesizer realizes each choice as a joint trajectory built from
waypoint followers, and the phase formula accepts the richer behavior
the constraints leave open.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Iterator

from .core import Scene, SceneSchema, TimeGrid, Trajectory
from .dynamics import AttributeLevelScenario, combine, evaluate, waypoint_follower
from .errors import ComplexityError, RangeError, ScheduleError
from .formulas import Always, And, Atom, Eventually, ScenePredicate
from .logic import AbstractScenario, ScenarioLogicInstance, box_step

INF = math.inf

#: km/h per m/s.
KMH = 3.6

#: Event spacing (seconds): a blue crossing, and the margin after it
#: before a waiting red may start (the 2 s headway rounds up to the slot).
BLUE_SLOT = 3.0
FIRST_EVENT_AT = 4.0
LANE_CHANGE = 2.0
SETTLE_MARGIN = 2.0


def kmh_to_ms(v: float) -> float:
    return v / KMH


def ms_to_kmh(v: float) -> float:
    return v * KMH


@dataclass(frozen=True)
class RuralConfig:
    """The rural overtaking set-up: n red cars, m blue cars, speed
    caps, gaps, lanes and slot timing."""
    n: int
    m: int
    v_tractor_max: float = 40.0 / KMH
    v_car_max: float = 100.0 / KMH
    gap_min: float = 50.0
    lane_we_y: float = 0.0
    lane_ew_y: float = 3.5
    tractor_speed: float = 10.0
    pass_speed: float = 25.0
    blue_speed: float = 25.0
    lat_cap: float = 2.0
    slot_gap: float = 20.0

    def __post_init__(self):
        if self.n < 0 or self.m < 0:
            raise RangeError("car counts must be nonnegative")
        if self.v_tractor_max <= 0 or self.v_car_max <= 0 or self.gap_min <= 0:
            raise RangeError("speed limits and gap_min must be positive")
        if self.tractor_speed > self.v_tractor_max:
            raise RangeError("tractor speed exceeds its cap")
        if max(self.pass_speed, self.blue_speed) > self.v_car_max:
            raise RangeError("car speed exceeds its cap")

    def overtake_slot(self) -> float:
        """Seconds reserved per overtake: time to draw level plus margin."""
        deepest = self.gap_min + self.slot_gap * self.n
        return deepest / (self.pass_speed - self.tractor_speed) + 2.0


# --- combinatorics -----------------------------------------------------------


def _compositions(m: int, parts: int) -> Iterator[tuple[int, ...]]:
    """``weak_compositions``, lazily and in the same lexicographic order:
    the next moves one unit from the last nonzero part but the first to
    the part before it, and the rest of that part to the last part."""
    comp = [0] * (parts - 1) + [m]
    while True:
        yield tuple(comp)
        k = parts - 1
        while k and not comp[k]:
            k -= 1
        if not k:
            return
        comp[k - 1], comp[k], comp[-1] = comp[k - 1] + 1, 0, comp[k] - 1


def weak_compositions(m: int, parts: int) -> list[tuple[int, ...]]:
    """All ordered tuples of `parts` nonnegative integers summing to m."""
    if m < 0 or parts < 1:
        raise RangeError("need m >= 0 and parts >= 1")
    return list(_compositions(m, parts))


def count_lower_bound(n: int, m: int) -> int:
    """Exact big-integer value of (n!)^2 * C(m+n, n)."""
    if n < 0 or m < 0:
        raise RangeError("need n, m >= 0")
    return math.factorial(n) ** 2 * math.comb(m + n, n)


@dataclass(frozen=True)
class ManeuverChoice:
    """One counted possibility: who overtakes when, which blues pass first,
    and how the red cars line up at the end."""

    overtake_order: tuple[int, ...]
    blue_passes: tuple[int, ...]
    final_order: tuple[int, ...]

    def __post_init__(self):
        n = len(self.overtake_order)
        if sorted(self.overtake_order) != list(range(n)):
            raise RangeError("overtake_order must be a permutation of 0..n-1")
        if sorted(self.final_order) != list(range(n)):
            raise RangeError("final_order must be a permutation of 0..n-1")
        if len(self.blue_passes) != n + 1:
            raise RangeError("blue_passes needs n+1 parts")
        if any(r < 0 for r in self.blue_passes):
            raise RangeError("blue_passes parts must be nonnegative")


def iter_choices(n: int, m: int) -> Iterator[ManeuverChoice]:
    """The (overtake order, blue composition, final order) triples, one
    at a time, in ``enumerate_choices`` order."""
    count_lower_bound(n, m)  # refuses negative n and m
    for order in permutations(range(n)):
        for comp in _compositions(m, n + 1):
            for final in permutations(range(n)):
                yield ManeuverChoice(order, comp, final)


def enumerate_choices(
    n: int, m: int, guard: int = 1_000_000, force: bool = False
) -> list[ManeuverChoice]:
    """All (overtake order, blue composition, final order) triples."""
    total = count_lower_bound(n, m)
    if total > guard and not force:
        raise ComplexityError(f"{total} choices exceed the guard of {guard}")
    return list(iter_choices(n, m))


# --- schema and schedule ------------------------------------------------------


def rural_schema(n: int, m: int) -> SceneSchema:
    dims: list[tuple[str, str]] = [("clock", "s")]
    for actor in ["tractor"] + [f"red{k}" for k in range(n)] + [
        f"blue{j}" for j in range(m)
    ]:
        dims += [
            (f"{actor}_x", "m"),
            (f"{actor}_y", "m"),
            (f"{actor}_vx", "m/s"),
            (f"{actor}_vy", "m/s"),
        ]
    return SceneSchema(tuple(dims))


@dataclass(frozen=True)
class _Schedule:
    """The event times of one maneuver choice: blue crossings,
    overtake starts, arrivals at the slots."""
    blue_cross: tuple[float, ...]  # crossing time of blue j at the tractor
    overtake_start: tuple[float, ...]  # start time of the i-th overtake
    arrival: dict  # red id -> slot arrival time
    settle: float
    last_blue: float

    @property
    def required(self) -> float:
        return max(self.settle, self.last_blue + 1.0) + SETTLE_MARGIN


def _red_start_x(cfg: RuralConfig, k: int) -> float:
    return -(cfg.gap_min + cfg.slot_gap * (k + 1))


def _final_offset(cfg: RuralConfig, rank: int) -> float:
    return cfg.gap_min + cfg.slot_gap * (rank + 1)


def _schedule(choice: ManeuverChoice, cfg: RuralConfig) -> _Schedule:
    """Walk the event sequence: r_i blue crossings, then the i-th overtake,
    and the r_0 leftover blues after all overtakes."""
    ov_slot = cfg.overtake_slot()
    cursor = FIRST_EVENT_AT
    blue_cross: list[float] = []
    starts: list[float] = []
    # blue_passes = (r_0, r_1, ..., r_n); r_i blues pass before overtake i.
    for i in range(len(choice.overtake_order)):
        for _ in range(choice.blue_passes[i + 1]):
            blue_cross.append(cursor)
            cursor += BLUE_SLOT
        starts.append(cursor)
        cursor += ov_slot
    for _ in range(choice.blue_passes[0]):
        blue_cross.append(cursor)
        cursor += BLUE_SLOT
    rank = {red: r for r, red in enumerate(choice.final_order)}
    arrival = {}
    closing = cfg.pass_speed - cfg.tractor_speed
    for i, red in enumerate(choice.overtake_order):
        span = _final_offset(cfg, rank[red]) - _red_start_x(cfg, red)
        arrival[red] = starts[i] + span / closing
    settle = max(arrival.values(), default=FIRST_EVENT_AT)
    last_blue = max(blue_cross, default=0.0)
    return _Schedule(tuple(blue_cross), tuple(starts), arrival, settle, last_blue)


def suggested_grid(cfg: RuralConfig, step: float = 0.2) -> TimeGrid:
    """A grid long enough for every choice at the given (n, m)."""
    ov_slot = cfg.overtake_slot()
    worst_cursor = FIRST_EVENT_AT + cfg.n * ov_slot + cfg.m * BLUE_SLOT
    span = _final_offset(cfg, cfg.n - 1) - _red_start_x(cfg, cfg.n - 1) if cfg.n else 0.0
    worst = worst_cursor + span / (cfg.pass_speed - cfg.tractor_speed) + 1.0 + SETTLE_MARGIN
    count = int(math.ceil(worst / step)) + 1
    return TimeGrid(step, count)


# --- synthesis ----------------------------------------------------------------


def synthesize(
    choice: ManeuverChoice, cfg: RuralConfig, grid: TimeGrid | None = None
) -> Trajectory:
    """Deterministic joint trajectory realizing one maneuver choice.

    Tractor and blues drive at constant speed; each red follows the
    convoy, waits for its assigned blue crossings, passes on the
    oncoming lane and settles into its final-order slot ahead of the
    tractor. Built entirely from waypoint followers sharing one clock.
    """
    n, m = cfg.n, cfg.m
    if len(choice.overtake_order) != n or sum(choice.blue_passes) != m:
        raise RangeError("choice does not match the configured car counts")
    if grid is None:
        grid = suggested_grid(cfg)
    sched = _schedule(choice, cfg)
    if grid.duration < sched.required:
        raise ScheduleError(
            f"grid ends at {grid.duration:.1f}s but the schedule needs "
            f"{sched.required:.1f}s (settle {sched.settle:.1f}s, last blue "
            f"crossing {sched.last_blue:.1f}s)"
        )
    schema = rural_schema(n, m)
    t_end = grid.duration
    v_t = cfg.tractor_speed
    members = [
        waypoint_follower(
            schema,
            [(0.0, 0.0, cfg.lane_we_y), (t_end, v_t * t_end, cfg.lane_we_y)],
            x="tractor_x", y="tractor_y", vx="tractor_vx", vy="tractor_vy",
            id="tractor",
        )
    ]
    # Blue j crosses the tractor exactly at its scheduled time: both move
    # toward each other at a combined blue_speed + tractor_speed.
    for j in range(m):
        x0 = (cfg.blue_speed + v_t) * sched.blue_cross[j]
        members.append(
            waypoint_follower(
                schema,
                [(0.0, x0, cfg.lane_ew_y), (t_end, x0 - cfg.blue_speed * t_end, cfg.lane_ew_y)],
                x=f"blue{j}_x", y=f"blue{j}_y", vx=f"blue{j}_vx", vy=f"blue{j}_vy",
                id=f"blue{j}",
            )
        )
    rank = {red: r for r, red in enumerate(choice.final_order)}
    start_by_red = {
        red: sched.overtake_start[i] for i, red in enumerate(choice.overtake_order)
    }
    for k in range(n):
        x0 = _red_start_x(cfg, k)
        s = start_by_red[k]
        t_arr = sched.arrival[k]
        off = _final_offset(cfg, rank[k])
        x_s = x0 + v_t * s
        x_arr = v_t * t_arr + off
        pass_slope = (x_arr - x_s) / (t_arr - s)
        knots = [
            (0.0, x0, cfg.lane_we_y),
            (s, x_s, cfg.lane_we_y),
            (s + LANE_CHANGE, x_s + pass_slope * LANE_CHANGE, cfg.lane_ew_y),
            (t_arr - LANE_CHANGE, x_arr - pass_slope * LANE_CHANGE, cfg.lane_ew_y),
            (t_arr, x_arr, cfg.lane_we_y),
            (t_end, x_arr + v_t * (t_end - t_arr), cfg.lane_we_y),
        ]
        members.append(
            waypoint_follower(
                schema, knots,
                x=f"red{k}_x", y=f"red{k}_y", vx=f"red{k}_vx", vy=f"red{k}_vy",
                id=f"red{k}",
            )
        )
    family = combine(members, epsilon=grid.step, shared=("clock",))
    seed = Scene(schema, (0.0,) * schema.k)
    start = family.evolve(0.0, seed)
    result = evaluate(AttributeLevelScenario(start, family, grid))
    assert isinstance(result, Trajectory)
    return result


# --- the abstract scenario -----------------------------------------------------


def _phase_one(cfg: RuralConfig) -> ScenePredicate:
    n, m = cfg.n, cfg.m
    lane_tol = 0.2
    bounds = [("tractor_vx", -cfg.v_tractor_max, cfg.v_tractor_max)]
    diffs = []
    for k in range(n):
        bounds.append((f"red{k}_y", cfg.lane_we_y - lane_tol, cfg.lane_we_y + lane_tol))
        diffs.append(("tractor_x", f"red{k}_x", cfg.gap_min, INF))
    for j in range(m):
        bounds.append((f"blue{j}_y", cfg.lane_ew_y - lane_tol, cfg.lane_ew_y + lane_tol))
        diffs.append((f"blue{j}_x", "tractor_x", 0.0, INF))
    return ScenePredicate(tuple(bounds), tuple(diffs))


def _phase_three(cfg: RuralConfig) -> ScenePredicate:
    n, m = cfg.n, cfg.m
    lane_tol = 0.2
    bounds = []
    diffs = []
    for k in range(n):
        bounds.append((f"red{k}_y", cfg.lane_we_y - lane_tol, cfg.lane_we_y + lane_tol))
        diffs.append((f"red{k}_x", "tractor_x", cfg.gap_min, INF))
    for j in range(m):
        diffs.append((f"blue{j}_x", "tractor_x", -INF, -1.0))
    return ScenePredicate(tuple(bounds), tuple(diffs))


def _speed_caps(cfg: RuralConfig) -> ScenePredicate:
    n, m = cfg.n, cfg.m
    bounds = [
        ("tractor_vx", -cfg.v_tractor_max, cfg.v_tractor_max),
        ("tractor_vy", -cfg.lat_cap, cfg.lat_cap),
    ]
    for name in [f"red{k}" for k in range(n)] + [f"blue{j}" for j in range(m)]:
        bounds.append((f"{name}_vx", -cfg.v_car_max, cfg.v_car_max))
        bounds.append((f"{name}_vy", -cfg.lat_cap, cfg.lat_cap))
    return ScenePredicate(tuple(bounds))


def _rural_instance(cfg: RuralConfig, grid: TimeGrid) -> ScenarioLogicInstance:
    """Permissive world: any scene starts, steps stay in per-dimension boxes.

    It is a box world: it has ``allows`` and no successors, so monitoring
    admits any transition inside the boxes, leaving the behavioral
    restrictions to the world-model formulas, and decides prefixes by
    the formula alone.
    """
    schema = rural_schema(cfg.n, cfg.m)
    step = grid.step
    slack = 1e-9
    names = schema.names
    box = []
    for name in names:
        if name == "clock":
            box.append((step - slack, step + slack))
        elif name.endswith("_vx") or name.endswith("_vy"):
            box.append((-2.0 * cfg.v_car_max, 2.0 * cfg.v_car_max))
        elif name.endswith("_y"):
            box.append((-cfg.lat_cap * step - slack, cfg.lat_cap * step + slack))
        else:
            bound = 1.2 * cfg.v_car_max * step + slack
            box.append((-bound, bound))

    return ScenarioLogicInstance(
        id=f"rural-{cfg.n}-{cfg.m}",
        schema=schema,
        step=step,
        horizon=grid.count - 1,
        initial_scenes=None,
        successors=None,
        allows=box_step(box),
        scene_tol=1e-9,
    )


def rural_formula(cfg: RuralConfig, grid: TimeGrid | None = None) -> AbstractScenario:
    """Phase-one at the start, eventually phase-three; caps in the world.

    The formula deliberately accepts more than the synthesizer produces:
    the enumerator realizes the counted lower bound while the scenario
    leaves fallbacks, stops and extra reorderings open.
    """
    if grid is None:
        grid = suggested_grid(cfg)
    constraints = And(Atom(_phase_one(cfg)), Eventually(Atom(_phase_three(cfg))))
    world = (Always(Atom(_speed_caps(cfg))),)
    return AbstractScenario(constraints, world, _rural_instance(cfg, grid))
