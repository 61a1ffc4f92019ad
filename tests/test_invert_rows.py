"""``invert`` measures residuals on value columns; these tests hold it to
the reference search whose residual is the row-wise sup distance from
``realize(x)`` to the target, bit for bit, and error for error. The
row-wise formula is kept here, apart from the code it checks, and
``trajectory_distance`` is held to it too."""

import itertools
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenkit import dsl
from scenkit.core import Scene, TimeGrid, schema_of, trajectory_distance, trajectory_from_values
from scenkit.dynamics import DeterministicModel, combine, drift, family_of
from scenkit.errors import GridAlignmentError, SchemaError
from scenkit.fixtures import slope_drive_scenario
from scenkit.logical import (
    ContinuousAxis,
    DiscreteAxis,
    Found,
    LogicalScenario,
    NotInImage,
    ParameterSpace,
    invert,
    realize,
)

LINE = schema_of(("pos", "m"))
TWO = schema_of(("pos", "m"), ("v", "m/s"))
LANE = schema_of(("pos", "m"), ("lane", "enum-code"))


def rowwise_distance(a, b):
    """The sup over grid points of the scene distance, one ``hypot`` of the
    differences per row, with ``trajectory_distance``'s checks and messages."""
    if a.schema != b.schema:
        raise SchemaError("schemas do not match")
    if a.grid != b.grid:
        raise GridAlignmentError("trajectories live on different grids")
    return max(math.hypot(*[x - y for x, y in zip(r.values, s.values)])
               for r, s in zip(a.samples, b.samples))


# Both signs; magnitudes up to 1e200, whose squared differences would
# overflow, and down to subnormals, whose squares would underflow.
value = (st.floats(min_value=-1e200, max_value=1e200, allow_nan=False)
         | st.floats(min_value=-1e-300, max_value=1e-300)
         | st.floats(min_value=-10.0, max_value=10.0))


@st.composite
def trajectory_pairs(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=12))
    schema = schema_of(*((f"d{i}", "m") for i in range(k)))
    rows = st.lists(st.lists(value, min_size=k, max_size=k), min_size=n, max_size=n)
    a = trajectory_from_values(schema, 0.1, draw(rows))
    b = a if draw(st.booleans()) else trajectory_from_values(schema, 0.1, draw(rows))
    return a, b


@settings(max_examples=300, deadline=None)
@given(trajectory_pairs())
def test_trajectory_distance_is_the_rowwise_formula(pair):
    a, b = pair
    assert trajectory_distance(a, b).hex() == rowwise_distance(a, b).hex()


def reference_invert(scenario, target, tol, coarse=16):
    """``invert``'s search, each residual taken from a realized Trajectory."""
    axes = scenario.space.axes
    seen = {}

    def residual(x):
        key = tuple(float(v).hex() for v in x)
        if key not in seen:
            seen[key] = rowwise_distance(realize(scenario, x), target)
        return seen[key]

    grids = []
    for a in axes:
        if isinstance(a, DiscreteAxis):
            grids.append(a.values)
        elif a.hi == a.lo:
            grids.append((a.lo,))
        else:
            grids.append(tuple(a.lo + (a.hi - a.lo) * i / (coarse - 1) for i in range(coarse)))
    best_x, best_r = None, math.inf
    for x in itertools.product(*grids):
        r = residual(x)
        if r < best_r:
            best_x, best_r = x, r
    steps = [
        (a.hi - a.lo) / max(coarse - 1, 1) if isinstance(a, ContinuousAxis) else 0.0
        for a in axes
    ]
    x_cur, r_cur = list(best_x), best_r
    while any(s >= tol / 10 for s in steps):
        improved = False
        for i, a in enumerate(axes):
            if not isinstance(a, ContinuousAxis) or steps[i] == 0.0:
                continue
            for cand in (x_cur[i] - steps[i], x_cur[i] + steps[i]):
                cand = min(max(cand, a.lo), a.hi)
                if cand == x_cur[i]:
                    continue
                trial = list(x_cur)
                trial[i] = cand
                r = residual(tuple(trial))
                if r < r_cur:
                    x_cur, r_cur = trial, r
                    improved = True
        if not improved:
            steps = [s * 0.5 for s in steps]
    if r_cur <= tol:
        return Found(tuple(x_cur), r_cur)
    return NotInImage(tuple(x_cur), r_cur)


def outcome(call):
    """The result's kind, point and residual as exact bits, or the
    exception's type, message and attributes."""
    try:
        result = call()
    except Exception as exc:  # noqa: BLE001 - any error must match
        return ("raised", type(exc), str(exc), vars(exc))
    x, r = (result.x, result.residual) if isinstance(result, Found) else (
        result.best_x, result.best_residual
    )
    return (type(result), tuple(v.hex() for v in x), r.hex())


def assert_same(scenario, target, tol, coarse=16):
    want = outcome(lambda: reference_invert(scenario, target, tol, coarse))
    assert outcome(lambda: invert(scenario, target, tol, coarse)) == want
    return want


# --- in the image and near it ---------------------------------------------------


def geared():
    space = ParameterSpace(
        (DiscreteAxis("gear", (1.0, 2.0, 3.0)), ContinuousAxis("rate", 0.0, 4.0))
    )

    def binder(x):
        return Scene(LINE, (0.0,)), family_of(drift(LINE, {"pos": x[0] * x[1]}))

    return LogicalScenario(space, binder, TimeGrid(0.1, 21))


def two_axis():
    space = ParameterSpace((ContinuousAxis("a", 0.0, 2.0), ContinuousAxis("b", -1.0, 1.0)))

    def binder(x):
        return Scene(TWO, (0.0, 1.0)), family_of(drift(TWO, {"pos": x[0], "v": x[1]}))

    return LogicalScenario(space, binder, TimeGrid(0.25, 9))


def shared_pair():
    """Two members that both write pos, and agree on it."""
    space = ParameterSpace((ContinuousAxis("a", 0.0, 2.0),))

    def binder(x):
        p = drift(TWO, {"pos": x[0]}, id="p")
        pv = drift(TWO, {"pos": x[0], "v": 0.5}, id="pv")
        return Scene(TWO, (1.0, 0.0)), combine([p, pv], epsilon=0.1, shared=("pos",))

    return LogicalScenario(space, binder, TimeGrid(0.1, 21))


def owns_one():
    """A lone member that owns pos only: v stays at its start."""
    space = ParameterSpace((ContinuousAxis("a", 0.0, 2.0),))

    def binder(x):
        model = DeterministicModel(
            "owns_one", TWO, math.inf, lambda ts, v: ([v[0] + x[0] * t for t in ts],),
            owns=("pos",),
        )
        return Scene(TWO, (0.0, 3.0)), family_of(model)

    return LogicalScenario(space, binder, TimeGrid(0.1, 21))


def converted(convert):
    """A lone member whose columns hold what ``convert`` makes of each
    float, which ``float`` turns back as the Scene check does."""
    space = ParameterSpace((ContinuousAxis("a", 0.0, 2.0),))

    def binder(x):
        model = DeterministicModel(
            "converted", TWO, math.inf,
            lambda ts, v: ([convert(v[0] + x[0] * t) for t in ts],
                           [convert(round(10 * x[0] * t)) for t in ts]),
        )
        return Scene(TWO, (0.5, 0.0)), family_of(model)

    return LogicalScenario(space, binder, TimeGrid(0.1, 21))


ASSETS = Path(__file__).resolve().parents[1] / "src" / "scenkit" / "assets"
SHIPPED = {
    name: dsl.load((ASSETS / asset).read_text()).logicals[name]
    for asset, name in [("slope_drive.scn", "slope_drive"), ("straight_drive.scn", "speed_choices")]
}

SCENARIOS = {
    "slope": slope_drive_scenario,
    # The shipped specs, bound by the DSL's binder.
    "slope_drive": lambda: SHIPPED["slope_drive"],
    "speed_choices": lambda: SHIPPED["speed_choices"],
    "geared": geared,
    "two_axis": two_axis,
    "shared_pair": shared_pair,
    "owns_one": owns_one,
    "ints": lambda: converted(round),
    "strings": lambda: converted(repr),
}


@st.composite
def near_targets(draw):
    name = draw(st.sampled_from(sorted(SCENARIOS)))
    scenario = SCENARIOS[name]()
    x = tuple(
        draw(st.sampled_from(a.values)) if isinstance(a, DiscreteAxis)
        else draw(st.floats(min_value=a.lo, max_value=a.hi))
        for a in scenario.space.axes
    )
    traj = realize(scenario, x)
    offset = draw(st.sampled_from([0.0, 0.0, 1e-4, 0.3, -2.0]))
    rows = [[v + offset for v in s.values] for s in traj.samples]
    target = trajectory_from_values(traj.schema, traj.grid.step, rows)
    tol = draw(st.sampled_from([1e-6, 1e-3, 0.1]))
    coarse = draw(st.sampled_from([2, 5, 16]))
    return scenario, target, tol, coarse


@settings(max_examples=60, deadline=None)
@given(near_targets())
def test_invert_is_bit_equal_to_the_realizing_reference(case):
    want = assert_same(*case)
    assert want[0] in (Found, NotInImage)


# --- errors ----------------------------------------------------------------------

STEP, COUNT = 0.1, 11


class Unreadable:
    """A value whose conversion to float fails."""

    def __float__(self):
        raise ZeroDivisionError("member fails after its NaN")


def custom(schema, id, fn, owns=None, theta_max=math.inf):
    return DeterministicModel(id, schema, theta_max, fn, owns=owns)


def faulty(kind, k, thr):
    """A one-axis scenario whose family goes wrong from grid point k on,
    for a > thr only, so that the fault strikes mid-search."""
    space = ParameterSpace((ContinuousAxis("a", 0.0, 2.0),))
    t_fault = k * STEP

    def binder(x):
        a = x[0]
        bad = a > thr

        def hit(t):
            return bad and t >= t_fault

        def line(ts, v):
            return ([v[0] + a * t for t in ts],)

        schema, start = LINE, (0.0,)
        if kind == "contradiction":
            members = [custom(LINE, "p", line),
                       custom(LINE, "q", lambda ts, v: (
                           [v[0] + a * t + (1.0 if hit(t) else 0.0) for t in ts],))]
            family = combine(members, epsilon=0.1, shared=("pos",))
        elif kind == "non_finite":
            family = family_of(custom(
                LINE, "p", lambda ts, v: ([math.inf if hit(t) else v[0] + a * t for t in ts],)
            ))
        elif kind == "enum":
            schema, start = LANE, (0.0, 1.0)
            family = family_of(custom(
                LANE, "p",
                lambda ts, v: ([v[0] + a * t for t in ts], [0.5 if hit(t) else v[1] for t in ts])
            ))
        elif kind == "length_lone":
            # The column leaves out the points from k on.
            family = family_of(custom(
                LINE, "p", lambda ts, v: ([v[0] + a * t for t in ts if not hit(t)],)
            ))
        elif kind == "length_merged":
            schema, start = TWO, (0.0, 0.0)
            p = custom(TWO, "p", lambda ts, v: () if any(map(hit, ts)) else line(ts, v), ("pos",))
            family = combine([p, drift(TWO, {"v": 1.0})], epsilon=0.1)
        elif kind == "nan_then_raise":
            # NaN at point k, and from the point after a value that fails
            # to convert: the Scene check at k comes first.
            def nan_then_raise(ts, v):
                return ([Unreadable() if hit(t) and t > t_fault + STEP / 2
                         else math.nan if hit(t) else v[0] + a * t for t in ts],)

            family = family_of(custom(LINE, "p", nan_then_raise))
        elif kind in ("nan_shared", "nan_shared_merged"):
            # The last writer's value is the merged row's: q's 0.0, or p's NaN.
            schema, start = TWO, (0.0, 0.0)
            p = custom(TWO, "p", lambda ts, v: ([v[0] + a * t for t in ts],
                                               [math.nan if hit(t) else 0.0 for t in ts]))
            q = drift(TWO, {"v": 0.0}, id="q")
            members = [p, q] if kind == "nan_shared" else [q, p]
            family = combine(members, epsilon=0.1, shared=("v",))
        elif kind == "mixed":
            # NaN in an unshared dim from k on, and a contradiction from
            # the point after the threshold's: the first in grid order wins.
            schema, start = TWO, (0.0, 0.0)
            p = custom(TWO, "p", lambda ts, v: (
                [math.nan if hit(t) else v[0] + a * t for t in ts],), ("pos",))
            q = drift(TWO, {"v": 0.0}, id="q")
            r = custom(TWO, "r", lambda ts, v: (
                [1.0 if bad and t >= 0.5 else 0.0 for t in ts],), ("v",))
            family = combine([p, q, r], epsilon=0.1, shared=("v",))
        elif kind == "domain":
            family = family_of(custom(LINE, "p", line, theta_max=0.5 if bad else math.inf))
        elif kind == "schema":
            if bad:
                schema = schema_of(("q", "m"))
            family = family_of(drift(schema, {schema.names[0]: a}))
        elif kind == "schema_nan":
            # Another schema, and a NaN in its column: the column check
            # comes before the schema check.
            if bad:
                schema = schema_of(("q", "m"))
            family = family_of(custom(
                schema, "p", lambda ts, v: ([math.nan if hit(t) else v[0] + a * t for t in ts],)
            ))
        else:
            family = family_of(drift(LINE, {"pos": a}))
        return Scene(schema, start), family

    scenario = LogicalScenario(space, binder, TimeGrid(STEP, COUNT))
    probe = binder((0.0,))[0].schema
    count = COUNT + 1 if kind == "grid" else COUNT
    target = trajectory_from_values(probe, STEP, [[0.7 * i * STEP] + [0.0] * (probe.k - 1)
                                                  for i in range(count)])
    return scenario, target


KINDS = ["contradiction", "non_finite", "nan_then_raise", "enum", "length_lone",
         "length_merged", "nan_shared", "nan_shared_merged", "mixed", "domain", "schema",
         "schema_nan", "grid"]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(KINDS),
    st.integers(min_value=0, max_value=COUNT - 1),
    st.floats(min_value=0.0, max_value=1.9),
)
def test_invert_raises_what_realize_raises(kind, k, thr):
    scenario, target = faulty(kind, k, thr)
    want = assert_same(scenario, target, 1e-6)
    assert want[0] == "raised"


def test_every_error_kind_is_named():
    expected = {
        "contradiction": "TruncationError",
        "non_finite": "SchemaError",
        "nan_then_raise": "SchemaError",
        "enum": "SchemaError",
        "length_lone": "SchemaError",
        "length_merged": "SchemaError",
        "nan_shared": "SchemaError",
        "nan_shared_merged": "SchemaError",
        "mixed": "SchemaError",
        "domain": "DomainExceededError",
        "schema": "SchemaError",
        "schema_nan": "SchemaError",
        "grid": "GridAlignmentError",
    }
    for kind in KINDS:
        scenario, target = faulty(kind, 3, 0.5)
        with pytest.raises(Exception) as err:
            invert(scenario, target, 1e-6)
        assert type(err.value).__name__ == expected[kind], kind


def test_truncation_carries_realize_result():
    scenario, target = faulty("contradiction", 4, 0.5)
    want = outcome(lambda: reference_invert(scenario, target, 1e-6))
    assert want[1].__name__ == "TruncationError" and want[3]["result"] is not None
    assert outcome(lambda: invert(scenario, target, 1e-6)) == want


@pytest.mark.parametrize(
    "kind, k, message",
    [
        ("nan_then_raise", 4, "non-finite value nan in dimension 'pos'"),
        ("length_lone", COUNT - 1, "model 'p' returned a column of 10 for 11 times"),
        ("enum", COUNT - 1, "enum dimension 'lane' holds non-integer 0.5"),
        # NaN in a shared dimension: the Scene check's message when the NaN
        # is in the merged row, else the shared scan's.
        ("nan_shared_merged", 3, "non-finite value nan in dimension 'v'"),
        ("nan_shared", 3, "non-finite value in shared dimension 'v'"),
        # A candidate of another schema: its columns are checked first.
        ("schema", 3, "schemas do not match"),
        ("schema_nan", COUNT - 1, "non-finite value nan in dimension 'q'"),
    ],
    ids=["nan-before-raise", "last-row-length", "last-row-enum", "nan-shared-merged",
         "nan-shared-unmerged", "other-schema", "other-schema-and-nan"],
)
def test_a_rejected_candidate_raises_realizes_fault(kind, k, message):
    scenario, target = faulty(kind, k, 0.5)
    want = assert_same(scenario, target, 1e-6)
    assert (want[1], want[2]) == (SchemaError, message)


@pytest.mark.parametrize("name", ["ints", "strings"])
def test_values_that_float_accepts_are_measured_as_realize_converts_them(name):
    scenario = SCENARIOS[name]()
    want = assert_same(scenario, realize(scenario, (2.0,)), 1e-6)
    assert want == (Found, ((2.0).hex(),), (0.0).hex())


class Watched:
    """A target that counts the reads of its samples, which any
    transposition into value columns makes."""

    def __init__(self, trajectory):
        self.trajectory, self.reads = trajectory, 0
        self.schema, self.grid = trajectory.schema, trajectory.grid

    @property
    def samples(self):
        self.reads += 1
        return self.trajectory.samples


@pytest.mark.parametrize("name", ["slope_drive", "two_axis", "shared_pair", "speed_choices"])
def test_one_search_transposes_the_target_and_builds_the_times_once(name):
    # The models record each times sequence they are given. Every
    # candidate must get the one built for the search, and the target's
    # samples must be read once.
    scenario, times = SCENARIOS[name](), []

    def binder(x):
        start, family = scenario.binder(x)
        members = [DeterministicModel(m.id, m.schema, m.theta_max,
                                      lambda ts, v, f=m.evolve_fn: times.append(ts) or f(ts, v),
                                      m.owns) for m in family.members]
        return start, combine(members, family.epsilon, family.shared)

    watched = LogicalScenario(scenario.space, binder, scenario.grid)
    x = tuple(a.values[-1] if isinstance(a, DiscreteAxis) else (a.lo + 2 * a.hi) / 3
              for a in scenario.space.axes)
    target = Watched(realize(scenario, x))
    got = outcome(lambda: invert(watched, target, 1e-6))
    assert got == outcome(lambda: invert(scenario, target.trajectory, 1e-6))
    assert target.reads == 1
    assert len(times) > len(scenario.space.axes) + 1
    assert all(ts is times[0] for ts in times)
