import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenkit.core import Scene, TimeGrid, schema_of, trajectory_from_values
from scenkit.dynamics import drift, family_of
from scenkit.errors import ComplexityError, OutOfSpaceError, RangeError
from scenkit.fixtures import slope_drive_scenario, straight_drive_trajectory, zero_parameter_drive
from scenkit.logical import (
    ContinuousAxis,
    DiscreteAxis,
    DiscreteWeighted,
    Found,
    LogicalScenario,
    NotInImage,
    ParameterDistribution,
    ParameterSpace,
    TruncatedNormal,
    derive_seed,
    draw_parameters,
    invert,
    invert_over_binders,
    realize,
    sample,
)


def ks_statistic(values, cdf):
    xs = sorted(values)
    n = len(xs)
    d = 0.0
    for i, x in enumerate(xs):
        f = cdf(x)
        d = max(d, (i + 1) / n - f, f - i / n)
    return d


# --- realization -----------------------------------------------------------------


def test_slope_drive_realizes_linear_motion():
    L = slope_drive_scenario()
    traj = realize(L, (2.0,))
    for i, s in enumerate(traj.samples):
        assert s["pos"] == 2.0 * (i * 0.1)
    assert traj.samples[-1]["pos"] == pytest.approx(20.0)


def test_zero_parameter_scenario_realizes_fixed_drive():
    L = zero_parameter_drive()
    assert realize(L, ()) == straight_drive_trajectory()


def test_realize_at_lower_boundary():
    L = slope_drive_scenario()
    traj = realize(L, (1.0,))
    assert traj.samples[-1]["pos"] == pytest.approx(10.0)


def test_realize_outside_space_names_axis():
    L = slope_drive_scenario()
    with pytest.raises(OutOfSpaceError) as err:
        realize(L, (3.5,))
    assert err.value.axis == "rate"


def test_boundary_totality_at_all_corners():
    schema = schema_of(("x", "m"), ("y", "m"), ("vx", "m/s"), ("vy", "m/s"))
    space = ParameterSpace(
        (
            ContinuousAxis("sx", -5.0, 5.0),
            ContinuousAxis("sy", 0.0, 10.0),
            ContinuousAxis("v", 1.0, 3.0),
        )
    )

    def binder(x):
        start = Scene(schema, (x[0], x[1], x[2], 0.0))
        return start, family_of(drift(schema, {"x": x[2]}))

    L = LogicalScenario(space, binder, TimeGrid(0.1, 11))
    corners = space.corners()
    assert len(corners) == 8
    for corner in corners:
        realize(L, corner)


# --- parameter spaces and distributions ----------------------------------------------


def test_space_validations():
    with pytest.raises(RangeError):
        ContinuousAxis("a", 2.0, 1.0)
    with pytest.raises(RangeError):
        DiscreteAxis("a", ())
    with pytest.raises(RangeError):
        DiscreteAxis("a", (1.0, 1.0))
    with pytest.raises(RangeError):
        ParameterSpace((ContinuousAxis("a", 0, 1), ContinuousAxis("a", 0, 1)))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: ContinuousAxis("a", 1.0, math.inf), "axis 'a': non-finite bound inf"),
        (lambda: ContinuousAxis("a", -math.inf, math.inf), "axis 'a': non-finite bound -inf"),
        (lambda: ContinuousAxis("a", math.nan, 1.0), "axis 'a': non-finite bound nan"),
        (lambda: DiscreteAxis("a", (math.nan, 1.0)), "axis 'a': non-finite value nan"),
        (lambda: DiscreteAxis("a", (1, 1e400)), "axis 'a': non-finite value inf"),
        # lo + (hi - lo) * u would draw inf.
        (lambda: ContinuousAxis("a", -1e308, 1e308),
         "axis 'a': width 1e+308 - -1e+308 is not finite"),
    ],
    ids=[
        "continuous-inf", "continuous-both", "continuous-nan", "discrete-nan", "discrete-inf",
        "continuous-wide",
    ],
)
def test_axes_refuse_non_finite_values(make, message):
    # A value drawn from an axis must lie in the space and realize.
    with pytest.raises(RangeError) as err:
        make()
    assert str(err.value) == message


def test_distribution_validations():
    with pytest.raises(RangeError):
        DiscreteWeighted((0.5, 0.6))
    with pytest.raises(RangeError):
        DiscreteWeighted((-0.1, 1.1))
    with pytest.raises(RangeError):
        TruncatedNormal(0.0, 0.0)
    space = ParameterSpace((ContinuousAxis("a", 0, 1),))
    with pytest.raises(RangeError):
        ParameterDistribution((DiscreteWeighted((1.0,)),)).validate_against(space)


# --- sampling -------------------------------------------------------------------------


def test_degenerate_axis_sampling():
    space = ParameterSpace((ContinuousAxis("c", 2.5, 2.5),))
    xs = draw_parameters(space, None, 50, rng_seed=1)
    assert all(x == (2.5,) for x in xs)


def test_sampling_is_reproducible():
    L = slope_drive_scenario()
    a = sample(L, None, 20, rng_seed=99)
    b = sample(L, None, 20, rng_seed=99)
    assert [x for x, _ in a] == [x for x, _ in b]
    assert all(ta == tb for (_, ta), (_, tb) in zip(a, b))
    c = sample(L, None, 20, rng_seed=100)
    assert [x for x, _ in a] != [x for x, _ in c]


def test_two_axis_draws_match_sample_and_differ_per_axis():
    # One generator per draw serves every axis in turn, in draw_parameters
    # as in sample; a fresh generator per axis would repeat one value.
    line = schema_of(("pos", "m"))
    space = ParameterSpace((ContinuousAxis("p0", 0.0, 1.0), ContinuousAxis("v", 0.0, 1.0)))
    L = LogicalScenario(
        space,
        lambda x: (Scene(line, (x[0],)), family_of(drift(line, {"pos": x[1]}))),
        TimeGrid(0.5, 3),
    )
    xs = draw_parameters(space, None, 20, rng_seed=5)
    assert xs == [x for x, _ in sample(L, None, 20, rng_seed=5)]
    assert all(a != b for a, b in xs)
    first = random.Random(derive_seed(5, 0))
    assert xs[0] == (first.random(), first.random())


@given(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=30),
)
@settings(max_examples=25, deadline=None)
def test_draws_are_independent_of_batching(seed, k1, k2):
    # Per-draw seed derivation makes any worker partition of the count
    # produce the same sequence as one big batch.
    space = ParameterSpace((ContinuousAxis("u", 0.0, 1.0),))
    whole = draw_parameters(space, None, k1 + k2, rng_seed=seed)
    assert draw_parameters(space, None, k1, rng_seed=seed) == whole[:k1]


def test_uniform_sampling_ks():
    space = ParameterSpace((ContinuousAxis("u", 0.0, 1.0),))
    xs = [x[0] for x in draw_parameters(space, None, 10_000, rng_seed=4)]
    d = ks_statistic(xs, lambda v: min(max(v, 0.0), 1.0))
    assert d < 0.03


def test_discrete_weighted_frequencies():
    space = ParameterSpace((DiscreteAxis("b", (0.0, 1.0)),))
    dist = ParameterDistribution((DiscreteWeighted((0.5, 0.5)),))
    xs = [x[0] for x in draw_parameters(space, dist, 10_000, rng_seed=8)]
    freq1 = sum(xs) / len(xs)
    assert abs(freq1 - 0.5) < 0.02


def test_truncated_normal_stays_in_box_and_centers():
    space = ParameterSpace((ContinuousAxis("v", -1.0, 1.0),))
    dist = ParameterDistribution((TruncatedNormal(0.0, 0.5),))
    xs = [x[0] for x in draw_parameters(space, dist, 5_000, rng_seed=3)]
    assert all(-1.0 <= v <= 1.0 for v in xs)
    assert abs(sum(xs) / len(xs)) < 0.05


def test_pushforward_of_final_position():
    # Final position under the slope drive is x * 10, so the push-forward
    # of uniform [1, 3] is uniform [10, 30]; compare empirically.
    L = slope_drive_scenario()
    draws = sample(L, None, 10_000, rng_seed=21)
    finals = [traj.samples[-1]["pos"] for _, traj in draws]

    def cdf(v):
        return min(max((v - 10.0) / 20.0, 0.0), 1.0)

    assert ks_statistic(finals, cdf) < 0.03


def test_sample_count_validation():
    with pytest.raises(RangeError):
        sample(slope_drive_scenario(), None, 0, rng_seed=0)


# --- inversion --------------------------------------------------------------------------


@pytest.mark.parametrize("coarse", [0, 1])
def test_invert_refuses_a_coarse_scan_below_two_points(coarse):
    L = slope_drive_scenario()
    with pytest.raises(RangeError, match=f"coarse must be >= 2, got {coarse}"):
        invert(L, realize(L, (2.0,)), 1e-6, coarse=coarse)


def test_invert_recovers_known_parameter():
    L = slope_drive_scenario()
    target = realize(L, (2.0,))
    result = invert(L, target, tol=1e-6)
    assert isinstance(result, Found)
    assert abs(result.x[0] - 2.0) <= 1e-6
    assert result.residual <= 1e-6


def test_invert_roundtrip_on_random_parameters():
    L = slope_drive_scenario()
    rng = random.Random(17)
    for _ in range(5):
        x_star = rng.uniform(1.0, 3.0)
        result = invert(L, realize(L, (x_star,)), tol=1e-6)
        assert isinstance(result, Found)
        assert abs(result.x[0] - x_star) <= 1e-6


def test_invert_not_in_image_for_zero_trace():
    L = slope_drive_scenario()
    schema = schema_of(("pos", "m"))
    zero = trajectory_from_values(schema, 0.1, [[0.0]] * 101)
    result = invert(L, zero, tol=1e-6)
    assert isinstance(result, NotInImage)
    assert result.best_x[0] == pytest.approx(1.0)
    assert result.best_residual == pytest.approx(10.0)


def test_invert_handles_discrete_axes():
    schema = schema_of(("pos", "m"))
    space = ParameterSpace(
        (DiscreteAxis("gear", (1.0, 2.0)), ContinuousAxis("rate", 0.0, 4.0))
    )

    def binder(x):
        return Scene(schema, (0.0,)), family_of(drift(schema, {"pos": x[0] * x[1]}))

    L = LogicalScenario(space, binder, TimeGrid(0.1, 21))
    target = realize(L, (2.0, 1.5))
    result = invert(L, target, tol=1e-6)
    assert isinstance(result, Found)
    assert result.x[0] * result.x[1] == pytest.approx(3.0, abs=1e-6)


def test_invert_binds_each_distinct_point_once():
    L = slope_drive_scenario()
    points = []

    def binder(x):
        points.append(tuple(v.hex() for v in x))
        return L.binder(x)

    counted = LogicalScenario(L.space, binder, L.grid)
    result = invert(counted, realize(L, (2.0,)), tol=1e-6)
    assert isinstance(result, Found)
    # The schema probe binds the first corner, and the scan reuses it.
    assert points and points[0] == ((1.0).hex(),)
    assert len(points) == len(set(points))


def test_invert_keeps_the_probe_corner_apart_from_the_scan_by_bits():
    schema = schema_of(("pos", "m"))
    points = []

    def binder(x):
        points.append(tuple(v.hex() for v in x))
        return Scene(schema, (0.0,)), family_of(drift(schema, {"pos": x[0]}))

    L = LogicalScenario(ParameterSpace((ContinuousAxis("v", -0.0, 1.0),)), binder, TimeGrid(0.1, 3))
    target = realize(L, (0.5,))
    points.clear()
    invert(L, target, tol=1e-3)
    # The scan's first point is -0.0 + 0.0, which is 0.0: a second point.
    assert points[:2] == [((-0.0).hex(),), ((0.0).hex(),)]
    assert len(points) == len(set(points))


def test_invert_not_in_image_when_every_residual_overflows():
    # Two coordinates each about 1.5e308 off at every grid point: every
    # residual passes the largest float.
    schema = schema_of(("pos", "m"), ("lat", "m"))

    def binder(x):
        return Scene(schema, (0.0, 0.0)), family_of(drift(schema, {"pos": x[0], "lat": 0.0}))

    L = LogicalScenario(ParameterSpace((ContinuousAxis("rate", 1.0, 3.0),)), binder, TimeGrid(0.1, 11))
    far = trajectory_from_values(schema, 0.1, [[-1.5e308, 1.5e308]] * 11)
    result = invert(L, far, tol=1e-6)
    assert isinstance(result, NotInImage)
    assert result.best_x == (1.0,)
    assert result.best_residual == math.inf


def test_invert_axis_guard():
    schema = schema_of(("pos", "m"))
    axes = tuple(ContinuousAxis(f"a{i}", 0.0, 1.0) for i in range(7))

    def binder(x):
        return Scene(schema, (0.0,)), family_of(drift(schema, {"pos": sum(x)}))

    L = LogicalScenario(ParameterSpace(axes), binder, TimeGrid(0.1, 3))
    target = realize(L, (0.5,) * 7)
    with pytest.raises(ComplexityError):
        invert(L, target, tol=1e-3)


def test_invert_over_binders_tries_registry_in_order():
    L_slope = slope_drive_scenario()
    schema = schema_of(("pos", "m"))
    space = ParameterSpace((ContinuousAxis("k", 0.0, 1.0),))

    def quad_binder(x):
        return Scene(schema, (5.0,)), family_of(drift(schema, {"pos": x[0]}))

    L_other = LogicalScenario(space, quad_binder, TimeGrid(0.1, 101))
    target = realize(L_slope, (2.5,))
    hit = invert_over_binders([L_other, L_slope], target, tol=1e-6)
    assert isinstance(hit, tuple)
    index, found = hit
    assert index == 1
    assert abs(found.x[0] - 2.5) <= 1e-6

    zero = trajectory_from_values(schema, 0.1, [[100.0]] * 101)
    miss = invert_over_binders([L_other, L_slope], zero, tol=1e-6)
    assert isinstance(miss, NotInImage)
