import copy
import dataclasses
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scenkit.core import (
    Dimension,
    Scene,
    SceneSchema,
    TimeGrid,
    Trajectory,
    extend,
    is_prefix,
    prefix,
    scene_distance,
    schema_of,
    trajectory_distance,
    trajectory_from_values,
)
from scenkit.errors import GridAlignmentError, RangeError, SchemaError
from scenkit.traceio import read_schema, write_schema

from conftest import make_trajectory

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def scenes(schema, k=4):
    return st.tuples(*([finite] * k)).map(lambda v: Scene(schema, v))


# --- schemas and scenes -------------------------------------------------------


def test_schema_rejects_duplicate_names():
    with pytest.raises(SchemaError):
        schema_of(("x", "m"), ("x", "m"))


def test_schema_rejects_empty():
    with pytest.raises(SchemaError):
        SceneSchema(())


def test_schema_rejects_unknown_unit():
    with pytest.raises(SchemaError):
        schema_of(("x", "furlong"))


PLANE_DIMS = (("x", "m"), ("y", "m"), ("vx", "m/s"), ("vy", "m/s"))


@pytest.mark.parametrize(
    "a, b, equal",
    [
        (PLANE_DIMS, PLANE_DIMS, True),
        (PLANE_DIMS, PLANE_DIMS[::-1], False),
        (PLANE_DIMS, PLANE_DIMS[:3] + (("vy", "m/s^2"),), False),
        (PLANE_DIMS, PLANE_DIMS[:3] + (("w", "m/s"),), False),
        (PLANE_DIMS, PLANE_DIMS[:3], False),
        ((("lane", "enum"),), (("lane", "enum-code"),), True),
        ((("a", "m/s²"),), (("a", "m/s^2"),), True),
    ],
    ids=["built-apart", "reordered", "unit-changed", "name-changed", "shorter", "enum-alias",
         "accel-alias"],
)
def test_schema_equality_and_hash(a, b, equal):
    sa, sb = schema_of(*a), schema_of(*b)
    assert (sa is sb) is equal
    assert (sa == sb) is equal and (sa != sb) is not equal
    if equal:
        assert hash(sa) == hash(sb)


ALIASED = schema_of(("x", "m"), ("a", "m/s²"), ("lane", "enum"))


@pytest.mark.parametrize(
    "build",
    [
        lambda: schema_of(("x", "m"), ("a", "m/s^2"), ("lane", "enum-code")),
        lambda: schema_of(("x", "m"), ("a", "m/s²"), ("lane", "enum")),
        lambda: SceneSchema((("x", "m"), ("a", "m/s²"), ("lane", "enum"))),
        lambda: SceneSchema(dimensions=(Dimension("x", "m"), ("a", "m/s^2"), ("lane", "enum"))),
        *(
            lambda protocol=protocol: pickle.loads(pickle.dumps(ALIASED, protocol))
            for protocol in range(6)
        ),
        lambda: copy.copy(ALIASED),
        lambda: copy.deepcopy(ALIASED),
        lambda: dataclasses.replace(ALIASED),
        lambda: dataclasses.replace(ALIASED, dimensions=(("x", "m"), ("a", "m/s²"), ("lane", "enum"))),
    ],
    ids=["apart", "aliases", "raw-tuples", "keyword", "pickle-0", "pickle-1", "pickle-2",
         "pickle-3", "pickle-4", "pickle-5", "copy", "deepcopy", "replace", "replace-raw"],
)
def test_equal_schemas_are_one_object(build):
    assert build() is ALIASED


def test_a_trace_sidecar_reads_back_the_same_schema(tmp_path):
    write_schema(ALIASED, tmp_path / "s.schema.json")
    assert read_schema(tmp_path / "s.schema.json") is ALIASED


def test_schema_repr_and_pickle():
    schema = schema_of(("x", "m"), ("lane", "enum"))
    assert repr(schema) == (
        "SceneSchema(dimensions=(Dimension(name='x', unit='m'), "
        "Dimension(name='lane', unit='enum-code')))"
    )
    copy = pickle.loads(pickle.dumps(schema))
    assert copy == schema and hash(copy) == hash(schema)
    assert copy.dimensions == schema.dimensions and copy.index("lane") == 1


def test_scene_rejects_nan(plane):
    with pytest.raises(SchemaError):
        Scene(plane, (0.0, 0.0, math.nan, 0.0))


def test_scene_rejects_wrong_arity(plane):
    with pytest.raises(SchemaError):
        Scene(plane, (1.0, 2.0))


def test_enum_dims_hold_integers():
    schema = schema_of(("kind", "enum-code"))
    Scene(schema, (3.0,))
    with pytest.raises(SchemaError):
        Scene(schema, (3.5,))


@pytest.mark.parametrize("values", ["12", b"12", bytearray(b"12")])
def test_scene_refuses_a_string_of_values(values):
    # A string is not a vector: neither its characters nor its bytes are values.
    with pytest.raises(SchemaError, match="scene values must be numbers"):
        Scene(schema_of(("x", "m"), ("y", "m")), values)


def test_trajectory_refuses_samples_that_are_not_scenes(line):
    with pytest.raises(SchemaError, match=r"sample \(0.0,\) is not a Scene"):
        Trajectory(line, TimeGrid(1.0, 2), ((0.0,), (1.0,)))


def test_scene_lookup_by_name(plane):
    s = Scene(plane, (1.0, 2.0, 3.0, 4.0))
    assert s["vx"] == 3.0
    assert s.replace(vx=9.0)["vx"] == 9.0


# --- the scene metric ----------------------------------------------------------


def test_distance_identity(plane):
    s = Scene(plane, (1.0, -2.0, 3.0, 4.5))
    assert scene_distance(s, s) == 0.0


def test_distance_three_four_five(plane):
    a = Scene(plane, (0.0, 0.0, 0.0, 0.0))
    b = Scene(plane, (3.0, 4.0, 0.0, 0.0))
    assert scene_distance(a, b) == 5.0


def test_distance_schema_mismatch(plane, line):
    with pytest.raises(SchemaError):
        scene_distance(Scene(plane, (0, 0, 0, 0)), Scene(line, (0,)))


def test_distance_symmetry_on_random_pairs(plane):
    rng = random.Random(42)
    for _ in range(100):
        a = Scene(plane, tuple(rng.uniform(-100, 100) for _ in range(4)))
        b = Scene(plane, tuple(rng.uniform(-100, 100) for _ in range(4)))
        assert scene_distance(a, b) == scene_distance(b, a)


def test_metric_axioms_on_random_triples(plane):
    rng = random.Random(7)
    for _ in range(1000):
        a, b, c = (
            Scene(plane, tuple(rng.uniform(-50, 50) for _ in range(4)))
            for _ in range(3)
        )
        dab, dbc, dac = scene_distance(a, b), scene_distance(b, c), scene_distance(a, c)
        assert dac <= dab + dbc + 1e-12
        assert dab >= 0
        if a.values != b.values:
            assert dab > 0


@given(scenes(schema_of(("x", "m"), ("y", "m"), ("vx", "m/s"), ("vy", "m/s"))),
       scenes(schema_of(("x", "m"), ("y", "m"), ("vx", "m/s"), ("vy", "m/s"))))
def test_distance_symmetric_hypothesis(a, b):
    assert scene_distance(a, b) == scene_distance(b, a)


@given(
    st.lists(finite, min_size=1, max_size=20),
    st.integers(min_value=0, max_value=19),
)
def test_prefix_extend_roundtrip_hypothesis(values, cut):
    schema = schema_of(("pos", "m"))
    c = make_trajectory(schema, [[v] for v in values], step=0.5)
    cut = min(cut, len(values) - 1)
    upto = c.grid.t(cut)
    assert extend(prefix(c, upto), c.samples[cut + 1 :]) == c


@given(st.lists(finite, min_size=1, max_size=12), st.lists(finite, max_size=6))
def test_extension_always_has_base_as_prefix(values, tail_values):
    schema = schema_of(("pos", "m"))
    c = make_trajectory(schema, [[v] for v in values], step=0.5)
    tail = tuple(Scene(schema, (v,)) for v in tail_values)
    assert is_prefix(c, extend(c, tail))


# --- grids ---------------------------------------------------------------------


def test_grid_basics():
    g = TimeGrid(0.1, 201)
    assert g.duration == pytest.approx(20.0)
    assert g.t(0) == 0.0
    assert g.index_of(10.0) == 100


def test_grid_rejects_bad_step():
    with pytest.raises(RangeError):
        TimeGrid(0.0, 5)
    with pytest.raises(RangeError):
        TimeGrid(0.1, 0)


@pytest.mark.parametrize("step", [math.inf, 1e400])
def test_grid_refuses_an_infinite_step(step):
    with pytest.raises(RangeError, match="grid step must be finite, got inf"):
        TimeGrid(step, 2)


@pytest.mark.parametrize("count", [2.5, 2.0, "2"])
def test_grid_refuses_a_count_that_is_not_a_whole_number(count):
    with pytest.raises(RangeError, match="grid count must be a whole number"):
        TimeGrid(1.0, count)


def test_grid_alignment_error():
    g = TimeGrid(0.1, 201)
    with pytest.raises(GridAlignmentError):
        g.index_of(0.05)
    with pytest.raises(RangeError):
        g.index_of(25.0)


# --- structural operations ------------------------------------------------------


def straight(schema, n=11, step=0.1):
    rows = [(i * step * 10, 100 - 5 * i * step, 10.0, -5.0) for i in range(n)]
    return make_trajectory(schema, rows, step)


def test_prefix_full_length_is_identity(plane):
    c = straight(plane)
    assert prefix(c, c.duration) == c


def test_prefix_zero_is_start_only(plane):
    c = straight(plane)
    p = prefix(c, 0.0)
    assert p.grid.count == 1
    assert p.samples[0] == c.samples[0]


def test_prefix_misaligned_raises(plane):
    c = straight(plane)
    with pytest.raises(GridAlignmentError):
        prefix(c, 0.05)
    with pytest.raises(RangeError):
        prefix(c, 100.0)


def test_extend_empty_is_identity(plane):
    c = straight(plane)
    assert extend(c, ()) == c


def test_extend_prefix_roundtrip(plane):
    c = straight(plane)
    for i in range(1, c.grid.count):
        upto = c.grid.t(i - 1)
        rebuilt = extend(prefix(c, upto), c.samples[i:])
        assert rebuilt == c


def test_extend_associates(plane):
    rng = random.Random(3)
    c = straight(plane, n=4)
    a = tuple(Scene(plane, tuple(rng.uniform(-9, 9) for _ in range(4))) for _ in range(3))
    b = tuple(Scene(plane, tuple(rng.uniform(-9, 9) for _ in range(4))) for _ in range(2))
    assert extend(extend(c, a), b) == extend(c, a + b)


def test_prefix_of_drive_at_halfway_point(plane):
    from scenkit.fixtures import straight_drive_trajectory

    half = prefix(straight_drive_trajectory(), 10.0)
    assert half.samples[-1].values == (50.0, 50.0, 10.0, -5.0)
    assert half.duration == pytest.approx(10.0)


def test_is_prefix_reflexive_and_of_prefix(plane):
    c = straight(plane)
    assert is_prefix(c, c)
    for i in range(c.grid.count):
        assert is_prefix(prefix(c, c.grid.t(i)), c)
    assert is_prefix(c, extend(c, (c.samples[-1],)))


def test_is_prefix_detects_start_disagreement(plane):
    a = straight(plane)
    rows = [list(s.values) for s in a.samples]
    rows[0][0] += 1.0
    b = make_trajectory(plane, rows)
    assert not is_prefix(a, b)
    assert not is_prefix(b, a)


def test_is_prefix_step_mismatch(plane):
    a = straight(plane, step=0.1)
    b = straight(plane, step=0.2)
    with pytest.raises(GridAlignmentError):
        is_prefix(a, b)


def test_a_one_point_grid_has_no_step_to_compare(line):
    # A one-row trace reads back with step 1.0, whatever the step it was
    # written from: one-point grids compare by their count alone.
    fine, coarse = make_trajectory(line, [[2.0]], step=0.1), make_trajectory(line, [[2.0]], step=1.0)
    moved = make_trajectory(line, [[-1.0]], step=1.0)
    assert trajectory_distance(fine, coarse) == 0.0
    assert trajectory_distance(fine, moved) == 3.0
    assert is_prefix(fine, coarse) and is_prefix(coarse, fine)
    assert not is_prefix(fine, moved)
    # Against more points, the counts differ; the prefix order holds.
    longer = make_trajectory(line, [[2.0], [3.0]], step=0.1)
    with pytest.raises(GridAlignmentError, match="different grids"):
        trajectory_distance(coarse, longer)
    assert is_prefix(coarse, longer)
    assert not is_prefix(longer, coarse)
    assert not is_prefix(make_trajectory(line, [[2.0], [3.0]], step=1.0), coarse)
    # Two points or more keep the exact comparison.
    with pytest.raises(GridAlignmentError, match="different grids"):
        trajectory_distance(longer, make_trajectory(line, [[2.0], [3.0]], step=1.0))
    with pytest.raises(GridAlignmentError, match="grid steps differ"):
        is_prefix(longer, make_trajectory(line, [[2.0], [3.0], [4.0]], step=1.0))


def test_is_prefix_partial_order(plane):
    rng = random.Random(11)
    base = straight(plane, n=6)
    family = [prefix(base, base.grid.t(i)) for i in range(6)]
    for _ in range(200):
        a, b, c = (family[rng.randrange(len(family))] for _ in range(3))
        assert is_prefix(a, a)
        if is_prefix(a, b) and is_prefix(b, a):
            assert a == b
        if is_prefix(a, b) and is_prefix(b, c):
            assert is_prefix(a, c)


def test_trajectory_distance_sup(plane):
    c = straight(plane)
    assert trajectory_distance(c, c) == 0.0
    rows = [list(s.values) for s in c.samples]
    rows[5][0] += 0.25
    d = make_trajectory(plane, rows)
    assert trajectory_distance(c, d) == pytest.approx(0.25)
    assert trajectory_distance(d, c) == trajectory_distance(c, d)


@given(
    st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.tuples(
            st.lists(st.tuples(*[finite] * 4), min_size=n, max_size=n),
            st.lists(st.tuples(*[finite] * 4), min_size=n, max_size=n),
        )
    ),
    st.booleans(),
)
def test_trajectory_distance_is_the_max_scene_distance(rows, identical):
    # One square root of the largest squared distance gives the same bits
    # as the largest of the per-sample distances.
    plane = schema_of(("x", "m"), ("y", "m"), ("vx", "m/s"), ("vy", "m/s"))
    a = make_trajectory(plane, rows[0])
    b = a if identical else make_trajectory(plane, rows[1])
    expected = max(scene_distance(x, y) for x, y in zip(a.samples, b.samples))
    got = trajectory_distance(a, b)
    assert math.copysign(1.0, got) == math.copysign(1.0, expected)
    assert got == expected
    if identical:
        assert got == 0.0


def test_distances_overflow_to_inf():
    # Two coordinates each 1.5e308 off: the distance, about 2.1e308,
    # passes the largest float.
    pair = schema_of(("x", "m"), ("y", "m"))
    a, b = Scene(pair, (1.5e308, 0.0)), Scene(pair, (0.0, -1.5e308))
    assert scene_distance(a, b) == math.inf
    far = make_trajectory(pair, [[0.0, 0.0], [1.5e308, 0.0]])
    near = make_trajectory(pair, [[0.0, 0.0], [0.0, -1.5e308]])
    assert trajectory_distance(far, near) == math.inf
    assert trajectory_distance(far, far) == 0.0


def test_distances_neither_overflow_nor_underflow_short_of_the_float_range(line):
    # Differences whose squares would pass the largest float, or fall
    # below the smallest subnormal.
    assert scene_distance(Scene(line, (1e200,)), Scene(line, (-1e200,))) == 2e200
    assert scene_distance(Scene(line, (0.0,)), Scene(line, (1e-200,))) == 1e-200
    pair = schema_of(("x", "m"), ("y", "m"))
    assert scene_distance(Scene(pair, (0.0, 0.0)), Scene(pair, (3e-200, 4e-200))) == 5e-200
    near = make_trajectory(line, [[0.0], [1e-200]])
    assert trajectory_distance(near, make_trajectory(line, [[0.0], [0.0]])) == 1e-200


#: Scale of the exact reference: 2**-_EXACT_BITS is far below the
#: smallest subnormal, 2**-1074.
_EXACT_BITS = 1200


def _exact_distance_bracket(a, b):
    """Rationals lo <= d < hi, hi - lo = 2**-_EXACT_BITS, around the exact
    Euclidean norm d of the float differences ``x - y`` of two scenes,
    which is what ``_values_distance`` computes: each difference rounded
    to a float, as the distance takes it, then the squares as Fractions,
    and the square root by ``math.isqrt`` on a scaled integer."""
    s = sum(Fraction(x - y) ** 2 for x, y in zip(a.values, b.values))
    r = math.isqrt((s.numerator << (2 * _EXACT_BITS)) // s.denominator)
    return Fraction(r, 1 << _EXACT_BITS), Fraction(r + 1, 1 << _EXACT_BITS)


wide = (
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)
    | st.floats(min_value=-1e-300, max_value=1e-300)
    | finite
)


@given(st.lists(st.tuples(wide, wide), min_size=1, max_size=6))
# A difference that is no float: 9144825521937207 rounds to ...208.
@example(pairs=[(2309833316973789.0, -6834992204963418.0)] * 2)
def test_scene_distance_is_within_one_ulp_of_the_exact_distance(pairs):
    # The float below the result is below the exact distance of the float
    # differences and the one above it above: the result is one of the two
    # floats around it, or the distance itself when that is a float.
    schema = schema_of(*((f"d{i}", "m") for i in range(len(pairs))))
    a = Scene(schema, tuple(p[0] for p in pairs))
    b = Scene(schema, tuple(p[1] for p in pairs))
    got = scene_distance(a, b)
    lo, hi = _exact_distance_bracket(a, b)
    assert Fraction(math.nextafter(got, -math.inf)) < lo
    assert hi <= Fraction(math.nextafter(got, math.inf))


def _scaled(mantissa, exponent, negative):
    return math.copysign(math.ldexp(mantissa, exponent), -1.0 if negative else 1.0)


#: Floats of every binade, subnormals and zero included.
any_magnitude = st.builds(
    _scaled, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1074, 1023), st.booleans()
) | st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=2000)
@given(st.lists(any_magnitude, min_size=1, max_size=6))
def test_hypot_is_never_below_its_largest_argument(d):
    # The one-coordinate rule of ``formulas._values_match`` rests on this.
    assert math.hypot(*d) >= max(map(abs, d))


def test_trajectory_distance_grid_mismatch(plane):
    with pytest.raises(GridAlignmentError):
        trajectory_distance(straight(plane, n=5), straight(plane, n=6))


def test_start_is_first_sample(plane):
    c = straight(plane)
    assert c.start == c.samples[0]


def test_interpolation_midpoint(plane):
    c = straight(plane)
    mid = c.at(0.05)
    assert mid["x"] == pytest.approx(0.5)
    assert mid["vx"] == 10.0


def test_jump_detection(line):
    rows = [[0.0], [0.5], [60.0], [60.5]]
    t = make_trajectory(line, rows, step=0.1)
    assert t.jumps(kappa=100.0) == (1,)
    assert t.jumps(kappa=10000.0) == ()


def test_trajectory_from_values_validates(line):
    with pytest.raises(SchemaError):
        trajectory_from_values(line, 0.1, [[0.0, 1.0]])
