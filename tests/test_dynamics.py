import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenkit.core import Scene, TimeGrid, Trajectory, schema_of
from scenkit.dynamics import (
    CONTRADICTION_TOL,
    AttributeLevelScenario,
    DeterministicModel,
    TruncatedResult,
    check_semigroup,
    clock_model,
    combine,
    constant_acceleration,
    constant_velocity,
    drift,
    evaluate,
    family_of,
    stop_at,
    waypoint_follower,
)
from scenkit.errors import (
    DomainExceededError,
    OwnershipError,
    RangeError,
    SchemaError,
    TruncationError,
)
from scenkit.fixtures import straight_drive_scenario


@pytest.fixture
def clocked():
    return schema_of(
        ("clock", "s"), ("x", "m"), ("y", "m"), ("vx", "m/s"), ("vy", "m/s")
    )


# --- evolution laws -------------------------------------------------------------


def built_ins(plane, clocked):
    return [
        constant_velocity(plane, 10.0, -5.0),
        constant_acceleration(plane, 1.5, -0.5),
        drift(plane, {"x": 3.0, "vy": 0.25}),
        stop_at(clocked, 7.0),
        waypoint_follower(clocked, [(0, 0, 0), (5, 50, 3.5), (12, 120, 0)]),
        clock_model(clocked),
    ]


def test_identity_and_semigroup_for_every_built_in(plane, clocked):
    for model in built_ins(plane, clocked):
        report = check_semigroup(model, trials=1000, rng_seed=13)
        assert report.passed, (model.id, report)


def test_broken_model_fails_check(plane):
    def sq(thetas, v):
        return ([v[0] + theta * theta for theta in thetas],)

    broken = DeterministicModel("sq", plane, math.inf, sq, owns=("x",))
    assert not check_semigroup(broken, trials=200, rng_seed=5).passed


def test_check_semigroup_needs_trials(plane):
    with pytest.raises(RangeError):
        check_semigroup(constant_velocity(plane, 1, 1), trials=0)


# --- evaluation -------------------------------------------------------------------


def test_straight_drive_matches_closed_form():
    traj = evaluate(straight_drive_scenario())
    assert isinstance(traj, Trajectory)
    for i, s in enumerate(traj.samples):
        t = i * 0.1
        expected = (-50.0 + 10.0 * t, 100.0 - 5.0 * t, 10.0, -5.0)
        assert s.values == expected
    assert traj.samples[-1].values == (150.0, 0.0, 10.0, -5.0)


def test_identity_model_gives_constant_trajectory(plane):
    model = DeterministicModel("hold", plane, math.inf, lambda ths, v: [[x] * len(ths) for x in v])
    start = Scene(plane, (1.0, 2.0, 3.0, 4.0))
    traj = evaluate(AttributeLevelScenario(start, family_of(model), TimeGrid(0.1, 50)))
    assert all(s == start for s in traj.samples)


def test_evaluate_is_bit_deterministic():
    a = evaluate(straight_drive_scenario())
    b = evaluate(straight_drive_scenario())
    assert a == b


def test_first_sample_equals_start(plane):
    scen = straight_drive_scenario()
    traj = evaluate(scen)
    assert traj.samples[0] == scen.start


def test_domain_exceeded_reports_t_sup(plane):
    model = constant_velocity(plane, 1.0, 0.0)
    bounded = DeterministicModel(
        "bounded", plane, 5.0, model.evolve_fn, owns=model.owns
    )
    scen = AttributeLevelScenario(
        Scene(plane, (0, 0, 0, 0)), family_of(bounded), TimeGrid(0.1, 201)
    )
    with pytest.raises(DomainExceededError) as err:
        evaluate(scen)
    assert err.value.t_sup == 5.0


# --- family combination ----------------------------------------------------------


def divergent_family(line):
    # Members agree until the drift difference crosses the contradiction
    # threshold; locating the first divergent grid point independently is
    # the oracle for the truncation boundary below.
    a = drift(line, {"pos": 0.0}, id="a")
    b = drift(line, {"pos": 2.02e-7}, id="b")
    return combine([a, b], epsilon=0.1, shared=("pos",))


def first_divergence(step=0.1, tol=1e-6):
    i = 0
    while True:
        if abs(2.02e-7 * (i * step) - 0.0) > tol:
            return i * step
        i += 1


def test_contradiction_truncates_at_t_minus_epsilon(line):
    scen = AttributeLevelScenario(
        Scene(line, (0.0,)), divergent_family(line), TimeGrid(0.1, 201)
    )
    result = evaluate(scen, allow_truncation=True)
    assert isinstance(result, TruncatedResult)
    t_c = first_divergence()
    assert result.contradiction_time == t_c
    assert result.trajectory.duration == pytest.approx(t_c - 0.1)
    assert result.trajectory.grid.count == 50


def test_contradiction_raises_by_default(line):
    scen = AttributeLevelScenario(
        Scene(line, (0.0,)), divergent_family(line), TimeGrid(0.1, 201)
    )
    with pytest.raises(TruncationError) as err:
        evaluate(scen)
    assert err.value.result.contradiction_time == first_divergence()


def test_combine_validations(plane, line):
    with pytest.raises(SchemaError):
        combine([], epsilon=0.1)
    with pytest.raises(SchemaError):
        combine([constant_velocity(plane, 1, 1), drift(line, {"pos": 1})], epsilon=0.1)
    with pytest.raises(RangeError):
        combine([constant_velocity(plane, 1, 1)], epsilon=0.0)
    with pytest.raises(OwnershipError):
        combine(
            [drift(plane, {"x": 1.0}, id="a"), drift(plane, {"x": 2.0}, id="b")],
            epsilon=0.1,
        )


def test_single_member_family_has_full_domain(plane):
    model = constant_velocity(plane, 2.0, 0.0)
    fam = family_of(model)
    assert fam.theta_max == math.inf
    traj = evaluate(
        AttributeLevelScenario(Scene(plane, (0, 0, 0, 0)), fam, TimeGrid(0.1, 11))
    )
    assert isinstance(traj, Trajectory)
    assert traj.samples[-1]["x"] == pytest.approx(2.0)


def test_disjoint_ownership_never_contradicts(plane):
    fam = combine(
        [drift(plane, {"x": 1.0}, id="a"), drift(plane, {"y": -1.0}, id="b")],
        epsilon=0.1,
    )
    traj = evaluate(
        AttributeLevelScenario(Scene(plane, (0, 0, 0, 0)), fam, TimeGrid(0.1, 101))
    )
    assert isinstance(traj, Trajectory)


def test_family_projection_matches_member_alone(plane):
    a = drift(plane, {"x": 1.5}, id="a")
    b = drift(plane, {"y": -2.5}, id="b")
    fam = combine([a, b], epsilon=0.1)
    grid = TimeGrid(0.1, 51)
    start = Scene(plane, (3.0, 4.0, 0.0, 0.0))
    joint = evaluate(AttributeLevelScenario(start, fam, grid))
    solo = evaluate(AttributeLevelScenario(start, family_of(a), grid))
    for js, ss in zip(joint.samples, solo.samples):
        assert js["x"] == ss["x"]


def test_unowned_dims_stay_at_start(plane):
    fam = family_of(drift(plane, {"x": 1.0}))
    traj = evaluate(
        AttributeLevelScenario(Scene(plane, (0, 7, 8, 9)), fam, TimeGrid(0.1, 11))
    )
    assert traj.samples[-1]["y"] == 7.0
    assert traj.samples[-1]["vy"] == 9.0


# --- clock-driven built-ins --------------------------------------------------------


def test_stop_at_freezes_after_stop_time(clocked):
    model = stop_at(clocked, t_stop=2.0)
    start = Scene(clocked, (0.0, 1.0, 1.0, 3.0, -1.0))
    traj = evaluate(AttributeLevelScenario(start, family_of(model), TimeGrid(0.5, 11)))
    moving = traj.samples[2]  # t = 1.0
    assert moving["x"] == pytest.approx(4.0)
    stopped = traj.samples[-1]  # t = 5.0
    assert stopped["x"] == pytest.approx(1.0 + 3.0 * 2.0)
    assert stopped["vx"] == 0.0 and stopped["vy"] == 0.0


def test_stop_at_requires_clock(plane):
    with pytest.raises(SchemaError):
        stop_at(plane, 2.0)


def test_waypoint_follower_hits_knots_exactly(clocked):
    model = waypoint_follower(clocked, [(0, 0, 0), (2, 10, 3.5), (4, 30, 0)])
    fam = family_of(model)
    traj = evaluate(
        AttributeLevelScenario(
            fam.evolve(0.0, Scene(clocked, (0.0,) * 5)), fam, TimeGrid(0.5, 9)
        )
    )
    assert traj.samples[0].values[1:3] == (0.0, 0.0)
    assert traj.samples[4].values[1:3] == (10.0, 3.5)
    assert traj.samples[8].values[1:3] == (30.0, 0.0)
    # Derived velocity is the slope of the segment starting at the sample.
    assert traj.samples[0]["vx"] == pytest.approx(5.0)
    assert traj.samples[4]["vx"] == pytest.approx(10.0)
    assert traj.samples[8]["vx"] == 0.0


def test_waypoint_rejects_unsorted_times(clocked):
    with pytest.raises(RangeError):
        waypoint_follower(clocked, [(0, 0, 0), (0, 1, 1)])


def test_shared_clock_families_combine(clocked):
    a = waypoint_follower(
        clocked, [(0, 0, 0), (10, 100, 0)], x="x", y="y", vx="vx", vy="vy", id="a"
    )
    schema2 = schema_of(
        ("clock", "s"),
        ("x", "m"), ("y", "m"), ("vx", "m/s"), ("vy", "m/s"),
        ("x2", "m"), ("y2", "m"), ("vx2", "m/s"), ("vy2", "m/s"),
    )
    a = waypoint_follower(schema2, [(0, 0, 0), (10, 100, 0)], id="a")
    b = waypoint_follower(
        schema2, [(0, 50, 3.5), (10, -50, 3.5)],
        x="x2", y="y2", vx="vx2", vy="vy2", id="b",
    )
    fam = combine([a, b], epsilon=0.1, shared=("clock",))
    traj = evaluate(
        AttributeLevelScenario(
            fam.evolve(0.0, Scene(schema2, (0.0,) * 9)), fam, TimeGrid(0.5, 21)
        )
    )
    assert isinstance(traj, Trajectory)
    assert traj.samples[-1]["x"] == pytest.approx(100.0)
    assert traj.samples[-1]["x2"] == pytest.approx(-50.0)
    assert traj.samples[-1]["clock"] == pytest.approx(10.0)


def test_model_rejects_theta_outside_domain(plane):
    model = DeterministicModel(
        "bounded", plane, 1.0, lambda ths, v: (), owns=()
    )
    with pytest.raises(RangeError):
        model.evolve(2.0, Scene(plane, (0, 0, 0, 0)))
    with pytest.raises(RangeError):
        model.evolve(-0.1, Scene(plane, (0, 0, 0, 0)))


# --- the tuple path against the public, validating evolve ------------------------------


def reference_evaluate(scenario):
    """``evaluate(scenario, allow_truncation=True)`` as every member evolving
    through the public ``DeterministicModel.evolve``, the returned Scenes
    merged by ``owned_names()``; None for members that contradict at
    t = 0, where no sample is consistent."""
    family, start, grid = scenario.family, scenario.start, scenario.grid
    schema = family.schema
    samples = []
    for i in range(grid.count):
        theta = grid.t(i)
        outputs = [m.evolve(theta, start) for m in family.members]
        for name in family.shared:
            vals = [
                out[name] for m, out in zip(family.members, outputs)
                if name in m.owned_names()
            ]
            if len(vals) > 1 and max(vals) - min(vals) > CONTRADICTION_TOL:
                if not samples:
                    return None
                keep_until = theta - family.epsilon
                keep = max(1, 1 + math.floor(keep_until / grid.step + 1e-9))
                keep = min(keep, len(samples))
                truncated = Trajectory(
                    schema, TimeGrid(grid.step, keep), tuple(samples[:keep])
                )
                return TruncatedResult(truncated, theta, t_sup=keep_until)
        vals = list(start.values)
        for m, out in zip(family.members, outputs):
            for name in m.owned_names():
                vals[schema.index(name)] = out[name]
        samples.append(Scene(schema, tuple(vals)))
    return Trajectory(schema, grid, tuple(samples))


def bits(traj):
    return [[v.hex() for v in s.values] for s in traj.samples]


WIDE = schema_of(
    ("clock", "s"), ("x", "m"), ("y", "m"), ("vx", "m/s"), ("vy", "m/s"),
    ("x2", "m"), ("y2", "m"), ("vx2", "m/s"), ("vy2", "m/s"), ("p", "m"),
)
SECOND_CAR = dict(x="x2", y="y2", vx="vx2", vy="vy2")
rates = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)
values = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
MEMBER_KINDS = ["velocity", "acceleration", "drift", "stop", "waypoint", "clock"]


@st.composite
def library_member(draw, kind):
    car = draw(st.sampled_from([{}, SECOND_CAR]))
    if kind == "velocity":
        xy = {k: v for k, v in car.items() if k in ("x", "y")}
        return constant_velocity(WIDE, draw(rates), draw(rates), **xy)
    if kind == "acceleration":
        return constant_acceleration(WIDE, draw(rates), draw(rates), **car)
    if kind == "drift":
        dims = draw(st.lists(st.sampled_from(WIDE.names[1:]), min_size=1, unique=True))
        return drift(WIDE, {d: draw(rates) for d in dims})
    if kind == "stop":
        return stop_at(WIDE, draw(st.floats(min_value=0.0, max_value=10.0)), **car)
    if kind == "waypoint":
        times = draw(st.lists(
            st.integers(min_value=0, max_value=40), min_size=1, max_size=4, unique=True
        ))
        knots = [(t * 0.25, draw(values), draw(values)) for t in times]
        return waypoint_follower(WIDE, knots, **car)
    return clock_model(WIDE)


def library_members():
    return st.sampled_from(MEMBER_KINDS).flatmap(library_member)


@st.composite
def library_scenarios(draw):
    members = draw(st.lists(library_members(), min_size=1, max_size=4))
    if draw(st.booleans()):
        # A contradicting pair: the drifts part after about 5e-7 / rate s.
        rate = draw(st.floats(min_value=1e-7, max_value=1e-5))
        members += [drift(WIDE, {"p": 0.0}, id="p0"), drift(WIDE, {"p": rate}, id="p1")]
    writers = {}
    for m in members:
        for name in m.owned_names():
            writers[name] = writers.get(name, 0) + 1
    shared = [name for name, n in writers.items() if n > 1]
    family = combine(members, epsilon=draw(st.sampled_from([0.1, 0.25, 1.0])), shared=shared)
    start = Scene(WIDE, tuple(draw(values) for _ in range(WIDE.k)))
    grid = TimeGrid(draw(st.sampled_from([0.1, 0.25, 0.5])), draw(st.integers(1, 40)))
    return AttributeLevelScenario(start, family, grid)


@settings(max_examples=300, deadline=None)
@given(library_scenarios())
def test_evaluate_matches_public_evolve_reference(scenario):
    want = reference_evaluate(scenario)
    if want is None:
        # Members that contradict at t = 0 leave no sample to keep.
        for allow in (True, False):
            with pytest.raises(TruncationError) as err:
                evaluate(scenario, allow_truncation=allow)
            assert err.value.result is None
        return
    got = evaluate(scenario, allow_truncation=True)
    assert type(got) is type(want)
    if isinstance(want, TruncatedResult):
        assert got.contradiction_time == want.contradiction_time
        assert got.t_sup == want.t_sup
        assert got.trajectory.grid == want.trajectory.grid
        assert bits(got.trajectory) == bits(want.trajectory)
        with pytest.raises(TruncationError) as err:
            evaluate(scenario)
        assert err.value.result == want
    else:
        assert got.grid == want.grid
        assert bits(got) == bits(want)
        assert evaluate(scenario) == got


def test_contradiction_at_the_first_grid_point_leaves_no_result():
    a = waypoint_follower(WIDE, [(0.0, 0.0, 0.0), (2.0, 10.0, 0.0)], id="a")
    b = waypoint_follower(WIDE, [(0.0, 5.0, 0.0), (2.0, 15.0, 0.0)], id="b")
    family = combine([a, b], epsilon=0.1, shared=["clock", "x", "y", "vx", "vy"])
    scenario = AttributeLevelScenario(Scene(WIDE, (0.0,) * WIDE.k), family, TimeGrid(0.5, 5))
    for allow in (True, False):
        with pytest.raises(TruncationError, match="at t=0.0") as err:
            evaluate(scenario, allow_truncation=allow)
        assert err.value.result is None


def custom(evolve_fn, owns=("x",)):
    return DeterministicModel("custom", WIDE, math.inf, evolve_fn, owns=owns)


@pytest.mark.parametrize(
    "evolve_fn",
    [
        lambda ths, v: (),
        lambda ths, v: ([v[1]] * len(ths), [0.0] * len(ths)),
        lambda ths, v: ([math.nan] * len(ths),),
    ],
    ids=["short", "long", "nan-owned"],
)
def test_bad_member_output_raises_schema_error(evolve_fn):
    model = custom(evolve_fn)
    start = Scene(WIDE, (0.0,) * WIDE.k)
    fam = combine([model, clock_model(WIDE)], epsilon=0.1)
    with pytest.raises(SchemaError):
        model.evolve(0.5, start)
    with pytest.raises(SchemaError):
        fam.evolve(0.5, start)
    with pytest.raises(SchemaError):
        evaluate(AttributeLevelScenario(start, fam, TimeGrid(0.1, 5)))


@pytest.mark.parametrize(
    "evolve_fn, message",
    [
        (lambda ths, v: (), "returned 0 columns for 1 owned dims"),
        (lambda ths, v: (ths, ths), "returned 2 columns for 1 owned dims"),
        (lambda ths, v: (ths[1:],), "returned a column of {short} for {n} times"),
        (lambda ths, v: ([0.0, *ths],), "returned a column of {long} for {n} times"),
    ],
    ids=["no-column", "extra-column", "short-column", "long-column"],
)
def test_a_wrong_column_count_or_length_raises_schema_error_naming_the_model(
    evolve_fn, message
):
    model = custom(evolve_fn)
    start = Scene(WIDE, (0.0,) * WIDE.k)
    fam = combine([clock_model(WIDE), model], epsilon=0.1)
    for n, call in [
        (1, lambda: model.evolve(0.5, start)),
        (1, lambda: fam.evolve(0.5, start)),
        (5, lambda: evaluate(AttributeLevelScenario(start, fam, TimeGrid(0.1, 5)))),
    ]:
        want = "model 'custom' " + message.format(short=n - 1, long=n + 1, n=n)
        with pytest.raises(SchemaError) as err:
            call()
        assert str(err.value) == want


def test_nan_from_any_writer_of_a_shared_dim_raises_schema_error():
    nan_clock = custom(lambda ths, v: ([math.nan] * len(ths),), owns=("clock",))
    fam = combine([nan_clock, clock_model(WIDE)], epsilon=0.1, shared=("clock",))
    start = Scene(WIDE, (0.0,) * WIDE.k)
    with pytest.raises(SchemaError):
        evaluate(AttributeLevelScenario(start, fam, TimeGrid(0.1, 5)))


def _string_pos(ths, v):
    return ([repr(0.5 * t) for t in ths],)


def test_shared_writers_are_read_as_the_scene_check_reads_them():
    # Values that the Scene check reads through ``float`` give the same
    # trajectory from one writer and from two that agree.
    alone = combine([custom(_string_pos, owns=("p",))], epsilon=0.1)
    pair = combine(
        [custom(_string_pos, owns=("p",)), custom(_string_pos, owns=("p",))],
        epsilon=0.1,
        shared=("p",),
    )
    start, grid = Scene(WIDE, (0.0,) * WIDE.k), TimeGrid(0.1, 5)
    want = evaluate(AttributeLevelScenario(start, alone, grid))
    assert [s["p"] for s in want.samples] == [0.5 * grid.t(i) for i in range(5)]
    assert evaluate(AttributeLevelScenario(start, pair, grid)) == want
    assert merge_loop_evaluate(AttributeLevelScenario(start, pair, grid)) == want


@pytest.mark.parametrize("kind", MEMBER_KINDS)
@settings(max_examples=100, deadline=None)
@given(
    st.data(),
    st.lists(st.floats(min_value=0.0, max_value=20.0) | st.integers(0, 80).map(lambda i: i * 0.25),
             min_size=1, max_size=30),
)
def test_a_column_holds_what_one_time_alone_gives(kind, data, thetas):
    model = data.draw(library_member(kind))
    v = tuple(data.draw(values) for _ in range(WIDE.k))
    columns = model.evolve_fn(thetas, v)
    alone = [model.evolve_fn((theta,), v) for theta in thetas]
    assert len(columns) == len(model.owned_names())
    for d, column in enumerate(columns):
        assert [float.hex(x) for x in column] == [float.hex(a[d][0]) for a in alone]


# --- the column walk against the per-point merge loop ---------------------------------


def merge_loop_evaluate(scenario, allow_truncation=False):
    """``evaluate`` as a per-point loop: every member evolved over each grid
    point alone, at every point first, as a member that raises raises for
    the whole grid; then per point the row merged by owned dims, one
    Scene, and the shared-dim scan."""
    family, start, grid = scenario.family, scenario.start, scenario.grid
    if grid.duration > family.theta_max:
        raise DomainExceededError(
            f"grid duration {grid.duration} exceeds the family domain",
            t_sup=family.theta_max,
        )
    schema = family.schema
    points = [
        [m._columns((grid.t(i),), start.values) for m in family.members]
        for i in range(grid.count)
    ]
    samples = []
    for i, outputs in enumerate(points):
        theta = grid.t(i)
        vals = list(start.values)
        for m, out in zip(family.members, outputs):
            for name, (value,) in zip(m.owned_names(), out):
                vals[schema.index(name)] = value
        scene = Scene(schema, tuple(vals))
        for name in family.shared:
            vals = [
                float(out[m.owned_names().index(name)][0])
                for m, out in zip(family.members, outputs)
                if name in m.owned_names()
            ]
            if len(vals) < 2:
                continue
            if not all(map(math.isfinite, vals)):
                raise SchemaError(f"non-finite value in shared dimension {name!r}")
            if max(vals) - min(vals) > CONTRADICTION_TOL:
                message = f"members contradict on {name!r} at t={theta}"
                if not samples:
                    raise TruncationError(message, None)
                keep_until = theta - family.epsilon
                keep = max(1, 1 + math.floor(keep_until / grid.step + 1e-9))
                keep = min(keep, len(samples))
                truncated = Trajectory(schema, TimeGrid(grid.step, keep), tuple(samples[:keep]))
                result = TruncatedResult(truncated, theta, t_sup=keep_until)
                if allow_truncation:
                    return result
                raise TruncationError(message, result)
        samples.append(scene)
    return Trajectory(schema, grid, tuple(samples))


def hit_with(column, hit, value):
    return [value if h else x for x, h in zip(column, hit)]


#: Faults on a member's columns at the times ``hit`` marks; a wrong
#: column count holds for the whole call.
FAULTS = {
    "nan": lambda cols, hit: [hit_with(cols[0], hit, math.nan), *cols[1:]],
    "inf_last": lambda cols, hit: [*cols[:-1], hit_with(cols[-1], hit, math.inf)],
    "short": lambda cols, hit: cols[:-1] if any(hit) else cols,
    "long": lambda cols, hit: [*cols, cols[0]] if any(hit) else cols,
}


def writing_every_dim(member):
    """``member`` as a model that writes every dimension, those it does
    not own as it found them."""
    owned = [WIDE.index(name) for name in member.owned_names()]

    def evolve(thetas, v):
        columns = [[x] * len(thetas) for x in v]
        for i, column in zip(owned, member.evolve_fn(thetas, v)):
            columns[i] = column
        return columns

    return DeterministicModel("all", WIDE, math.inf, evolve)


@st.composite
def walked_scenarios(draw):
    """library_scenarios, where a member may turn faulty from a grid
    point on, or a lone member may write every dimension."""
    scenario = draw(library_scenarios())
    members = list(scenario.family.members)
    shared = scenario.family.shared
    if draw(st.booleans()):
        members = [writing_every_dim(members[0])]
        shared = ()
    if draw(st.booleans()):
        j = draw(st.integers(0, len(members) - 1))
        fault = FAULTS[draw(st.sampled_from(sorted(FAULTS)))]
        t_fault = draw(st.integers(0, 40)) * scenario.grid.step
        m, fn = members[j], members[j].evolve_fn

        def faulty(thetas, v, fn=fn):
            return fault(fn(thetas, v), [theta >= t_fault for theta in thetas])

        members[j] = DeterministicModel(m.id, WIDE, m.theta_max, faulty, owns=m.owns)
    family = combine(members, epsilon=scenario.family.epsilon, shared=shared)
    return AttributeLevelScenario(scenario.start, family, scenario.grid)


def outcome(call):
    try:
        got = call()
    except Exception as exc:  # noqa: BLE001 - any error must match
        return ("raised", type(exc), str(exc), vars(exc))
    if isinstance(got, TruncatedResult):
        return (got.contradiction_time, got.t_sup, got.trajectory.grid, bits(got.trajectory))
    return (got.grid, bits(got))


@settings(max_examples=300, deadline=None)
@given(walked_scenarios(), st.booleans())
def test_evaluate_matches_the_merge_loop(scenario, allow):
    want = outcome(lambda: merge_loop_evaluate(scenario, allow))
    assert outcome(lambda: evaluate(scenario, allow)) == want


def test_the_contradicting_row_is_checked_before_the_scan():
    # At t = 0.5 member a writes NaN into x and parts from b on p: the
    # row's Scene check comes first, as in the merge loop.
    def a_fn(ths, v):
        late = [th >= 0.5 for th in ths]
        return [math.nan if x else 0.0 for x in late], [1.0 if x else 0.0 for x in late]

    a = DeterministicModel("a", WIDE, math.inf, a_fn, owns=("x", "p"))
    b = drift(WIDE, {"p": 0.0}, id="b")
    family = combine([a, b], epsilon=0.1, shared=("p",))
    scenario = AttributeLevelScenario(Scene(WIDE, (0.0,) * WIDE.k), family, TimeGrid(0.1, 8))
    for allow in (True, False):
        want = outcome(lambda: merge_loop_evaluate(scenario, allow))
        assert want[:2] == ("raised", SchemaError)
        assert outcome(lambda: evaluate(scenario, allow)) == want
