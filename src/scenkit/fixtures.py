"""Shared worked-example fixtures: the straight planar drive, its
reach-or-stop abstract scenario, and the one-parameter slope drive used
by the inversion examples.

These are package-level assets rather than test helpers because the CLI
demos and the shipped .scn files mirror them.
"""

from __future__ import annotations

from .core import Scene, SceneSchema, TimeGrid, Trajectory, schema_of
from .dynamics import AttributeLevelScenario, constant_velocity, drift, evaluate, family_of
from .formulas import And, Eventually, Formula, Or, SceneConst
from .logic import AbstractScenario, ScenarioLogicInstance, quantized_motion_instance
from .logical import ContinuousAxis, LogicalScenario, ParameterSpace

PLANAR_STEP = 0.1
PLANAR_HORIZON = 200  # 20 s at 0.1 s per step


def planar_schema() -> SceneSchema:
    """The drive schema. Equal schemas are one object, so every call
    returns the same one and fixture schemas compare by identity."""
    return schema_of(("x", "m"), ("y", "m"), ("vx", "m/s"), ("vy", "m/s"))


def drive_start(schema: SceneSchema | None = None) -> Scene:
    return Scene(schema or planar_schema(), (-50.0, 100.0, 10.0, -5.0))


def straight_drive_scenario() -> AttributeLevelScenario:
    """Constant-velocity drive from (-50, 100) at (10, -5) over [0, 20]."""
    schema = planar_schema()
    model = constant_velocity(schema, vx=10.0, vy=-5.0)
    grid = TimeGrid(PLANAR_STEP, PLANAR_HORIZON + 1)
    return AttributeLevelScenario(drive_start(schema), family_of(model), grid)


def straight_drive_trajectory() -> Trajectory:
    result = evaluate(straight_drive_scenario())
    assert isinstance(result, Trajectory)
    return result


def planar_instance() -> ScenarioLogicInstance:
    """Quantized planar motion over the drive schema, horizon 20 s."""
    schema = planar_schema()
    return quantized_motion_instance(
        schema,
        accels=(-2.0, 0.0, 2.0),
        step=PLANAR_STEP,
        horizon=PLANAR_HORIZON,
        probe_scenes=(drive_start(schema), Scene(schema, (0.0, 0.0, 0.0, 0.0))),
        id="planar-motion",
    )


def reach_or_stop_formula(schema: SceneSchema | None = None) -> Formula:
    """Start fixed, then eventually either the far target or a stop at the origin."""
    schema = schema or planar_schema()
    return And(
        SceneConst(drive_start(schema)),
        Eventually(
            Or(
                SceneConst(Scene(schema, (150.0, 0.0, 10.0, -5.0))),
                SceneConst(Scene(schema, (0.0, 0.0, 0.0, 0.0))),
            )
        ),
    )


def reach_or_stop_scenario() -> AbstractScenario:
    return AbstractScenario(reach_or_stop_formula(), (), planar_instance())


def _planar_action_path(start: Scene, actions) -> Trajectory:
    """Step the quantized-motion arithmetic explicitly (bit-compatible)."""
    schema = start.schema
    samples = [start]
    s = start
    for ax, ay in actions:
        x, y, vx, vy = s.values
        s = Scene(
            schema,
            (x + vx * PLANAR_STEP, y + vy * PLANAR_STEP, vx + ax * PLANAR_STEP, vy + ay * PLANAR_STEP),
        )
        samples.append(s)
    grid = TimeGrid(PLANAR_STEP, len(samples))
    return Trajectory(schema, grid, tuple(samples))


def stop_at_origin_trajectory() -> Trajectory:
    """A drive from the fixed start that decelerates to rest at the origin.

    Constant deceleration alone cannot reach the origin from this start
    (the required displacement is not parallel to the initial velocity),
    so the path brakes per axis on the quantized acceleration grid:
    x comes to rest after 99 steps, y after 131, then the scene holds at
    (0, 0, 0, 0) for the rest of the horizon.
    """
    actions = []
    for i in range(PLANAR_HORIZON):
        ax = -2.0 if (i < 25 or 74 <= i < 99) else 0.0
        ay = -2.0 if i < 25 else (2.0 if 81 <= i < 131 else 0.0)
        actions.append((ax, ay))
    return _planar_action_path(drive_start(), actions)


def wrong_start_trajectory() -> Trajectory:
    """Full-length trajectory parked at the origin; start scene is wrong."""
    schema = planar_schema()
    origin = Scene(schema, (0.0, 0.0, 0.0, 0.0))
    return _planar_action_path(origin, [(0.0, 0.0)] * PLANAR_HORIZON)


def slope_drive_scenario() -> LogicalScenario:
    """One continuous parameter: the position grows at rate x over [0, 10]."""
    schema = schema_of(("pos", "m"))
    grid = TimeGrid(0.1, 101)

    def binder(x):
        model = drift(schema, {"pos": x[0]}, id="slope")
        return Scene(schema, (0.0,)), family_of(model)

    return LogicalScenario(
        ParameterSpace((ContinuousAxis("rate", 1.0, 3.0),)), binder, grid, name="slope-drive"
    )


def zero_parameter_drive() -> LogicalScenario:
    """The straight drive wrapped as a logical scenario with no parameters."""
    scen = straight_drive_scenario()

    def binder(x):
        return scen.start, scen.family

    return LogicalScenario(ParameterSpace(()), binder, scen.grid, name="fixed-drive")
