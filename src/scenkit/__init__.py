"""Concrete, logical and abstract driving scenarios.

Concrete scenarios are time-gridded trajectories of scenes; logical
scenarios map parameter spaces to trajectories through deterministic
models; abstract scenarios constrain trajectory trees through a
branching scenario logic with enumeration, sampling and monitoring.
"""

from .core import (
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
)
from .dynamics import (
    AttributeLevelScenario,
    DeterministicModel,
    ModelFamily,
    TruncatedResult,
    check_semigroup,
    combine,
    constant_acceleration,
    constant_velocity,
    drift,
    evaluate,
    family_of,
    stop_at,
    waypoint_follower,
)
from .formulas import (
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
    pred,
)
from .logic import (
    AbstractScenario,
    ScenarioLogicInstance,
    binary_branching,
    binary_scenarios,
    check_axioms,
    count_scenarios,
    delta_step_instance,
    encode_logical,
    enumerate_scenarios,
    expand,
    quantized_motion_instance,
    sample_abstract,
    trace_formula,
)
from .logical import (
    ContinuousAxis,
    DiscreteAxis,
    DiscreteWeighted,
    Found,
    LogicalScenario,
    NotInImage,
    ParameterDistribution,
    ParameterSpace,
    TruncatedNormal,
    Uniform,
    invert,
    realize,
    sample,
)
from .monitoring import (
    StreamMonitor,
    Verdict,
    monitor_prefix,
    monitor_stream,
    monitor_word,
)

__version__ = "0.1.0"
