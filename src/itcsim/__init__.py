"""Impact-time-constrained intercept guidance under field-of-view and actuator limits.

A pure-Python simulation library plus CLI for constant-speed interceptor
engagements in 3D and in the plane: backstepping guidance laws that hit a
commanded impact time while keeping the seeker lead angle inside its field
of view and the lateral accelerations inside (possibly direction-dependent)
actuator bounds, a fixed-step RK4 engine, trajectory/metrics reporting, and
scenario configuration with presets for the standard study cases.
"""

from .config import ScenarioConfig, load_config, run_scenario, serialize_config
from .engine import RunOutcome, RunStatus, SimSettings, simulate
from .errors import ConfigError, GuardTrip
from .guidance3d import Guidance3D
from .guidance_planar import BaselinePlanar, GuidancePlanar
from .kinematics import effective_lead, inertial_position
from .logio import (
    COLUMNS,
    LogRow,
    TrajectoryLog,
    TrajectoryWriter,
    read_trajectory_csv,
    write_metrics_json,
    write_trajectory_csv,
)
from .metrics import Metrics, MetricsFold, compare_report, interception_metrics
from .presets import PRESET_NAMES, preset_scenarios
from .saturation import BoundMode, SaturationParams
from .shaping import ShapingParams, desired_heading, desired_lead, sgmf, shaping_rates

__version__ = "0.1.0"

__all__ = [
    "BaselinePlanar",
    "BoundMode",
    "COLUMNS",
    "ConfigError",
    "GuardTrip",
    "Guidance3D",
    "GuidancePlanar",
    "LogRow",
    "Metrics",
    "MetricsFold",
    "PRESET_NAMES",
    "RunOutcome",
    "RunStatus",
    "SaturationParams",
    "ScenarioConfig",
    "ShapingParams",
    "SimSettings",
    "TrajectoryLog",
    "TrajectoryWriter",
    "compare_report",
    "desired_heading",
    "desired_lead",
    "effective_lead",
    "inertial_position",
    "interception_metrics",
    "load_config",
    "preset_scenarios",
    "read_trajectory_csv",
    "run_scenario",
    "serialize_config",
    "sgmf",
    "shaping_rates",
    "simulate",
    "write_metrics_json",
    "write_trajectory_csv",
    "__version__",
]
