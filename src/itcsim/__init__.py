"""Impact-time-constrained intercept guidance under field-of-view and actuator limits.

A pure-Python simulation library plus CLI for constant-speed interceptor
engagements in 3D and in the plane: backstepping guidance laws that hit a
commanded impact time while keeping the seeker lead angle inside its field
of view and the lateral accelerations inside (possibly direction-dependent)
actuator bounds, a fixed-step RK4 engine, trajectory/metrics reporting, and
scenario configuration with presets for the standard study cases.
"""

# Every public name is imported from its own module. These four stay here
# only because perfbench/run.py calls them as ``itcsim.<name>``.
from .config import load_config
from .logio import read_trajectory_csv
from .metrics import interception_metrics
from .presets import preset_scenarios

__version__ = "0.1.0"

__all__ = ["interception_metrics", "load_config", "preset_scenarios", "read_trajectory_csv", "__version__"]
