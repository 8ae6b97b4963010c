"""First-order actuator model with built-in magnitude saturation.

Each lateral-acceleration channel follows

    a_dot = (1 - (a / a_axis_max)**n) * b - rho * a

where ``b`` is the commanded input, ``n`` an even exponent and ``rho`` a
positive leak rate.  The bracket vanishes as |a| approaches the axis bound,
and at the bound the leak term points back inside, so |a| <= a_axis_max is
forward-invariant for any finite ``b`` -- the channel physically cannot be
driven past its limit.  A law checks its bracket against ``EPS_DEN`` on
every evaluation and ``SaturationParams`` keeps a_max below
``logio.ERROR_MAX``, so no row of a shaped law holds an acceleration past
ERROR_MAX.  Commanded inputs are additionally clipped to the large finite
magnitude ``B_CAP``, a constant like the guard floors below; the invariance
argument needs finiteness, and an uncapped feedback command can grow
without bound exactly when the bracket shrinks, which would both defeat the
barrier and make the system arbitrarily stiff to integrate.

Three bound schedules are supported; ||a|| is the resultant of the two
channel accelerations:

- constant:     both axes get the same fixed bound a_max.
- roll-coupled: A_axis = a_max * |a_axis| / ||a|| splits a shared resultant
                limit between the axes in proportion to the current
                direction, as for an airframe whose single lift vector is
                rolled to point the resultant.
- wing-tail:    A_axis = a_max_l + (a_max - a_max_l) * |a_axis| / ||a||
                interpolates each axis bound between a small dedicated-
                surface limit and the full limit as that axis comes to
                dominate the resultant.

A resultant below EPS_RESULTANT has no direction; both axes then get the
even split |a_axis| / ||a|| = 1/sqrt(2), the limit of any fixed direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError
from .logio import ERROR_MAX

# Resultants below this are treated as directionless when splitting a
# shared bound between axes.
EPS_RESULTANT = 1e-6
# The smallest bound a_max that SaturationParams accepts, m/s^2.
_EPS_BOUND = EPS_RESULTANT * EPS_RESULTANT

# Magnitude clip on commanded actuator inputs; the barrier needs a finite
# one (see the module docstring).
B_CAP = 5000.0

# Input-effectiveness brackets below this are reported by the guidance laws
# as a numerical guard rather than divided by.  With the command cap in place
# the continuous-time actuator state cannot reach its bound, but an RK4
# trial stage of a coarse step can leave the actuator set: no preset trips
# at sim.dt = 1 ms, while fig5-wingtail trips from 6 ms, fig4-rollcoupled at
# 10 ms and 15 of the 16 shaped-law study scenarios at 20 ms.
EPS_DEN = 1e-6

_SQRT2 = math.sqrt(2.0)


class BoundMode(str, Enum):
    CONSTANT = "constant"
    ROLL_COUPLED = "roll-coupled"
    WING_TAIL = "wing-tail"


# The members ``axis_brackets`` dispatches on, as module globals: a global
# load is cheaper than the class-attribute lookup ``BoundMode.CONSTANT``.
_CONSTANT = BoundMode.CONSTANT
_ROLL_COUPLED = BoundMode.ROLL_COUPLED


@dataclass(frozen=True)
class SaturationParams:
    """Actuator-channel parameters shared by both lateral axes.

    n         even saturation exponent, >= 2
    rho       leak rate, 1/s, > 0
    a_max     resultant (or per-axis, for constant mode) bound, m/s^2
    a_max_l   lower per-axis bound for the wing-tail schedule, m/s^2
    mode      bound schedule
    """

    n: int = 2
    rho: float = 0.1
    a_max: float = 98.1
    a_max_l: float = 9.81
    mode: BoundMode = BoundMode.CONSTANT

    def __post_init__(self) -> None:
        # ``axis_brackets`` dispatches on the members by identity, so an equal
        # string such as "constant" would fall through to the wing-tail schedule.
        if not isinstance(self.mode, BoundMode):
            raise ConfigError(f"bound schedule mode must be a BoundMode, got {self.mode!r}", field="mode")
        if self.n < 2 or self.n % 2 != 0:
            raise ConfigError(f"saturation exponent n must be even and >= 2, got {self.n}", field="n")
        # Written as ranges so that NaN, which fails every comparison, fails too.
        if not 0.0 < self.rho < math.inf or self.rho is True:
            raise ConfigError(
                f"saturation leak rate rho must be finite and > 0, got {self.rho}", field="rho"
            )
        # The barrier 1 - (a / a_max)**n needs a bound well away from zero.
        if not _EPS_BOUND <= self.a_max < ERROR_MAX or self.a_max is True:
            raise ConfigError(
                f"acceleration bound a_max must be finite and in "
                f"[{_EPS_BOUND:g}, {ERROR_MAX:g}) m/s^2, got {self.a_max}",
                field="a_max",
            )
        if self.mode is BoundMode.WING_TAIL and (
            not 0.0 < self.a_max_l <= self.a_max or self.a_max_l is True
        ):
            raise ConfigError(
                f"wing-tail lower bound a_max_l must be in (0, a_max], got {self.a_max_l}",
                field="a_max_l",
            )


# --- Channel dynamics ---------------------------------------------------------


def axis_brackets(
    a_my: float, a_mz: float, params: SaturationParams
) -> tuple[float, float, float, float]:
    """Input-effectiveness brackets and bounds (bracket_y, bracket_z, A_y, A_z).

    Constant bounds are independent per-axis barriers 1 - (a / A)^n.
    Under a direction-dependent schedule the two channels share the
    most-binding saturation fraction instead: an independent barrier is not
    forward-invariant there, because the dominant axis can sit on its bound
    while the other axis accelerates, rotating the resultant and dropping
    the dominant axis's bound onto its own state.  Sharing the binding
    fraction freezes the direction as the boundary is approached (both
    channels decay by the same leak), which keeps every axis inside its
    scheduled bound pointwise.  For the roll-coupled schedule the shared
    fraction ||a|| / a_max is algebraically each per-axis ratio.

    A law's channel rate is ``bracket * b - rho * a`` with its clipped
    command ``b``.
    """
    mode = params.mode
    a_max = params.a_max
    n = params.n
    if mode is _CONSTANT:
        return 1.0 - (a_my / a_max) ** n, 1.0 - (a_mz / a_max) ** n, a_max, a_max
    mag = math.hypot(a_my, a_mz)
    if mode is _ROLL_COUPLED:
        if mag < EPS_RESULTANT:
            a_y_max = a_z_max = a_max / _SQRT2
        else:
            a_y_max = a_max * abs(a_my) / mag
            a_z_max = a_max * abs(a_mz) / mag
        bracket = 1.0 - (mag / a_max) ** n
        return bracket, bracket, a_y_max, a_z_max
    a_max_l = params.a_max_l
    if mag < EPS_RESULTANT:
        a_y_max = a_z_max = a_max_l + (a_max - a_max_l) / _SQRT2
    else:
        span = a_max - a_max_l
        a_y_max = a_max_l + span * abs(a_my) / mag
        a_z_max = a_max_l + span * abs(a_mz) / mag
    # The larger axis fraction as max(c_y, c_z) would pick it (NaN
    # included), without the builtin call.
    c_y = abs(a_my) / a_y_max
    c_z = abs(a_mz) / a_z_max
    c = c_z if c_z > c_y else c_y
    bracket = 1.0 - c**n
    return bracket, bracket, a_y_max, a_z_max


def clip_command(b: float) -> float:
    """Clip ``b`` to the finite command cap ``B_CAP``; the saturation
    barrier requires it.

    A NaN command (an inf - inf in the chain) raises ``OverflowError``, which
    the engine ends as the ``overflow`` guard.
    """
    if b > B_CAP:
        return B_CAP
    if b >= -B_CAP:
        return b
    if b < -B_CAP:
        return -B_CAP
    raise OverflowError(f"actuator command is {b}")
