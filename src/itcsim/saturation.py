"""First-order actuator model with built-in magnitude saturation.

Each lateral-acceleration channel follows

    a_dot = (1 - (a / a_axis_max)**n) * b - rho * a

where ``b`` is the commanded input, ``n`` an even exponent and ``rho`` a
positive leak rate.  The bracket vanishes as |a| approaches the axis bound,
and at the bound the leak term points back inside, so |a| <= a_axis_max is
forward-invariant for any finite ``b`` -- the channel physically cannot be
driven past its limit.  Commanded inputs are additionally clipped to a large
finite magnitude ``b_cap``; the invariance argument needs finiteness, and an
uncapped feedback command can grow without bound exactly when the bracket
shrinks, which would both defeat the barrier and make the system arbitrarily
stiff to integrate.

Three bound schedules are supported:

- constant:     both axes get the same fixed bound.
- roll-coupled: a shared resultant limit is split between the axes in
                proportion to the current acceleration direction, as for an
                airframe whose single lift vector is rolled to point the
                resultant.
- wing-tail:    each axis bound interpolates between a small dedicated-
                surface limit and the full limit as that axis comes to
                dominate the resultant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError

# Resultants below this are treated as directionless when splitting a
# shared bound between axes.
EPS_RESULTANT = 1e-6

# Input-effectiveness brackets below this are reported by the guidance laws
# as a numerical guard rather than divided by; with the command cap in place
# the actuator state cannot actually reach its bound, so a trip indicates a
# mis-set scenario.
EPS_DEN = 1e-6


class BoundMode(str, Enum):
    CONSTANT = "constant"
    ROLL_COUPLED = "roll-coupled"
    WING_TAIL = "wing-tail"


@dataclass(frozen=True)
class SaturationParams:
    """Actuator-channel parameters shared by both lateral axes.

    n         even saturation exponent, >= 2
    rho       leak rate, 1/s, > 0
    a_max     resultant (or per-axis, for constant mode) bound, m/s^2
    a_max_l   lower per-axis bound for the wing-tail schedule, m/s^2
    mode      bound schedule
    b_cap     magnitude clip applied to commanded inputs, m/s^3-like units
    """

    n: int = 2
    rho: float = 0.1
    a_max: float = 98.1
    a_max_l: float = 9.81
    mode: BoundMode = BoundMode.CONSTANT
    b_cap: float = 5000.0

    def validate(self) -> None:
        if self.n < 2 or self.n % 2 != 0:
            raise ConfigError(f"saturation exponent n must be even and >= 2, got {self.n}", field="n")
        if self.rho <= 0.0:
            raise ConfigError(f"saturation leak rate rho must be > 0, got {self.rho}", field="rho")
        if self.a_max <= 0.0:
            raise ConfigError(f"acceleration bound a_max must be > 0, got {self.a_max}", field="a_max")
        if self.mode is BoundMode.WING_TAIL and not 0.0 < self.a_max_l <= self.a_max:
            raise ConfigError(
                f"wing-tail lower bound a_max_l must be in (0, a_max], got {self.a_max_l}",
                field="a_max_l",
            )
        if self.b_cap <= 0.0:
            raise ConfigError(f"command cap b_cap must be > 0, got {self.b_cap}", field="b_cap")


# --- Bound schedules ---------------------------------------------------------


def roll_coupled_bounds(a_my: float, a_mz: float, a_max: float) -> tuple[float, float]:
    """Split a shared resultant bound in proportion to the current direction.

    A_y = a_max * |a_my| / ||a||, A_z = a_max * |a_mz| / ||a||.  When the
    resultant is too small to define a direction the bound is split evenly,
    which is the limit of any fixed direction and keeps the split continuous
    in practice.
    """
    mag = math.hypot(a_my, a_mz)
    if mag < EPS_RESULTANT:
        even = a_max / math.sqrt(2.0)
        return even, even
    return a_max * abs(a_my) / mag, a_max * abs(a_mz) / mag


def wing_tail_bounds(
    a_my: float, a_mz: float, a_max_l: float, a_max: float
) -> tuple[float, float]:
    """Interpolate each axis bound between a_max_l and a_max by direction.

    A_axis = a_max_l + (a_max - a_max_l) * |a_axis| / ||a||; an axis carrying
    the whole resultant gets the full bound, an idle axis the lower one.
    """
    mag = math.hypot(a_my, a_mz)
    if mag < EPS_RESULTANT:
        even = a_max_l + (a_max - a_max_l) / math.sqrt(2.0)
        return even, even
    span = a_max - a_max_l
    return a_max_l + span * abs(a_my) / mag, a_max_l + span * abs(a_mz) / mag


def axis_bounds(a_my: float, a_mz: float, params: SaturationParams) -> tuple[float, float]:
    """Current per-axis acceleration bounds (A_y, A_z) under the schedule."""
    if params.mode is BoundMode.CONSTANT:
        return params.a_max, params.a_max
    if params.mode is BoundMode.ROLL_COUPLED:
        return roll_coupled_bounds(a_my, a_mz, params.a_max)
    return wing_tail_bounds(a_my, a_mz, params.a_max_l, params.a_max)


# --- Channel dynamics ---------------------------------------------------------


def bound_ratio_power(a: float, a_axis_max: float, n: int) -> float:
    """(a / a_axis_max)**n with the degenerate zero-bound case guarded.

    The roll-coupled schedule drives an axis bound to zero exactly when that
    axis acceleration is zero; the ratio is then 0/0 and its true limit is
    zero (the axis carries none of the resultant), so that is what we return.
    """
    if a_axis_max < EPS_RESULTANT * EPS_RESULTANT:
        return 0.0
    return (a / a_axis_max) ** n


def saturation_bracket(a: float, a_axis_max: float, n: int) -> float:
    """Input-effectiveness factor 1 - (a / a_axis_max)**n."""
    return 1.0 - bound_ratio_power(a, a_axis_max, n)


def saturation_rate(a: float, b: float, a_axis_max: float, params: SaturationParams) -> float:
    """Time derivative of one acceleration channel under command ``b``."""
    return saturation_bracket(a, a_axis_max, params.n) * b - params.rho * a


def axis_brackets(
    a_my: float, a_mz: float, params: SaturationParams
) -> tuple[float, float, float, float]:
    """Input-effectiveness brackets and bounds (bracket_y, bracket_z, A_y, A_z).

    Constant bounds are independent per-axis barriers.  Under a
    direction-dependent schedule the two channels share the most-binding
    saturation fraction instead: an independent barrier is not forward-
    invariant there, because the dominant axis can sit on its bound while
    the other axis accelerates, rotating the resultant and dropping the
    dominant axis's bound onto its own state.  Sharing the binding fraction
    freezes the direction as the boundary is approached (both channels
    decay by the same leak), which keeps every axis inside its scheduled
    bound pointwise.  For the roll-coupled schedule the shared form is
    algebraically identical to the per-axis one (both ratios reduce to
    resultant / a_max).
    """
    a_y_max, a_z_max = axis_bounds(a_my, a_mz, params)
    n = params.n
    if params.mode is BoundMode.CONSTANT:
        return (
            1.0 - bound_ratio_power(a_my, a_y_max, n),
            1.0 - bound_ratio_power(a_mz, a_z_max, n),
            a_y_max,
            a_z_max,
        )
    if params.mode is BoundMode.ROLL_COUPLED:
        c = math.hypot(a_my, a_mz) / params.a_max
        bracket = 1.0 - c**n
        return bracket, bracket, a_y_max, a_z_max
    # The larger axis fraction as max(c_y, c_z) would pick it (NaN
    # included), without the builtin call.
    c_y = abs(a_my) / a_y_max
    c_z = abs(a_mz) / a_z_max
    c = c_z if c_z > c_y else c_y
    bracket = 1.0 - c**n
    return bracket, bracket, a_y_max, a_z_max


def clip_command(b: float, params: SaturationParams) -> float:
    """Apply the finite command cap; the saturation barrier requires it."""
    cap = params.b_cap
    if b > cap:
        return cap
    if b < -cap:
        return -cap
    return b
