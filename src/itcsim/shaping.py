"""Lead-angle shaping that converts a range-vs-time error into a lead demand.

The impact-time requirement is encoded as the error

    z1 = v * (t_final - t) - r

between the distance the interceptor can still fly and the range to go.
Holding a lead angle sigma makes the range close at v*cos(sigma) < v, so a
positive z1 (too much time in hand) is absorbed by demanding lead, and the
demand is shaped through a smooth saturating ramp so it tops out strictly
inside the seeker field of view:

    sigma_d = arccos(1 - k1 * sgmf(z1 / phi-scaled)),   0 < k1 < 1 - cos(sigma_max)

where sgmf is a cubic sigmoid that is exactly +-1 outside the boundary
layer |z1| > phi and C^1 across it (its second derivative jumps at the
edges; the demand stays twice differentiable where the guidance needs it
and the rates are exactly zero outside the layer).

The demanded lead is split evenly between the two heading components,
psi_m_d = theta_m_d = arccos(2*cos(sigma_d) - 1) / 2, which reproduces the
combined lead: cos(sigma_d) = cos^2(heading_d).

Negative z1 means the target can no longer be reached in the remaining
time even flying straight; the demand clamps to zero rather than handing
back a complex angle.  The engine reads each law's z1 and reports the first
clamp of a run as a warning.

``sgmf``, ``desired_lead`` and ``desired_heading`` are the reference forms
of each piece.  ``shaping_rates``, the guidance laws' hot path, builds the
flat demands outside the layer from them once per ``ShapingParams``; inside
the layer it computes the demand, its heading split and their rates in one
pass that repeats the reference forms' operations in their order, so it is
bit-identical to composing them with sgmf's two derivatives.  The symbolic
model in ``tests/test_symbolic.py`` checks the rates against the
differentiated demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import ConfigError

# Floor applied to sin(sigma_d) and sin(2*heading_d) where they divide the
# shaping rates; the demand passes through zero lead smoothly but the raw
# quotient is 0/0 there.  A numerical guard, not a design constant.
EPS_SIN = 1e-3


@dataclass(frozen=True)
class ShapingParams:
    """Lead-demand shaping constants.

    k1         demand gain; must satisfy 0 < k1 < 1 - cos(sigma_max) so the
               demanded lead never reaches the field-of-view limit
    phi        boundary-layer half-width of the sigmoid, m
    sigma_max  seeker field-of-view half-angle, rad
    """

    k1: float = 0.49
    phi: float = 300.0
    sigma_max: float = math.radians(60.0)

    def __post_init__(self) -> None:
        if not 0.0 < self.sigma_max < math.pi / 2 or self.sigma_max is True:
            raise ConfigError(
                f"field-of-view sigma_max must be in (0, pi/2) rad, got {self.sigma_max}",
                field="sigma_max",
            )
        k1_limit = 1.0 - math.cos(self.sigma_max)
        if not 0.0 < self.k1 < k1_limit:
            raise ConfigError(
                f"shaping gain k1 must be in (0, {k1_limit:.6f}) for this field of view, "
                f"got {self.k1}",
                field="k1",
            )
        if self.phi <= 0.0 or self.phi is True:
            raise ConfigError(f"boundary layer phi must be > 0, got {self.phi}", field="phi")
        try:
            cube = self.phi**3  # the sigmoid divides by it
        except OverflowError:
            cube = math.inf
        if not 0.0 < cube < math.inf:
            raise ConfigError(
                f"boundary layer phi**3 must be a positive finite float, got phi = {self.phi}",
                field="phi",
            )

    def max_demand(self) -> float:
        """Largest lead angle the shaping can demand, rad (always < sigma_max)."""
        return math.acos(1.0 - self.k1)

    @cached_property
    def _layer_constants(self) -> tuple[float, float, float, float]:
        """(phi**3, 2*phi**3, 2*phi, 3/(2*phi)): the constants of the sigmoid
        -x**3/(2 phi**3) + 3x/(2 phi) and of its derivatives
        -3x**2/(2 phi**3) + 3/(2 phi) and -3x/phi**3, each computed as those
        formulas compute it."""
        phi = self.phi
        return phi**3, 2.0 * phi**3, 2.0 * phi, 3.0 / (2.0 * phi)

    @cached_property
    def _flat_demands(self) -> tuple[ShapingRates, ShapingRates]:
        """The constant demands above the layer (z1 > phi) and clamped (z1 < 0),
        built once by the same functions as any demand, so bit-identical."""
        out = []
        for z1 in (math.inf, -1.0):
            sigma_d = desired_lead(z1, self)
            out.append(ShapingRates(sigma_d, 0.0, 0.0, desired_heading(sigma_d), 0.0, 0.0))
        return out[0], out[1]


# --- Saturating ramp ----------------------------------------------------------


def sgmf(x: float, phi: float) -> float:
    """Cubic sigmoid: odd, +-1 for |x| >= phi, slope 3/(2*phi) at zero."""
    if x > phi:
        return 1.0
    if x < -phi:
        return -1.0
    return -(x**3) / (2.0 * phi**3) + 3.0 * x / (2.0 * phi)


# --- Demand and its rates -----------------------------------------------------


def desired_lead(z1: float, params: ShapingParams) -> float:
    """Demanded lead angle sigma_d for range-time error z1, rad; clamped to
    zero when z1 < 0 (not enough flight time left)."""
    if z1 < 0.0:
        return 0.0
    c = 1.0 - params.k1 * sgmf(z1, params.phi)
    # Clamp to [-1, 1] as max(-1.0, min(1.0, c)) would, NaN -> 1.0 included,
    # without the builtin calls.
    c = c if c < 1.0 else 1.0
    return math.acos(c if c > -1.0 else -1.0)


def desired_heading(sigma_d: float) -> float:
    """Even two-axis split of a demanded lead: cos(sigma_d) = cos^2(heading)."""
    c = 2.0 * math.cos(sigma_d) - 1.0
    c = c if c < 1.0 else 1.0
    return 0.5 * math.acos(c if c > -1.0 else -1.0)


class ShapingRates(NamedTuple):
    """Demanded lead and heading, rad, and their first two time derivatives,
    rad/s and rad/s^2."""

    sigma_d: float
    sigma_d_dot: float
    sigma_d_ddot: float
    heading_d: float
    heading_d_dot: float
    heading_d_ddot: float


def shaping_rates(z1: float, z1_dot: float, z1_ddot: float, params: ShapingParams) -> ShapingRates:
    """Differentiate the lead demand along the z1 trajectory.

    Outside the boundary layer the sigmoid is flat, so every rate is exactly
    zero and the demand is the constant maximum (or zero when clamped); both
    come precomputed from ``params._flat_demands``.  Through zero demand the
    quotients by sin(sigma_d) are floored at EPS_SIN; the numerators vanish
    at the same order, so the floored rates stay bounded and correct in the
    limit.  Inside the layer (and for a NaN z1) the sigmoid takes its cubic
    branch, with its constants from ``params._layer_constants``.
    """
    if z1 > params.phi:
        return params._flat_demands[0]
    if z1 < 0.0:
        return params._flat_demands[1]
    phi3, two_phi3, two_phi, three_two_phi = params._layer_constants
    k1 = params.k1

    # desired_lead, with sgmf's cubic branch.
    c = 1.0 - k1 * (-(z1**3) / two_phi3 + 3.0 * z1 / two_phi)
    c = c if c < 1.0 else 1.0
    sigma_d = math.acos(c if c > -1.0 else -1.0)
    # desired_heading, on the one cos(sigma_d).
    cos_sd = math.cos(sigma_d)
    c = 2.0 * cos_sd - 1.0
    c = c if c < 1.0 else 1.0
    heading_d = 0.5 * math.acos(c if c > -1.0 else -1.0)

    # sgmf's first and second derivatives; floors as max(sin, EPS_SIN) would
    # apply them (a NaN sine passes through).
    k1_s1 = k1 * (-3.0 * z1**2 / two_phi3 + three_two_phi)
    s2 = -3.0 * z1 / phi3
    sin_sd = math.sin(sigma_d)
    sin_sd = EPS_SIN if EPS_SIN > sin_sd else sin_sd
    sigma_d_dot = k1_s1 * z1_dot / sin_sd
    sd_dot2_cos = sigma_d_dot**2 * cos_sd
    sigma_d_ddot = (k1 * s2 * z1_dot**2 + k1_s1 * z1_ddot - sd_dot2_cos) / sin_sd

    two_h = 2.0 * heading_d
    sin_2h = math.sin(two_h)
    sin_2h = EPS_SIN if EPS_SIN > sin_2h else sin_2h
    heading_d_dot = sigma_d_dot * sin_sd / sin_2h
    heading_d_ddot = (
        sigma_d_ddot * sin_sd + sd_dot2_cos - 2.0 * heading_d_dot**2 * math.cos(two_h)
    ) / sin_2h
    # tuple.__new__ skips the named tuple's Python-level __new__.
    return tuple.__new__(
        ShapingRates,
        (sigma_d, sigma_d_dot, sigma_d_ddot, heading_d, heading_d_dot, heading_d_ddot),
    )
