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
time even flying straight; the demand clamps to zero and the caller is
warned rather than being handed a complex angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import ConfigError

# Default floor applied to sin(sigma_d) and sin(2*heading_d) where they
# divide the shaping rates; the demand passes through zero lead smoothly but
# the raw quotient is 0/0 there.
EPS_SIN = 1e-3


@dataclass(frozen=True)
class ShapingParams:
    """Lead-demand shaping constants.

    k1         demand gain; must satisfy 0 < k1 < 1 - cos(sigma_max) so the
               demanded lead never reaches the field-of-view limit
    phi        boundary-layer half-width of the sigmoid, m
    sigma_max  seeker field-of-view half-angle, rad
    eps_sin    floor on the sine factors dividing the demand rates
    """

    k1: float = 0.49
    phi: float = 300.0
    sigma_max: float = math.radians(60.0)
    eps_sin: float = EPS_SIN

    def validate(self) -> None:
        if not 0.0 < self.sigma_max < math.pi / 2:
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
        if self.phi <= 0.0:
            raise ConfigError(f"boundary layer phi must be > 0, got {self.phi}", field="phi")
        if not 0.0 < self.eps_sin < 0.1:
            raise ConfigError(
                f"rate-guard floor eps_sin must be in (0, 0.1), got {self.eps_sin}", field="eps_sin"
            )

    def max_demand(self) -> float:
        """Largest lead angle the shaping can demand, rad (always < sigma_max)."""
        return math.acos(1.0 - self.k1)

    @cached_property
    def _flat_demands(self) -> tuple[ShapingRates, ShapingRates]:
        """The constant demands above the layer (z1 > phi) and clamped (z1 < 0),
        built once by the same functions as any demand, so bit-identical."""
        out = []
        for z1 in (math.inf, -1.0):
            sigma_d, feasible = desired_lead(z1, self)
            heading_d = desired_heading(sigma_d)
            out.append(ShapingRates(sigma_d, 0.0, 0.0, heading_d, 0.0, 0.0, feasible))
        return out[0], out[1]


# --- Saturating ramp ----------------------------------------------------------


def sgmf(x: float, phi: float) -> float:
    """Cubic sigmoid: odd, +-1 for |x| >= phi, slope 3/(2*phi) at zero."""
    if x > phi:
        return 1.0
    if x < -phi:
        return -1.0
    return -(x**3) / (2.0 * phi**3) + 3.0 * x / (2.0 * phi)


def sgmf_derivatives(x: float, phi: float) -> tuple[float, float]:
    """First and second derivatives of the sigmoid (zero outside the layer)."""
    if abs(x) > phi:
        return 0.0, 0.0
    d1 = -3.0 * x**2 / (2.0 * phi**3) + 3.0 / (2.0 * phi)
    d2 = -3.0 * x / phi**3
    return d1, d2


# --- Demand and its rates -----------------------------------------------------


def desired_lead(z1: float, params: ShapingParams) -> tuple[float, bool]:
    """Demanded lead angle for range-time error z1; returns (sigma_d, feasible).

    feasible is False when z1 < 0 (not enough flight time left); the demand
    is then clamped to zero.
    """
    if z1 < 0.0:
        return 0.0, False
    c = 1.0 - params.k1 * sgmf(z1, params.phi)
    # Clamp to [-1, 1] as max(-1.0, min(1.0, c)) would, NaN -> 1.0 included,
    # without the builtin calls.
    c = c if c < 1.0 else 1.0
    return math.acos(c if c > -1.0 else -1.0), True


def desired_heading(sigma_d: float) -> float:
    """Even two-axis split of a demanded lead: cos(sigma_d) = cos^2(heading)."""
    c = 2.0 * math.cos(sigma_d) - 1.0
    c = c if c < 1.0 else 1.0
    return 0.5 * math.acos(c if c > -1.0 else -1.0)


class ShapingRates(NamedTuple):
    """Demanded lead/heading and their first two time derivatives.

    sigma_d / heading_d in rad, rates in rad/s and rad/s^2.  ``feasible`` is
    False when the demand was clamped for negative range-time error.
    """

    sigma_d: float
    sigma_d_dot: float
    sigma_d_ddot: float
    heading_d: float
    heading_d_dot: float
    heading_d_ddot: float
    feasible: bool


def shaping_rates(z1: float, z1_dot: float, z1_ddot: float, params: ShapingParams) -> ShapingRates:
    """Differentiate the lead demand along the z1 trajectory.

    Outside the boundary layer the sigmoid is flat, so every rate is exactly
    zero and the demand is the constant maximum (or zero when clamped); both
    come precomputed from ``params._flat_demands``.  Through zero demand the
    quotients by sin(sigma_d) are floored at EPS_SIN; the numerators vanish
    at the same order, so the floored rates stay bounded and correct in the
    limit.
    """
    if z1 > params.phi:
        return params._flat_demands[0]
    if z1 < 0.0:
        return params._flat_demands[1]
    k1 = params.k1
    sigma_d, feasible = desired_lead(z1, params)
    heading_d = desired_heading(sigma_d)

    s1, s2 = sgmf_derivatives(z1, params.phi)
    eps_sin = params.eps_sin
    # Floors as max(sin, eps_sin) would apply them (a NaN sine passes through).
    sin_sd = math.sin(sigma_d)
    sin_sd = eps_sin if eps_sin > sin_sd else sin_sd
    cos_sd = math.cos(sigma_d)
    sigma_d_dot = k1 * s1 * z1_dot / sin_sd
    sigma_d_ddot = (
        k1 * s2 * z1_dot**2 + k1 * s1 * z1_ddot - sigma_d_dot**2 * cos_sd
    ) / sin_sd

    sin_2h = math.sin(2.0 * heading_d)
    sin_2h = eps_sin if eps_sin > sin_2h else sin_2h
    cos_2h = math.cos(2.0 * heading_d)
    heading_d_dot = sigma_d_dot * sin_sd / sin_2h
    heading_d_ddot = (
        sigma_d_ddot * sin_sd + sigma_d_dot**2 * cos_sd - 2.0 * heading_d_dot**2 * cos_2h
    ) / sin_2h
    return ShapingRates(
        sigma_d, sigma_d_dot, sigma_d_ddot, heading_d, heading_d_dot, heading_d_ddot, feasible
    )
