"""Impact-time backstepping guidance in the plane, plus an uncompensated baseline.

The planar law is the two-dimensional restriction of the 3D chain: one LOS
angle, one lead angle ``sigma`` and one lateral-acceleration channel.  The
shaped lead demand is tracked through the error pair

    z2 = sigma - sigma_d,    zy = a_my - alpha_y

which under exact cancellation obeys

    z2_dot = -k2*z2 + zy/v,    zy_dot = -ky*zy - z2/v.

``BaselinePlanar`` is the comparison law: the same shaping and lead-error
feedback, but the stabilizing acceleration is applied directly as if the
actuator were ideal, with at most a hard clip at the acceleration bound.  It
has no actuator state and no knowledge of the saturation dynamics, which is
exactly what makes it a fair efficiency benchmark for the compensated law.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import GuardTrip
from .kinematics import EPS_RANGE, lead_rate_planar, los_rates_planar_trig
from .logio import LogRow
from .saturation import EPS_DEN, SaturationParams, axis_brackets, clip_command
from .shaping import ShapingParams, shaping_rates


def _planar_log_row(
    t: float,
    r: float,
    theta: float,
    sigma: float,
    a_my: float,
    ev: "EvalPlanar",
    target: tuple[float, float, float],
) -> LogRow:
    """Planar run in the shared schema: 3D-only columns stay zero.

    The planar LOS angle goes in the ``theta`` column (matching the planar
    state naming) and the engagement plane is taken as z = target z for the
    position columns.
    """
    # In COLUMNS order; the zeros are the 3D-only columns.
    return LogRow(
        t, r, theta, 0.0, 0.0, 0.0, sigma, a_my, 0.0, ev.b_y, 0.0,
        ev.z1, ev.z2, 0.0, 0.0, ev.zy, 0.0, ev.a_y_max, 0.0, 0.0, ev.lyapunov_y,
        target[0] - r * math.cos(theta), target[1] - r * math.sin(theta), target[2],
    )


class EvalPlanar(NamedTuple):
    """One evaluation of a planar law: derivatives plus diagnostics.

    ``derivs`` covers (r, theta, sigma, a_my) for the compensated law and
    (r, theta, sigma) for the baseline, whose acceleration is not a state.
    The fields up to a_y_max are ``GuidancePlanar.rates``'s tuple, in its
    order; items 0 and 1 (``derivs``, ``feasible``) are all the integrator
    reads.
    """

    derivs: tuple[float, ...]
    feasible: bool
    capped: bool
    sigma_d: float
    z1: float
    z2: float
    zy: float
    alpha_y: float
    alpha_y_dot: float
    b_y: float
    a_y_max: float
    lyapunov_y: float


class GuidancePlanar:
    """Closed-loop evaluation of the planar impact-time guidance law."""

    state_size = 4

    def __init__(
        self,
        speed: float,
        t_final: float,
        shaping: ShapingParams,
        sat: SaturationParams,
        k2: float = 1.0,
        ky: float = 7.0,
        target: tuple[float, float, float] = (0.0, 0.0, 0.0),
    ) -> None:
        self.speed = speed
        self.t_final = t_final
        self.shaping = shaping
        self.sat = sat
        self.k2 = k2
        self.ky = ky
        self.target = target

    def evaluate(self, t: float, y: tuple[float, float, float, float]) -> EvalPlanar:
        """Derivatives plus every diagnostic the logs and tests read."""
        out = self.rates(t, y)
        z2, zy = out[5:7]
        return EvalPlanar(*out, lyapunov_y=0.5 * (z2 * z2 + zy * zy))

    def rates(self, t: float, y: tuple[float, ...]) -> tuple:
        """The control chain, the integrator's hot path: a flat tuple of the
        ``EvalPlanar`` fields up to a_y_max, led by the state derivatives and
        the shaping feasibility."""
        r, _theta, sigma, a_my = y
        v = self.speed
        if r < EPS_RANGE:
            raise GuardTrip("range-floor", t, f"r={r:.3e} m")

        sin_s = math.sin(sigma)
        cos_s = math.cos(sigma)
        r_dot, theta_dot = los_rates_planar_trig(r, sin_s, cos_s, v)
        sigma_dot = lead_rate_planar(theta_dot, a_my, v)

        # --- Range-time error and shaped demand ---
        z1 = v * (self.t_final - t) - r
        z1_dot = -v - r_dot
        z1_ddot = -v * sin_s * sigma_dot
        sigma_d, sigma_d_dot, sigma_d_ddot, _, _, _, feasible = shaping_rates(
            z1, z1_dot, z1_ddot, self.shaping
        )

        # --- Lead error and stabilizing acceleration ---
        z2 = sigma - sigma_d
        alpha_y = v * (sigma_d_dot - v * sin_s / r - self.k2 * z2)
        zy = a_my - alpha_y
        z2_dot = sigma_dot - sigma_d_dot
        alpha_y_dot = v * (
            sigma_d_ddot
            - v * cos_s * sigma_dot / r
            + v * sin_s * r_dot / (r * r)
            - self.k2 * z2_dot
        )

        # --- Commanded input through the saturation bracket ---
        sat = self.sat
        bracket, _, a_y_max, _ = axis_brackets(a_my, 0.0, sat)
        if bracket < EPS_DEN:
            raise GuardTrip("denominator-singular", t, f"bracket={bracket:.3e}")
        raw_b = (sat.rho * a_my + alpha_y_dot - z2 / v - self.ky * zy) / bracket
        b_y = clip_command(raw_b, sat)
        a_my_dot = bracket * b_y - sat.rho * a_my
        return (
            (r_dot, theta_dot, sigma_dot, a_my_dot),
            feasible,
            b_y != raw_b,
            sigma_d, z1, z2, zy, alpha_y, alpha_y_dot, b_y, a_y_max,
        )

    def log_row(
        self, t: float, y: tuple[float, float, float, float], ev: EvalPlanar
    ) -> LogRow:
        r, theta, sigma, a_my = y
        return _planar_log_row(t, r, theta, sigma, a_my, ev, self.target)


class BaselinePlanar:
    """Planar backstepping with an ideal actuator and optional hard clip.

    The lead demand and z2 feedback match ``GuidancePlanar``; the stabilizing
    acceleration is simply applied (clipped to ``a_clip`` when one is given),
    so the lateral acceleration is an output, not a state.
    """

    state_size = 3

    def __init__(
        self,
        speed: float,
        t_final: float,
        shaping: ShapingParams,
        k2: float = 1.0,
        a_clip: float = math.inf,
        target: tuple[float, float, float] = (0.0, 0.0, 0.0),
    ) -> None:
        self.speed = speed
        self.t_final = t_final
        self.shaping = shaping
        self.k2 = k2
        self.a_clip = a_clip
        self.target = target

    def evaluate(self, t: float, y: tuple[float, float, float]) -> EvalPlanar:
        """Derivatives plus every diagnostic the logs and tests read."""
        derivs, feasible, capped, sigma_d, z1, z2, a_raw = self.rates(t, y)
        return EvalPlanar(
            derivs, feasible, capped, sigma_d, z1, z2, zy=0.0, alpha_y=a_raw, alpha_y_dot=0.0,
            b_y=a_raw, a_y_max=self.a_clip, lyapunov_y=0.5 * z2 * z2,
        )

    def rates(self, t: float, y: tuple[float, ...]) -> tuple:
        """The control chain, the integrator's hot path:
        (derivs, feasible, capped, sigma_d, z1, z2, raw acceleration)."""
        r, _theta, sigma = y
        v = self.speed
        if r < EPS_RANGE:
            raise GuardTrip("range-floor", t, f"r={r:.3e} m")

        sin_s = math.sin(sigma)
        r_dot, theta_dot = los_rates_planar_trig(r, sin_s, math.cos(sigma), v)
        z1 = v * (self.t_final - t) - r
        z1_dot = -v - r_dot
        # The demand rates only need z1 and z1_dot here; the second-derivative
        # slot feeds sigma_d_ddot, which this law never uses.
        sigma_d, sigma_d_dot, _, _, _, _, feasible = shaping_rates(z1, z1_dot, 0.0, self.shaping)
        z2 = sigma - sigma_d
        a_raw = v * (sigma_d_dot - v * sin_s / r - self.k2 * z2)
        a_my = self._clip(a_raw)
        sigma_dot = lead_rate_planar(theta_dot, a_my, v)
        return (r_dot, theta_dot, sigma_dot), feasible, a_my != a_raw, sigma_d, z1, z2, a_raw

    def log_row(self, t: float, y: tuple[float, float, float], ev: EvalPlanar) -> LogRow:
        r, theta, sigma = y
        return _planar_log_row(t, r, theta, sigma, self._clip(ev.alpha_y), ev, self.target)

    def _clip(self, a: float) -> float:
        """``a`` clipped to +-a_clip as max(-a_clip, min(a_clip, a)) would clip
        it (NaN included), without the builtin calls."""
        a_clip = self.a_clip
        a = a if a < a_clip else a_clip
        return a if a > -a_clip else -a_clip
