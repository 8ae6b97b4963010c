"""Impact-time backstepping guidance in the plane, plus an uncompensated baseline.

The planar law is the two-dimensional restriction of the 3D chain: one LOS
angle, one lead angle ``sigma`` and one lateral-acceleration channel.  The
lead rate is sigma_dot = a_my/v - theta_dot, whose coupling term -theta_dot
the stabilizing acceleration alpha_y = v*(sigma_d_dot + theta_dot - k2*z2)
cancels.  The shaped lead demand is tracked through the error pair

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
from dataclasses import dataclass
from typing import NamedTuple

from .errors import GuardTrip
from .kinematics import EPS_RANGE, inertial_position
from .logio import ERROR_MAX, LogRow
from .saturation import EPS_DEN, SaturationParams, axis_brackets, clip_command
from .shaping import ShapingParams, shaping_rates


def _planar_log_row(
    t: float,
    r: float,
    theta: float,
    sigma: float,
    a_my: float,
    ev: "EvalPlanar",
    lyapunov_y: float,
) -> LogRow:
    """Planar run in the shared schema: 3D-only columns stay zero.

    The planar LOS angle goes in the ``theta`` column (matching the planar
    state naming); the position columns are ``inertial_position`` with that
    angle as azimuth at zero elevation, in the target's plane z = 0.  Each
    law's ``rates`` has kept ``a_my`` below ``logio.ERROR_MAX``.
    """
    # In COLUMNS order; the zeros are the 3D-only columns.  tuple.__new__
    # skips the named tuple's Python-level __new__.
    return tuple.__new__(LogRow, (
        t, r, theta, 0.0, 0.0, 0.0, sigma, a_my, 0.0, ev.b_y, 0.0,
        ev.z1, ev.z2, 0.0, 0.0, ev.zy, 0.0, ev.a_y_max, 0.0, 0.0, lyapunov_y,
        *inertial_position(r, 0.0, theta),
    ))


class EvalPlanar(NamedTuple):
    """One evaluation of a planar law: its ``rates`` tuple, named.

    The engine reads ``derivs`` and ``z1``.  ``derivs`` covers (r, theta,
    sigma, a_my) for the compensated law and (r, theta, sigma) for the
    baseline, whose acceleration is not a state.
    """

    derivs: tuple[float, ...]
    capped: bool
    sigma_d: float
    z1: float
    z2: float
    zy: float
    alpha_y: float
    alpha_y_dot: float
    b_y: float
    a_y_max: float


@dataclass(frozen=True)
class GuidancePlanar:
    """Closed-loop evaluation of the planar impact-time guidance law."""

    state_size = 4

    speed: float
    t_final: float
    shaping: ShapingParams
    sat: SaturationParams
    k2: float = 1.0
    ky: float = 7.0

    def evaluate(self, t: float, y: tuple[float, float, float, float]) -> EvalPlanar:
        """``rates(t, y)`` as an ``EvalPlanar``."""
        return tuple.__new__(EvalPlanar, self.rates(t, y))

    def rates(self, t: float, y: tuple[float, ...]) -> tuple:
        """The control chain, the integrator's hot path: a flat tuple of the
        ``EvalPlanar`` fields, led by the state derivatives."""
        r, _theta, sigma, a_my = y
        v = self.speed
        if r < EPS_RANGE:
            raise GuardTrip("range-floor", f"r={r:.3e} m")

        # --- Kinematics: the range and LOS rates, and the lead rate, the
        # velocity's turn rate less the LOS rate.  -(v * x) is (-v) * x bit
        # for bit: IEEE negation is exact.
        v_sin_s = v * math.sin(sigma)
        v_cos_s = v * math.cos(sigma)
        r_dot = -v_cos_s
        theta_dot = -v_sin_s / r
        sigma_dot = a_my / v - theta_dot

        # --- Range-time error and shaped demand ---
        z1 = v * (self.t_final - t) - r
        z1_dot = -v - r_dot
        z1_ddot = -v_sin_s * sigma_dot
        sigma_d, sigma_d_dot, sigma_d_ddot, _, _, _ = shaping_rates(
            z1, z1_dot, z1_ddot, self.shaping
        )

        # --- Lead error and stabilizing acceleration ---
        z2 = sigma - sigma_d
        alpha_y = v * (sigma_d_dot + theta_dot - self.k2 * z2)
        zy = a_my - alpha_y
        # Beyond ERROR_MAX the logged Vy would be infinite.
        e_max = ERROR_MAX
        if not (-e_max < z2 < e_max and -e_max < zy < e_max):
            raise OverflowError(f"error pair z2={z2:.3e}, zy={zy:.3e}")
        z2_dot = sigma_dot - sigma_d_dot
        alpha_y_dot = v * (
            sigma_d_ddot
            - v_cos_s * sigma_dot / r
            + v_sin_s * r_dot / (r * r)
            - self.k2 * z2_dot
        )

        # --- Commanded input through the saturation bracket ---
        sat = self.sat
        bracket, _, a_y_max, _ = axis_brackets(a_my, 0.0, sat)
        if bracket < EPS_DEN:
            raise GuardTrip("denominator-singular", f"bracket={bracket:.3e}")
        leak = sat.rho * a_my
        raw_b = (leak + alpha_y_dot - z2 / v - self.ky * zy) / bracket
        b_y = clip_command(raw_b)
        a_my_dot = bracket * b_y - leak
        return (
            (r_dot, theta_dot, sigma_dot, a_my_dot),
            b_y != raw_b,
            sigma_d, z1, z2, zy, alpha_y, alpha_y_dot, b_y, a_y_max,
        )

    def log_row(
        self, t: float, y: tuple[float, float, float, float], ev: EvalPlanar
    ) -> LogRow:
        r, theta, sigma, a_my = y
        lyapunov_y = 0.5 * (ev.z2 * ev.z2 + ev.zy * ev.zy)
        return _planar_log_row(t, r, theta, sigma, a_my, ev, lyapunov_y)


@dataclass(frozen=True)
class BaselinePlanar:
    """Planar backstepping with an ideal actuator and optional hard clip.

    The lead demand and z2 feedback match ``GuidancePlanar``; the stabilizing
    acceleration is simply applied (clipped to ``a_clip`` when one is given),
    so the lateral acceleration is an output, not a state.
    """

    state_size = 3

    speed: float
    t_final: float
    shaping: ShapingParams
    k2: float = 1.0
    a_clip: float = math.inf

    def evaluate(self, t: float, y: tuple[float, float, float]) -> EvalPlanar:
        """``rates(t, y)`` as an ``EvalPlanar``."""
        return tuple.__new__(EvalPlanar, self.rates(t, y))

    def rates(self, t: float, y: tuple[float, ...]) -> tuple:
        """The control chain, the integrator's hot path: the ``EvalPlanar``
        fields, with no actuator state: zy and alpha_y_dot zero, the raw
        acceleration demand as alpha_y and b_y, and the clip as a_y_max."""
        r, _theta, sigma = y
        v = self.speed
        if r < EPS_RANGE:
            raise GuardTrip("range-floor", f"r={r:.3e} m")

        # Kinematics as in ``GuidancePlanar.rates``.
        v_sin_s = v * math.sin(sigma)
        r_dot = -v * math.cos(sigma)
        theta_dot = -v_sin_s / r
        z1 = v * (self.t_final - t) - r
        z1_dot = -v - r_dot
        # The demand rates only need z1 and z1_dot here; the second-derivative
        # slot feeds sigma_d_ddot, which this law never uses.
        sigma_d, sigma_d_dot, _, _, _, _ = shaping_rates(z1, z1_dot, 0.0, self.shaping)
        z2 = sigma - sigma_d
        a_raw = v * (sigma_d_dot + theta_dot - self.k2 * z2)
        # Past ERROR_MAX the logged aMy, by or effort would overflow; NaN fails too.
        if not -ERROR_MAX < a_raw < ERROR_MAX:
            raise OverflowError(f"acceleration demand {a_raw:.3e}")
        a_my = self._clip(a_raw)
        sigma_dot = a_my / v - theta_dot
        return (
            (r_dot, theta_dot, sigma_dot), a_my != a_raw,
            sigma_d, z1, z2, 0.0, a_raw, 0.0, a_raw, self.a_clip,
        )

    def log_row(self, t: float, y: tuple[float, float, float], ev: EvalPlanar) -> LogRow:
        r, theta, sigma = y
        a_my, lyapunov_y = self._clip(ev.alpha_y), 0.5 * ev.z2 * ev.z2
        return _planar_log_row(t, r, theta, sigma, a_my, ev, lyapunov_y)

    def _clip(self, a: float) -> float:
        """``a`` clipped to +-a_clip as max(-a_clip, min(a_clip, a)) would clip
        it (NaN included), without the builtin calls."""
        a_clip = self.a_clip
        a = a if a < a_clip else a_clip
        return a if a > -a_clip else -a_clip
