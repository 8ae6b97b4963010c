"""Impact-time backstepping guidance in three dimensions.

The control chain runs range-time error -> demanded lead -> demanded heading
components -> stabilizing lateral accelerations -> commanded actuator inputs.
Each stage feeds the next its value *and* its analytic time derivative, so no
numerical differentiation happens anywhere in the loop:

1. z1 = v*(t_final - t) - r is shaped into a demanded lead (``shaping``)
   split evenly across the two heading components.
2. Heading errors z3 = theta_m - heading_d and z4 = psi_m - heading_d are
   driven out by stabilizing accelerations alpha_z, alpha_y chosen to cancel
   the LOS coupling terms in the heading dynamics.
3. Actuator errors zz = a_mz - alpha_z and zy = a_my - alpha_y are driven
   out through the saturating actuator channels; the commanded input divides
   by the channel's input-effectiveness bracket so the design dynamics are
   recovered exactly while the achieved acceleration can never leave its
   bound.

With exact cancellation the closed error pairs obey

    z3_dot = -k3*z3 + zz/v,            zz_dot = -kz*zz - z3/v
    z4_dot = -k4*z4 + zy/(v*cos(theta_m)),  zy_dot = -ky*zy - z4/(v*cos(theta_m))

whose quadratic forms V = (z_heading^2 + z_actuator^2)/2 decay monotonically
whenever the command cap and shaping guards are inactive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import GuardTrip
from .kinematics import EPS_COS, EPS_RANGE, effective_lead, inertial_position
from .logio import ERROR_MAX, LogRow
from .saturation import EPS_DEN, SaturationParams, axis_brackets, clip_command
from .shaping import ShapingParams, shaping_rates


class Eval3D(NamedTuple):
    """One evaluation of the 3D law: ``Guidance3D.rates``'s tuple, named.

    The engine reads item 0 (``derivs``) and item 3 (``z1``).
    """

    # Derivatives of (r, theta, psi, theta_m, psi_m, a_my, a_mz).
    derivs: tuple[float, float, float, float, float, float, float]
    capped: bool
    sigma_d: float
    z1: float
    z3: float
    z4: float
    zy: float
    zz: float
    alpha_y: float
    alpha_z: float
    alpha_y_dot: float
    alpha_z_dot: float
    theta_ddot: float
    psi_ddot: float
    b_y: float
    b_z: float
    a_y_max: float
    a_z_max: float


@dataclass(frozen=True)
class Guidance3D:
    """Closed-loop evaluation of the 3D impact-time guidance law.

    Bundles the engagement constants (speed, commanded impact time) with the
    shaping, gain and actuator parameter blocks; ``rates`` runs the control
    chain on a state tuple, ``evaluate`` names its tuple as an ``Eval3D``,
    and ``log_row`` adds sigma, Vz and Vy for the trajectory row.
    """

    state_size = 7

    speed: float
    t_final: float
    shaping: ShapingParams
    sat: SaturationParams
    k3: float = 1.0
    k4: float = 1.0
    ky: float = 7.0
    kz: float = 7.0

    def evaluate(
        self, t: float, y: tuple[float, float, float, float, float, float, float]
    ) -> Eval3D:
        """``rates(t, y)`` as an ``Eval3D``."""
        # tuple.__new__ skips the named tuple's Python-level __new__.
        return tuple.__new__(Eval3D, self.rates(t, y))

    def rates(self, t: float, y: tuple[float, ...]) -> tuple:
        """The control chain, the integrator's hot path: a flat tuple of the
        ``Eval3D`` fields, led by the state derivatives, so no record is
        built per stage."""
        r, theta, psi, theta_m, psi_m, a_my, a_mz = y
        v = self.speed
        if r < EPS_RANGE:
            raise GuardTrip("range-floor", f"r={r:.3e} m")
        cos_t = math.cos(theta)
        if abs(cos_t) < EPS_COS:
            raise GuardTrip("polar-singularity", f"theta={theta:.6f} rad")

        sin_t = math.sin(theta)
        cos_tm = math.cos(theta_m)
        sin_tm = math.sin(theta_m)
        tan_tm = sin_tm / cos_tm
        sec2_tm = 1.0 / (cos_tm * cos_tm)
        cos_pm = math.cos(psi_m)
        sin_pm = math.sin(psi_m)

        # Products that several terms below share, each with its operands in
        # the order every one of those terms multiplies them.  -(v * x) is
        # (-v) * x bit for bit: IEEE negation is exact.
        v_cos_tm = v * cos_tm
        v_sin_tm = v * sin_tm
        v_cos_tm_sin_pm = v_cos_tm * sin_pm
        r_r = r * r
        r_cos_t = r * cos_t

        # --- Kinematics: the range and LOS rates, then the lead rates, each
        # an acceleration term plus the LOS rates' coupling terms ---
        r_dot = -v_cos_tm * cos_pm
        theta_dot = -v_sin_tm / r
        psi_dot = -v_cos_tm_sin_pm / r_cos_t
        psi_dot_sin_t = psi_dot * sin_t
        psi_dot_sin_t_sin_pm = psi_dot_sin_t * sin_pm
        psi_dot_cos_t = psi_dot * cos_t
        psi_dot_theta_dot = psi_dot * theta_dot
        theta_dot_cos_pm = theta_dot * cos_pm
        theta_m_dot = a_mz / v - psi_dot_sin_t_sin_pm - theta_dot_cos_pm
        # The heading rates take math.tan(theta_m), which sin/cos can miss by
        # an ulp; the brackets below take sin/cos.
        tan_m = math.tan(theta_m)
        psi_m_dot = (
            a_my / v_cos_tm
            + psi_dot * tan_m * cos_pm * sin_t
            - psi_dot_cos_t
            - theta_dot * tan_m * sin_pm
        )

        # --- Range-time error and shaped demand ---
        z1 = v * (self.t_final - t) - r
        z1_dot = -v - r_dot
        z1_ddot = -v * (sin_tm * cos_pm * theta_m_dot + cos_tm * sin_pm * psi_m_dot)
        sigma_d, _, _, heading_d, heading_d_dot, heading_d_ddot = shaping_rates(
            z1, z1_dot, z1_ddot, self.shaping
        )

        # --- Heading errors and stabilizing accelerations ---
        z3 = theta_m - heading_d
        z4 = psi_m - heading_d
        bracket_az = psi_dot_sin_t_sin_pm + theta_dot_cos_pm + heading_d_dot - self.k3 * z3
        alpha_z = v * bracket_az
        bracket_ay = (
            -psi_dot * tan_tm * cos_pm * sin_t
            + psi_dot_cos_t
            + theta_dot * tan_tm * sin_pm
            + heading_d_dot
            - self.k4 * z4
        )
        alpha_y = v_cos_tm * bracket_ay

        zz = a_mz - alpha_z
        zy = a_my - alpha_y
        # Beyond ERROR_MAX the logged Vz or Vy would be infinite.
        e_max = ERROR_MAX
        if not (
            -e_max < z3 < e_max and -e_max < zz < e_max
            and -e_max < z4 < e_max and -e_max < zy < e_max
        ):
            raise OverflowError(f"error pairs z3={z3:.3e}, zz={zz:.3e}, z4={z4:.3e}, zy={zy:.3e}")

        # --- Second derivatives needed by the input stage ---
        theta_ddot = v_sin_tm * r_dot / r_r - v_cos_tm * theta_m_dot / r
        psi_ddot = (
            v_cos_tm_sin_pm * r_dot / (r_r * cos_t)
            - v_cos_tm_sin_pm * sin_t * theta_dot / (r_cos_t * cos_t)
            - v_cos_tm * cos_pm * psi_m_dot / r_cos_t
            + v_sin_tm * sin_pm * theta_m_dot / r_cos_t
        )
        z3_dot = theta_m_dot - heading_d_dot
        z4_dot = psi_m_dot - heading_d_dot

        alpha_z_dot = v * (
            psi_ddot * sin_t * sin_pm
            + psi_dot_cos_t * theta_dot * sin_pm
            + psi_dot_sin_t * cos_pm * psi_m_dot
            + theta_ddot * cos_pm
            - theta_dot * sin_pm * psi_m_dot
            + heading_d_ddot
            - self.k3 * z3_dot
        )
        bracket_ay_dot = (
            -psi_ddot * tan_tm * cos_pm * sin_t
            - psi_dot * theta_m_dot * sec2_tm * cos_pm * sin_t
            + psi_dot * psi_m_dot * tan_tm * sin_pm * sin_t
            - psi_dot_theta_dot * tan_tm * cos_pm * cos_t
            - psi_dot_theta_dot * sin_t
            + psi_ddot * cos_t
            + theta_ddot * tan_tm * sin_pm
            + theta_dot * theta_m_dot * sec2_tm * sin_pm
            + theta_dot * psi_m_dot * tan_tm * cos_pm
            + heading_d_ddot
            - self.k4 * z4_dot
        )
        alpha_y_dot = -v_sin_tm * theta_m_dot * bracket_ay + v_cos_tm * bracket_ay_dot

        # --- Commanded actuator inputs through the saturation brackets ---
        sat = self.sat
        bracket_y, bracket_z, a_y_max, a_z_max = axis_brackets(a_my, a_mz, sat)
        if bracket_y < EPS_DEN:
            raise GuardTrip("denominator-singular", f"horizontal bracket={bracket_y:.3e}")
        if bracket_z < EPS_DEN:
            raise GuardTrip("denominator-singular", f"vertical bracket={bracket_z:.3e}")

        # The leak terms, shared by the commands and the channel rates.
        leak_y = sat.rho * a_my
        leak_z = sat.rho * a_mz
        raw_b_y = (leak_y + alpha_y_dot - z4 / v_cos_tm - self.ky * zy) / bracket_y
        raw_b_z = (leak_z + alpha_z_dot - z3 / v - self.kz * zz) / bracket_z
        b_y = clip_command(raw_b_y)
        b_z = clip_command(raw_b_z)

        a_my_dot = bracket_y * b_y - leak_y
        a_mz_dot = bracket_z * b_z - leak_z

        return (
            (r_dot, theta_dot, psi_dot, theta_m_dot, psi_m_dot, a_my_dot, a_mz_dot),
            b_y != raw_b_y or b_z != raw_b_z,
            sigma_d, z1, z3, z4, zy, zz, alpha_y, alpha_z, alpha_y_dot, alpha_z_dot,
            theta_ddot, psi_ddot, b_y, b_z, a_y_max, a_z_max,
        )

    def log_row(
        self, t: float, y: tuple[float, float, float, float, float, float, float], ev: Eval3D
    ) -> LogRow:
        r, theta, psi, theta_m, psi_m, a_my, a_mz = y
        z3, z4, zy, zz = ev.z3, ev.z4, ev.zy, ev.zz
        px, py, pz = inertial_position(r, theta, psi)
        # In COLUMNS order; z2 is a planar-only column.  Vz and Vy are the
        # error pairs' quadratic forms.
        return tuple.__new__(LogRow, (
            t, r, theta, psi, theta_m, psi_m, effective_lead(theta_m, psi_m), a_my, a_mz,
            ev.b_y, ev.b_z, ev.z1, 0.0, z3, z4, zy, zz, ev.a_y_max, ev.a_z_max,
            0.5 * (z3 * z3 + zz * zz), 0.5 * (z4 * z4 + zy * zy), px, py, pz,
        ))
