"""Engagement kinematics for a constant-speed interceptor against a fixed target.

The interceptor is modelled as a point mass flying at constant speed ``v``.
Geometry is expressed in a line-of-sight (LOS) frame centred on the
interceptor: ``r`` is the range to the target, ``theta``/``psi`` are the LOS
elevation/azimuth angles, and ``theta_m``/``psi_m`` are the velocity-vector
(heading) angles measured *relative to the LOS*, so they double as the
vertical and horizontal lead components.  Lateral accelerations ``a_my``
(horizontal) and ``a_mz`` (vertical) rotate the velocity vector; speed never
changes.

The planar variant is the restriction of the same equations to the
horizontal plane (``theta = theta_m = 0``): a single LOS angle, a single
lead angle ``sigma`` and a single lateral acceleration.

The guidance laws compute the LOS and heading rates inline, sharing their
products with the rest of the control chain; the rate functions here are
the reference forms, and the laws' derivatives match them bit for bit.

Angles are radians, distances metres, times seconds throughout.
"""

from __future__ import annotations

import math

# Guard thresholds for near-singular geometry.  LOS elevation of +-90 deg
# (cos(theta) ~ 0) and zero range make the spherical equations singular;
# both are far outside any sensible engagement and are treated as errors
# by the integration loop rather than silently clamped.
EPS_COS = 1e-9
EPS_RANGE = 1e-6


# --- Lead angle -------------------------------------------------------------


def effective_lead(theta_m: float, psi_m: float) -> float:
    """Total angle between velocity vector and LOS, rad.

    cos(sigma) = cos(theta_m) * cos(psi_m); the seeker field-of-view
    constraint applies to this combined angle, not to either component.
    """
    c = math.cos(theta_m) * math.cos(psi_m)
    # Guard the inverse cosine against rounding just outside [-1, 1], as
    # max(-1.0, min(1.0, c)) would (NaN -> 1.0), without the builtin calls.
    c = c if c < 1.0 else 1.0
    return math.acos(c if c > -1.0 else -1.0)


# --- Equations of motion ----------------------------------------------------


def los_rates_3d_trig(
    r: float, cos_t: float, sin_tm: float, cos_tm: float, sin_pm: float, cos_pm: float, v: float
) -> tuple[float, float, float]:
    """Range and LOS angular rates (r_dot, theta_dot, psi_dot) for 3D flight.

    Takes the cosine of theta and the sines and cosines of theta_m and
    psi_m, which the caller has already computed.
    """
    r_dot = -v * cos_tm * cos_pm
    theta_dot = -v * sin_tm / r
    psi_dot = -v * cos_tm * sin_pm / (r * cos_t)
    return r_dot, theta_dot, psi_dot


def heading_rates_3d_trig(
    sin_t: float, cos_t: float, cos_tm: float, tan_tm: float, sin_pm: float, cos_pm: float,
    theta_dot: float, psi_dot: float, a_my: float, a_mz: float, v: float,
) -> tuple[float, float]:
    """Lead-angle rates (theta_m_dot, psi_m_dot) under lateral accelerations.

    The lead angles are measured against the rotating LOS frame, so the LOS
    rates appear as kinematic coupling terms alongside the acceleration
    commands.  Takes the trig of theta, theta_m and psi_m; ``tan_tm`` is
    ``math.tan(theta_m)``, which sin/cos can miss by an ulp.
    """
    theta_m_dot = a_mz / v - psi_dot * sin_t * sin_pm - theta_dot * cos_pm
    psi_m_dot = (
        a_my / (v * cos_tm)
        + psi_dot * tan_tm * cos_pm * sin_t
        - psi_dot * cos_t
        - theta_dot * tan_tm * sin_pm
    )
    return theta_m_dot, psi_m_dot


def los_rates_planar_trig(r: float, sin_s: float, cos_s: float, v: float) -> tuple[float, float]:
    """Range and LOS rates (r_dot, theta_dot) for planar flight, from the
    sine and cosine of sigma."""
    return -v * cos_s, -v * sin_s / r


def lead_rate_planar(theta_dot: float, a_my: float, v: float) -> float:
    """Planar lead-angle rate: turn rate of the velocity minus the LOS rate."""
    return a_my / v - theta_dot


# --- Inertial position ------------------------------------------------------


def inertial_position(
    r: float, theta: float, psi: float, target: tuple[float, float, float] = (0.0, 0.0, 0.0)
) -> tuple[float, float, float]:
    """Interceptor position in the inertial frame, m.

    The LOS unit vector from interceptor to target is
    (cos(theta)cos(psi), cos(theta)sin(psi), sin(theta)); the interceptor
    sits range ``r`` behind the target along it.  With the default target
    at the origin and zero initial LOS angles the interceptor starts on
    the negative x axis.
    """
    ct = math.cos(theta)
    return (
        target[0] - r * ct * math.cos(psi),
        target[1] - r * ct * math.sin(psi),
        target[2] - r * math.sin(theta),
    )
