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
products with the rest of the control chain.  The symbolic model in
``tests/test_symbolic.py``, built from the geometry alone, is their oracle.

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


# --- Inertial position ------------------------------------------------------


def inertial_position(r: float, theta: float, psi: float) -> tuple[float, float, float]:
    """Interceptor position in the inertial frame, m, with the target at
    the origin.

    The LOS unit vector from interceptor to target is
    (cos(theta)cos(psi), cos(theta)sin(psi), sin(theta)); the interceptor
    sits range ``r`` behind the target along it, so at zero LOS angles it
    is on the negative x axis.
    """
    ct = math.cos(theta)
    # 0.0 - p, not -p, so a zero offset logs as 0.0 rather than -0.0.
    return (
        0.0 - r * ct * math.cos(psi),
        0.0 - r * ct * math.sin(psi),
        0.0 - r * math.sin(theta),
    )
