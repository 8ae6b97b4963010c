"""Relative-motion geometry: line-of-sight rates, heading rates, lead angle.

Reference values were frozen from an independent exact-arithmetic evaluation
of the closed-form expressions (symbolic, rationalised inputs, 30-digit
evaluation) and are pinned at 1e-12 relative tolerance.
"""

from __future__ import annotations

import math
import random

import pytest

from itcsim.guidance3d import Guidance3D
from itcsim.guidance_planar import BaselinePlanar, GuidancePlanar
from itcsim.kinematics import (
    EPS_COS,
    EPS_RANGE,
    effective_lead,
    heading_rates_3d_trig,
    inertial_position,
    lead_rate_planar,
    los_rates_3d_trig,
    los_rates_planar_trig,
)
from itcsim.saturation import SaturationParams
from itcsim.shaping import ShapingParams

REL = 1e-12

# Frozen oracle values (exact-arithmetic evaluation, 30 digits, cast to float).
RDOT_3D = -242.46157759823853       # r=1e4, theta=0, thetaM=-10deg, psiM=10deg, v=250
THETADOT_3D = 0.004341204441673259
PSIDOT_3D = -0.004275251791570859
RDOT_PL = -246.20193825305202       # r=1e4, sigma=10deg, v=250
THETADOT_PL = -0.004341204441673259
LEAD_10_10 = 0.24619691677893205    # effective lead for thetaM=-10deg, psiM=10deg


# The rate functions take the trig the guidance laws have already computed;
# these take the angles and compute it the same way.


def _los_rates_3d(r, theta, theta_m, psi_m, v):
    return los_rates_3d_trig(
        r, math.cos(theta), math.sin(theta_m), math.cos(theta_m),
        math.sin(psi_m), math.cos(psi_m), v,
    )


def _heading_rates_3d(theta, theta_m, psi_m, theta_dot, psi_dot, a_my, a_mz, v):
    return heading_rates_3d_trig(
        math.sin(theta), math.cos(theta), math.cos(theta_m), math.tan(theta_m),
        math.sin(psi_m), math.cos(psi_m), theta_dot, psi_dot, a_my, a_mz, v,
    )


def _los_rates_planar(r, sigma, v):
    return los_rates_planar_trig(r, math.sin(sigma), math.cos(sigma), v)


def test_collision_course_rates_are_exactly_zero():
    r_dot, theta_dot, psi_dot = _los_rates_3d(10000.0, 0.0, 0.0, 0.0, 250.0)
    assert r_dot == -250.0
    assert theta_dot == 0.0
    assert psi_dot == 0.0

    theta_m_dot, psi_m_dot = _heading_rates_3d(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 250.0)
    assert theta_m_dot == 0.0
    assert psi_m_dot == 0.0


def test_los_rates_3d_frozen_values():
    theta_m = math.radians(-10.0)
    psi_m = math.radians(10.0)
    r_dot, theta_dot, psi_dot = _los_rates_3d(10000.0, 0.0, theta_m, psi_m, 250.0)
    assert r_dot == pytest.approx(RDOT_3D, rel=REL)
    assert theta_dot == pytest.approx(THETADOT_3D, rel=REL)
    assert psi_dot == pytest.approx(PSIDOT_3D, rel=REL)


def test_los_rates_planar_frozen_values():
    r_dot, theta_dot = _los_rates_planar(10000.0, math.radians(10.0), 250.0)
    assert r_dot == pytest.approx(RDOT_PL, rel=REL)
    assert theta_dot == pytest.approx(THETADOT_PL, rel=REL)


def test_lead_rate_planar_channels():
    # theta_dot feeds through with unit weight, lateral acceleration with 1/v.
    assert lead_rate_planar(0.0, 98.1, 250.0) == 98.1 / 250.0
    assert lead_rate_planar(0.01, 0.0, 250.0) == -0.01
    assert lead_rate_planar(0.004, -49.05, 250.0) == pytest.approx(
        -49.05 / 250.0 - 0.004, rel=REL
    )


def test_effective_lead_values_and_symmetry():
    assert effective_lead(0.0, 0.0) == 0.0
    got = effective_lead(math.radians(-10.0), math.radians(10.0))
    assert got == pytest.approx(LEAD_10_10, rel=REL)
    assert math.degrees(got) == pytest.approx(14.10604426056637, rel=REL)

    rng = random.Random(7)
    for _ in range(50):
        a = rng.uniform(-1.0, 1.0)
        b = rng.uniform(-1.0, 1.0)
        # Lead depends on each heading angle only through its cosine.
        assert effective_lead(-a, b) == effective_lead(a, b)
        assert effective_lead(a, -b) == effective_lead(a, b)
        assert 0.0 <= effective_lead(a, b) <= math.pi


def test_effective_lead_clamps_roundoff():
    # Arguments whose cosine product drifts past +/-1 must not raise.
    assert effective_lead(1e-9, 1e-9) >= 0.0
    assert effective_lead(math.pi, 0.0) == pytest.approx(math.pi, rel=REL)


def test_effective_lead_clamp_matches_builtin_min_max():
    def old(theta_m, psi_m):
        c = math.cos(theta_m) * math.cos(psi_m)
        return math.acos(max(-1.0, min(1.0, c)))

    angles = (0.0, -0.0, 1e-9, 0.3, math.pi / 2, math.pi, -math.pi, math.nan)
    for a in angles:
        for b in angles:
            assert repr(effective_lead(a, b)) == repr(old(a, b)), (a, b)
    assert effective_lead(math.nan, 0.0) == 0.0  # min(1.0, nan) is 1.0
    for bad in (math.inf, -math.inf):  # cos() rejects both forms alike
        with pytest.raises(ValueError):
            old(bad, 0.0)
        with pytest.raises(ValueError):
            effective_lead(bad, 0.0)


def test_heading_rates_acceleration_channels():
    # Flat geometry: pitch channel is a_mz / v, yaw channel is a_my / (v cos thetaM).
    theta_m_dot, psi_m_dot = _heading_rates_3d(
        0.0, 0.0, 0.0, 0.0, 0.0, 10.0, 98.1, 250.0
    )
    assert theta_m_dot == 98.1 / 250.0
    assert psi_m_dot == 10.0 / 250.0


def test_heading_rates_los_coupling_terms():
    # Pure LOS rotation, velocity on the LOS: the lead angles co-rotate.
    theta_m_dot, psi_m_dot = _heading_rates_3d(
        0.2, 0.0, 0.0, 0.003, -0.004, 0.0, 0.0, 250.0
    )
    # theta_m_dot = -psi_dot sin(theta) sin(psi_m) - theta_dot cos(psi_m)
    assert theta_m_dot == pytest.approx(-0.003, rel=REL)
    # psi_m_dot = -psi_dot cos(theta) with zero lead and zero acceleration
    assert psi_m_dot == pytest.approx(0.004 * math.cos(0.2), rel=REL)


def test_inertial_position_geometry():
    x, y, z = inertial_position(10000.0, 0.0, 0.0, (0.0, 0.0, 0.0))
    assert (x, y, z) == (-10000.0, 0.0, 0.0)

    # Zero range collapses onto the target regardless of angles.
    assert inertial_position(0.0, 0.4, -0.3, (12.0, -7.0, 3.0)) == (12.0, -7.0, 3.0)

    # Straight-up line of sight puts the vehicle one range below the target.
    x, y, z = inertial_position(5000.0, math.pi / 2.0, 0.0, (0.0, 0.0, 0.0))
    assert x == pytest.approx(0.0, abs=1e-9)
    assert y == pytest.approx(0.0, abs=1e-9)
    assert z == pytest.approx(-5000.0, rel=REL)

    # Translation by the target point.
    x0, y0, z0 = inertial_position(8000.0, 0.2, -0.5, (0.0, 0.0, 0.0))
    x1, y1, z1 = inertial_position(8000.0, 0.2, -0.5, (100.0, 200.0, -50.0))
    assert (x1 - x0, y1 - y0, z1 - z0) == (100.0, 200.0, -50.0)


def test_planar_section_is_bitwise_exact():
    """With zero elevation everywhere, the 3D rates reduce bit-for-bit to the
    planar ones: same floating-point operations in the same order."""
    rng = random.Random(11)
    for _ in range(200):
        r = rng.uniform(1.0, 2.0e4)
        sigma = rng.uniform(-1.2, 1.2)
        a_my = rng.uniform(-98.1, 98.1)
        v = rng.uniform(50.0, 400.0)

        r_dot3, theta_dot3, psi_dot3 = _los_rates_3d(r, 0.0, 0.0, sigma, v)
        r_dot2, theta_dot2 = _los_rates_planar(r, sigma, v)
        assert r_dot3 == r_dot2
        assert theta_dot3 == 0.0
        assert psi_dot3 == theta_dot2

        theta_m_dot, psi_m_dot = _heading_rates_3d(
            0.0, 0.0, sigma, theta_dot3, psi_dot3, a_my, 0.0, v
        )
        assert theta_m_dot == 0.0
        assert psi_m_dot == lead_rate_planar(psi_dot3, a_my, v)


# --- The laws' inline kinematics ------------------------------------------------
#
# Each law computes the LOS and heading rates inside its own chain, sharing
# products with the rest of it; the functions above are the reference forms.
# The derivatives must match them bit for bit (compared by ``repr``, so -0.0
# and 0.0 differ), including at the guards' edges: ranges at the range floor,
# |cos(theta)| at the polar guard, theta_m near +-pi/2, signed zeros and
# accelerations at their bounds.


def _polar_edge() -> float:
    """The largest theta below pi/2 whose cosine the 3D law still accepts."""
    theta = math.acos(EPS_COS)
    while math.cos(theta) < EPS_COS:
        theta = math.nextafter(theta, 0.0)
    return theta


def _pick(rng, edges, low, high):
    return rng.choice(edges) if rng.random() < 0.5 else rng.uniform(low, high)


A_MAX = 98.1
# Just inside the bound: the actuator bracket 1 - (a/A)^2 is about 2e-6,
# above the laws' EPS_DEN guard.
A_EDGE = A_MAX * (1.0 - 1e-6)
R_EDGES = (EPS_RANGE, math.nextafter(EPS_RANGE, 1.0), 1e-3, 1.0)
T_EDGES = (0.0, -0.0, 50.0, 75.0)


def _law_kw(rng) -> dict:
    shaping = ShapingParams()
    shaping.validate()
    return dict(speed=rng.choice((250.0, rng.uniform(50.0, 400.0))), t_final=50.0, shaping=shaping)


def _saturation() -> SaturationParams:
    sat = SaturationParams(a_max=A_MAX)
    sat.validate()
    return sat


def test_3d_law_computes_the_reference_rates_bit_for_bit():
    rng = random.Random(2024)
    polar = _polar_edge()
    angle_edges = (0.0, -0.0, polar, -polar)
    lead_edges = (0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi / 2 - 1e-9, 1e-9 - math.pi / 2)
    accel_edges = (0.0, -0.0, A_EDGE, -A_EDGE)
    for _ in range(400):
        law = Guidance3D(sat=_saturation(), **_law_kw(rng))
        t = _pick(rng, T_EDGES, 0.0, 75.0)
        y = (
            _pick(rng, R_EDGES, 1.0, 2.0e4),
            _pick(rng, angle_edges, -1.4, 1.4),
            rng.uniform(-math.pi, math.pi),
            _pick(rng, lead_edges, -1.5, 1.5),
            _pick(rng, lead_edges, -1.5, 1.5),
            _pick(rng, accel_edges, -A_MAX, A_MAX),
            _pick(rng, accel_edges, -A_MAX, A_MAX),
        )
        r, theta, _psi, theta_m, psi_m, a_my, a_mz = y
        v = law.speed
        los = _los_rates_3d(r, theta, theta_m, psi_m, v)
        heading = _heading_rates_3d(theta, theta_m, psi_m, los[1], los[2], a_my, a_mz, v)
        assert repr(law.rates(t, y)[0][:5]) == repr(los + heading), (t, y, v)


def test_planar_laws_compute_the_reference_rates_bit_for_bit():
    rng = random.Random(2025)
    lead_edges = (0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi)
    for _ in range(400):
        kw = _law_kw(rng)
        v = kw["speed"]
        t = _pick(rng, T_EDGES, 0.0, 75.0)
        r = _pick(rng, R_EDGES, 1.0, 2.0e4)
        theta = rng.uniform(-math.pi, math.pi)
        sigma = _pick(rng, lead_edges, -1.5, 1.5)
        los = _los_rates_planar(r, sigma, v)

        a_my = _pick(rng, (0.0, -0.0, A_EDGE, -A_EDGE), -A_MAX, A_MAX)
        law = GuidancePlanar(sat=_saturation(), **kw)
        expected = los + (lead_rate_planar(los[1], a_my, v),)
        got = law.rates(t, (r, theta, sigma, a_my))[0][:3]
        assert repr(got) == repr(expected), (t, r, sigma, a_my, v)

        # The baseline's acceleration is its clipped command (at its bound
        # whenever the clip engages), as ``log_row`` reports it.
        baseline = BaselinePlanar(a_clip=rng.choice((A_MAX, math.inf)), **kw)
        out = baseline.rates(t, (r, theta, sigma))
        a_cmd = max(-baseline.a_clip, min(baseline.a_clip, out[6]))
        expected = los + (lead_rate_planar(los[1], a_cmd, v),)
        assert repr(out[0]) == repr(expected), (t, r, sigma, v, baseline.a_clip)
