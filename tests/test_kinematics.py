"""Relative-motion geometry: line-of-sight rates, heading rates, lead angle.

The rates are read off the laws' state derivatives, where the laws compute
them inline; ``test_symbolic.py`` checks them against a model built from
the geometry alone.  Reference values were frozen from an independent
exact-arithmetic evaluation of the closed-form expressions (symbolic,
rationalised inputs, 30-digit evaluation) and are pinned at 1e-12 relative
tolerance.
"""

from __future__ import annotations

import math
import random

import pytest

from itcsim.guidance3d import Guidance3D
from itcsim.guidance_planar import GuidancePlanar
from itcsim.kinematics import effective_lead, inertial_position
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


# The laws compute the kinematics inline; these read it off their state
# derivatives.  The bound is twice the largest acceleration used, so no
# actuator guard trips.


def _law_kw(v=250.0) -> dict:
    return dict(speed=v, t_final=50.0, shaping=ShapingParams(), sat=SaturationParams(a_max=2.0 * 98.1))


def _rates_3d(r, theta, theta_m, psi_m, a_my=0.0, a_mz=0.0, v=250.0):
    """(r_dot, theta_dot, psi_dot, theta_m_dot, psi_m_dot) of ``Guidance3D``."""
    return Guidance3D(**_law_kw(v)).rates(0.0, (r, theta, 0.0, theta_m, psi_m, a_my, a_mz))[0][:5]


def _rates_planar(r, sigma, a_my=0.0, v=250.0):
    """(r_dot, theta_dot, sigma_dot) of ``GuidancePlanar``."""
    return GuidancePlanar(**_law_kw(v)).rates(0.0, (r, 0.0, sigma, a_my))[0][:3]


def test_collision_course_rates_are_exactly_zero():
    r_dot, theta_dot, psi_dot, theta_m_dot, psi_m_dot = _rates_3d(10000.0, 0.0, 0.0, 0.0)
    assert r_dot == -250.0
    assert theta_dot == 0.0
    assert psi_dot == 0.0
    assert theta_m_dot == 0.0
    assert psi_m_dot == 0.0


def test_los_rates_3d_frozen_values():
    theta_m = math.radians(-10.0)
    psi_m = math.radians(10.0)
    r_dot, theta_dot, psi_dot = _rates_3d(10000.0, 0.0, theta_m, psi_m)[:3]
    assert r_dot == pytest.approx(RDOT_3D, rel=REL)
    assert theta_dot == pytest.approx(THETADOT_3D, rel=REL)
    assert psi_dot == pytest.approx(PSIDOT_3D, rel=REL)


def test_los_rates_planar_frozen_values():
    r_dot, theta_dot, _ = _rates_planar(10000.0, math.radians(10.0))
    assert r_dot == pytest.approx(RDOT_PL, rel=REL)
    assert theta_dot == pytest.approx(THETADOT_PL, rel=REL)


def test_lead_rate_planar_channels():
    # The LOS rate feeds through with unit weight, lateral acceleration with 1/v.
    assert _rates_planar(10000.0, 0.0, a_my=98.1)[2] == 98.1 / 250.0
    _, theta_dot, sigma_dot = _rates_planar(10000.0, math.asin(0.4))
    assert theta_dot == pytest.approx(-0.01, rel=REL)
    assert sigma_dot == -theta_dot
    _, theta_dot, sigma_dot = _rates_planar(10000.0, math.asin(-0.16), a_my=-49.05)
    assert theta_dot == pytest.approx(0.004, rel=REL)
    assert sigma_dot == pytest.approx(-49.05 / 250.0 - 0.004, rel=REL)


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
    theta_m_dot, psi_m_dot = _rates_3d(10000.0, 0.0, 0.0, 0.0, a_my=10.0, a_mz=98.1)[3:]
    assert theta_m_dot == 98.1 / 250.0
    assert psi_m_dot == 10.0 / 250.0


def test_inertial_position_geometry():
    # The target is the origin; zero LOS angles put the vehicle on the
    # negative x axis, its zero offsets +0.0 (a CSV prints -0.0 as "-0").
    position = inertial_position(10000.0, 0.0, 0.0)
    assert repr(position) == repr((-10000.0, 0.0, 0.0))

    # Zero range collapses onto the target regardless of angles.
    assert repr(inertial_position(0.0, 0.4, -0.3)) == repr((0.0, 0.0, 0.0))

    # Straight-up line of sight puts the vehicle one range below the target.
    x, y, z = inertial_position(5000.0, math.pi / 2.0, 0.0)
    assert x == pytest.approx(0.0, abs=1e-9)
    assert y == pytest.approx(0.0, abs=1e-9)
    assert z == pytest.approx(-5000.0, rel=REL)

    # An off-axis line of sight: the vehicle is at -r times its unit vector.
    x, y, z = inertial_position(8000.0, 0.2, -0.5)
    unit = (math.cos(0.2) * math.cos(-0.5), math.cos(0.2) * math.sin(-0.5), math.sin(0.2))
    assert (x, y, z) == pytest.approx(tuple(-8000.0 * u for u in unit), rel=REL)


def test_planar_section_is_bitwise_exact():
    """With zero elevation everywhere, the 3D law's rates reduce bit-for-bit
    to the planar law's: same floating-point operations in the same order."""
    rng = random.Random(11)
    for _ in range(200):
        r = rng.uniform(1.0, 2.0e4)
        sigma = rng.uniform(-1.2, 1.2)
        a_my = rng.uniform(-98.1, 98.1)
        v = rng.uniform(50.0, 400.0)

        r_dot3, theta_dot3, psi_dot3, theta_m_dot, psi_m_dot = _rates_3d(
            r, 0.0, 0.0, sigma, a_my=a_my, v=v
        )
        r_dot2, theta_dot2, sigma_dot = _rates_planar(r, sigma, a_my=a_my, v=v)
        assert r_dot3 == r_dot2
        assert theta_dot3 == 0.0
        assert psi_dot3 == theta_dot2
        assert theta_m_dot == 0.0
        assert psi_m_dot == sigma_dot
