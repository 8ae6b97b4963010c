"""Lead-demand shaping: the cubic blend and the demanded lead/heading chain.

Frozen reference values come from an independent exact-arithmetic evaluation
of the closed forms (30-digit precision, cast to float) and are pinned at
1e-12 relative tolerance.
"""

from __future__ import annotations

import math
import random

import pytest

from itcsim.errors import ConfigError
from itcsim.shaping import (
    ShapingParams,
    desired_heading,
    desired_lead,
    sgmf,
    sgmf_derivatives,
    shaping_rates,
)

REL = 1e-12

# Frozen oracle values for k1=0.49, phi=300.
SGMF_150 = 0.6875
SGMF_D1_150 = 0.00375
SGMF_D2_150 = -1.6666666666666667e-05
SGMF_D1_0 = 0.005
SGMF_D2_PHI = -3.3333333333333335e-05
SIGMA_D_MAX = 1.0356115365192968           # acos(1 - k1), rad
SIGMA_D_MAX_DEG = 59.33617025761403
HEADING_MAX = 0.7753974966107531           # even split of the max demand, rad

# Worked point z1=150, z1_dot=-10, z1_ddot=0.
EX_SIGMA_D = 0.8458102781734907
EX_SIGMA_D_DOT = -0.024548813727069886
EX_SIGMA_D_DDOT = -0.0016249579751285849
EX_HEADING = 0.6192312726763252
EX_HEADING_DOT = -0.019438612402360646
EX_HEADING_DDOT = -0.0011247631685285231


def _params(**kw) -> ShapingParams:
    p = ShapingParams(**kw)
    p.validate()
    return p


def test_params_validation():
    with pytest.raises(ConfigError, match="k1"):
        _params(k1=0.0)
    # k1 must leave the demanded lead strictly inside the field of view:
    # for a 60 deg cone that means k1 < 1 - cos(60 deg) = 0.5.
    with pytest.raises(ConfigError, match="0.500000"):
        _params(k1=0.5)
    with pytest.raises(ConfigError, match="phi"):
        _params(phi=0.0)
    with pytest.raises(ConfigError, match="eps_sin"):
        _params(eps_sin=0.0)
    with pytest.raises(ConfigError, match="sigma_max"):
        _params(sigma_max=math.radians(90.0))
    with pytest.raises(ConfigError, match="sigma_max"):
        _params(sigma_max=0.0)


def test_max_demand_frozen():
    p = _params()
    assert p.max_demand() == pytest.approx(SIGMA_D_MAX, rel=REL)
    assert math.degrees(p.max_demand()) == pytest.approx(SIGMA_D_MAX_DEG, rel=REL)
    assert p.max_demand() < p.sigma_max


def test_sgmf_values():
    assert sgmf(0.0, 300.0) == 0.0
    assert sgmf(300.0, 300.0) == 1.0
    assert sgmf(-300.0, 300.0) == -1.0
    assert sgmf(150.0, 300.0) == pytest.approx(SGMF_150, rel=REL)
    assert sgmf(-150.0, 300.0) == pytest.approx(-SGMF_150, rel=REL)
    # Saturates at +-1 outside the blend layer.
    assert sgmf(301.0, 300.0) == 1.0
    assert sgmf(1.0e9, 300.0) == 1.0
    assert sgmf(-5000.0, 300.0) == -1.0


def test_sgmf_is_odd_monotone_and_slope_bounded():
    rng = random.Random(21)
    xs = sorted(rng.uniform(-400.0, 400.0) for _ in range(400))
    slope_cap = 3.0 / (2.0 * 300.0)
    prev_x = xs[0]
    prev_y = sgmf(prev_x, 300.0)
    for x in xs[1:]:
        y = sgmf(x, 300.0)
        assert y >= prev_y  # nondecreasing
        assert abs(y - prev_y) <= slope_cap * (x - prev_x) * (1.0 + 1e-12) + 1e-15
        prev_x, prev_y = x, y
    for _ in range(100):
        x = rng.uniform(-400.0, 400.0)
        assert sgmf(-x, 300.0) == pytest.approx(-sgmf(x, 300.0), rel=1e-9, abs=1e-15)


def test_sgmf_derivatives_frozen():
    d1, d2 = sgmf_derivatives(0.0, 300.0)
    assert d1 == pytest.approx(SGMF_D1_0, rel=REL)
    assert d2 == 0.0
    d1, d2 = sgmf_derivatives(150.0, 300.0)
    assert d1 == pytest.approx(SGMF_D1_150, rel=REL)
    assert d2 == pytest.approx(SGMF_D2_150, rel=REL)
    # The slope closes to zero exactly at the layer edge; the curvature jumps.
    d1, d2 = sgmf_derivatives(300.0, 300.0)
    assert d1 == pytest.approx(0.0, abs=1e-18)
    assert d2 == pytest.approx(SGMF_D2_PHI, rel=REL)
    # Outside the layer the blend is constant.
    assert sgmf_derivatives(300.0000001, 300.0) == (0.0, 0.0)
    assert sgmf_derivatives(-1.0e6, 300.0) == (0.0, 0.0)


def test_desired_lead():
    p = _params()
    sigma_d, feasible = desired_lead(0.0, p)
    assert sigma_d == 0.0 and feasible
    # Negative range-time error cannot be absorbed by slowing down along a
    # detour; the demand clamps to zero lead and reports infeasibility.
    sigma_d, feasible = desired_lead(-1.0, p)
    assert sigma_d == 0.0 and not feasible
    # Beyond the blend layer the demand parks at its maximum.
    sigma_d, feasible = desired_lead(2500.0, p)
    assert feasible
    assert sigma_d == pytest.approx(SIGMA_D_MAX, rel=REL)
    # Monotone nondecreasing in the range-time error, never above the cap.
    prev = 0.0
    for z1 in [0.0, 1.0, 10.0, 50.0, 120.0, 200.0, 280.0, 300.0, 500.0]:
        sigma_d, feasible = desired_lead(z1, p)
        assert feasible
        assert sigma_d >= prev
        assert sigma_d <= p.max_demand() + 1e-15
        prev = sigma_d


def test_desired_heading_identity():
    assert desired_heading(0.0) == 0.0
    assert desired_heading(SIGMA_D_MAX) == pytest.approx(HEADING_MAX, rel=REL)
    # Even split: cos(sigma_d) = cos(h)^2.
    rng = random.Random(33)
    for _ in range(100):
        sigma_d = rng.uniform(0.0, 1.5)
        h = desired_heading(sigma_d)
        assert math.cos(h) ** 2 == pytest.approx(math.cos(sigma_d), rel=0, abs=1e-12)
        assert 0.0 <= h <= sigma_d + 1e-15


def test_shaping_rates_worked_point():
    p = _params()
    sh = shaping_rates(150.0, -10.0, 0.0, p)
    assert sh.feasible
    assert sh.sigma_d == pytest.approx(EX_SIGMA_D, rel=REL)
    assert sh.sigma_d_dot == pytest.approx(EX_SIGMA_D_DOT, rel=REL)
    assert sh.sigma_d_ddot == pytest.approx(EX_SIGMA_D_DDOT, rel=REL)
    assert sh.heading_d == pytest.approx(EX_HEADING, rel=REL)
    assert sh.heading_d_dot == pytest.approx(EX_HEADING_DOT, rel=REL)
    assert sh.heading_d_ddot == pytest.approx(EX_HEADING_DDOT, rel=REL)


def test_shaping_rates_flat_outside_layer():
    p = _params()
    # Above the layer: demand parked at max, all rates exactly zero.
    sh = shaping_rates(301.0, -37.0, 4.0, p)
    assert sh.sigma_d == pytest.approx(SIGMA_D_MAX, rel=REL)
    assert sh.sigma_d_dot == 0.0
    assert sh.sigma_d_ddot == 0.0
    assert sh.heading_d_dot == 0.0
    assert sh.heading_d_ddot == 0.0
    # Infeasible: demand and rates all zero.
    sh = shaping_rates(-5.0, -10.0, 0.0, p)
    assert not sh.feasible
    assert sh.sigma_d == 0.0
    assert sh.heading_d == 0.0
    assert sh.sigma_d_dot == 0.0
    assert sh.sigma_d_ddot == 0.0
    assert sh.heading_d_dot == 0.0
    assert sh.heading_d_ddot == 0.0


def test_shaping_rates_small_demand_floor_keeps_rates_finite():
    """Near zero demand the chain divides by sin(sigma_d); the floor keeps
    the result finite and bounded by the floored slope."""
    p = _params()
    sh = shaping_rates(1.0e-8, -10.0, 3.0, p)
    assert math.isfinite(sh.sigma_d_dot)
    assert math.isfinite(sh.sigma_d_ddot)
    assert math.isfinite(sh.heading_d_dot)
    assert math.isfinite(sh.heading_d_ddot)
    # |sigma_d_dot| <= k1 * s'(z1) * |z1_dot| / eps_sin
    cap = p.k1 * SGMF_D1_0 * 10.0 / p.eps_sin
    assert abs(sh.sigma_d_dot) <= cap * (1.0 + 1e-12)


# --- clamps: conditional expressions with the builtin min/max results ---------

CLAMP_GAINS = (0.49, 0.0, 2.0, 2.5, -0.5, math.inf, -math.inf, math.nan)
CLAMP_ERRORS = (0.0, 5e-324, 150.0, 300.0, 1e9, math.inf, math.nan)


def _old_desired_lead(z1, params):
    if z1 < 0.0:
        return 0.0, False
    c = 1.0 - params.k1 * sgmf(z1, params.phi)
    return math.acos(max(-1.0, min(1.0, c))), True


def _old_desired_heading(sigma_d):
    c = 2.0 * math.cos(sigma_d) - 1.0
    return 0.5 * math.acos(max(-1.0, min(1.0, c)))


def test_desired_lead_clamp_matches_builtin_min_max():
    """Unvalidated gains drive the cosine argument onto the +-1 edges, past
    them, to +-inf and to NaN; every case gives the builtin-clamp bits."""
    for k1 in CLAMP_GAINS:
        p = ShapingParams(k1=k1)
        for z1 in CLAMP_ERRORS:
            assert repr(desired_lead(z1, p)) == repr(_old_desired_lead(z1, p)), (k1, z1)
    # k1 = 2 parks the argument on -1 exactly: the demand is pi.
    assert desired_lead(math.inf, ShapingParams(k1=2.0)) == (math.pi, True)
    # A NaN argument clamps to 1 as min(1.0, nan) does: zero demand.
    assert desired_lead(math.nan, _params()) == (0.0, True)


def test_desired_heading_clamp_matches_builtin_min_max():
    for sigma_d in (0.0, -0.0, 1.0, math.pi / 2, math.pi, -math.pi, 4.0, math.nan):
        assert repr(desired_heading(sigma_d)) == repr(_old_desired_heading(sigma_d)), sigma_d
    assert desired_heading(math.nan) == 0.0
    for sigma_d in (math.inf, -math.inf):  # cos() rejects both forms alike
        with pytest.raises(ValueError):
            _old_desired_heading(sigma_d)
        with pytest.raises(ValueError):
            desired_heading(sigma_d)
