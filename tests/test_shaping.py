"""Lead-demand shaping: the cubic blend and the demanded lead/heading chain.

Frozen reference values come from an independent exact-arithmetic evaluation
of the closed forms (30-digit precision, cast to float) and are pinned at
1e-12 relative tolerance.
"""

from __future__ import annotations

import math
import random
from types import SimpleNamespace

import pytest

from itcsim.errors import ConfigError
from itcsim.shaping import (
    EPS_SIN,
    ShapingParams,
    ShapingRates,
    desired_heading,
    desired_lead,
    sgmf,
    shaping_rates,
)

REL = 1e-12

# Frozen oracle values for k1=0.49, phi=300.
SGMF_150 = 0.6875
SGMF_D1_0 = 0.005                          # sgmf's slope at zero
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


def test_params_validation():
    with pytest.raises(ConfigError, match="k1"):
        ShapingParams(k1=0.0)
    # k1 must leave the demanded lead strictly inside the field of view:
    # for a 60 deg cone that means k1 < 1 - cos(60 deg) = 0.5.
    with pytest.raises(ConfigError, match="0.500000"):
        ShapingParams(k1=0.5)
    with pytest.raises(ConfigError, match="phi"):
        ShapingParams(phi=0.0)
    with pytest.raises(ConfigError, match="sigma_max"):
        ShapingParams(sigma_max=math.radians(90.0))
    with pytest.raises(ConfigError, match="sigma_max"):
        ShapingParams(sigma_max=0.0)
    # True is the number 1 to a comparison; each field refuses it by name,
    # sigma_max also where k1 = 0.3 is within a 1 rad field of view's limit.
    for kw in ({"phi": True}, {"sigma_max": True}, {"sigma_max": True, "k1": 0.3}):
        with pytest.raises(ConfigError) as err:
            ShapingParams(**kw)
        assert err.value.field == next(iter(kw)), kw


def test_max_demand_frozen():
    p = ShapingParams()
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


def test_desired_lead():
    p = ShapingParams()
    assert desired_lead(0.0, p) == 0.0
    # Negative range-time error cannot be absorbed by slowing down along a
    # detour; the demand clamps to zero lead.
    assert desired_lead(-1.0, p) == 0.0
    # Beyond the blend layer the demand parks at its maximum.
    assert desired_lead(2500.0, p) == pytest.approx(SIGMA_D_MAX, rel=REL)
    # Monotone nondecreasing in the range-time error, never above the cap.
    prev = 0.0
    for z1 in [0.0, 1.0, 10.0, 50.0, 120.0, 200.0, 280.0, 300.0, 500.0]:
        sigma_d = desired_lead(z1, p)
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
    p = ShapingParams()
    sh = shaping_rates(150.0, -10.0, 0.0, p)
    assert sh.sigma_d == pytest.approx(EX_SIGMA_D, rel=REL)
    assert sh.sigma_d_dot == pytest.approx(EX_SIGMA_D_DOT, rel=REL)
    assert sh.sigma_d_ddot == pytest.approx(EX_SIGMA_D_DDOT, rel=REL)
    assert sh.heading_d == pytest.approx(EX_HEADING, rel=REL)
    assert sh.heading_d_dot == pytest.approx(EX_HEADING_DOT, rel=REL)
    assert sh.heading_d_ddot == pytest.approx(EX_HEADING_DDOT, rel=REL)


def test_shaping_rates_flat_outside_layer():
    p = ShapingParams()
    # Above the layer: demand parked at max, all rates exactly zero.
    sh = shaping_rates(301.0, -37.0, 4.0, p)
    assert sh.sigma_d == pytest.approx(SIGMA_D_MAX, rel=REL)
    assert sh.sigma_d_dot == 0.0
    assert sh.sigma_d_ddot == 0.0
    assert sh.heading_d_dot == 0.0
    assert sh.heading_d_ddot == 0.0
    # Clamped (z1 < 0): demand and rates all zero.
    sh = shaping_rates(-5.0, -10.0, 0.0, p)
    assert sh.sigma_d == 0.0
    assert sh.heading_d == 0.0
    assert sh.sigma_d_dot == 0.0
    assert sh.sigma_d_ddot == 0.0
    assert sh.heading_d_dot == 0.0
    assert sh.heading_d_ddot == 0.0


def test_shaping_rates_small_demand_floor_keeps_rates_finite():
    """Near zero demand the chain divides by sin(sigma_d); the floor keeps
    the result finite and bounded by the floored slope."""
    p = ShapingParams()
    sh = shaping_rates(1.0e-8, -10.0, 3.0, p)
    assert math.isfinite(sh.sigma_d_dot)
    assert math.isfinite(sh.sigma_d_ddot)
    assert math.isfinite(sh.heading_d_dot)
    assert math.isfinite(sh.heading_d_ddot)
    # |sigma_d_dot| <= k1 * s'(z1) * |z1_dot| / EPS_SIN
    cap = p.k1 * SGMF_D1_0 * 10.0 / EPS_SIN
    assert abs(sh.sigma_d_dot) <= cap * (1.0 + 1e-12)


# --- clamps: conditional expressions with the builtin min/max results ---------

CLAMP_GAINS = (0.49, 0.0, 2.0, 2.5, -0.5, math.inf, -math.inf, math.nan)
CLAMP_ERRORS = (0.0, 5e-324, 150.0, 300.0, 1e9, math.inf, math.nan)


def _old_desired_lead(z1, params):
    if z1 < 0.0:
        return 0.0
    c = 1.0 - params.k1 * sgmf(z1, params.phi)
    return math.acos(max(-1.0, min(1.0, c)))


def _old_desired_heading(sigma_d):
    c = 2.0 * math.cos(sigma_d) - 1.0
    return 0.5 * math.acos(max(-1.0, min(1.0, c)))


def test_desired_lead_clamp_matches_builtin_min_max():
    """Gains that ``ShapingParams`` refuses, on a stand-in with the two fields
    ``desired_lead`` reads, drive the cosine argument onto the +-1 edges, past
    them, to +-inf and to NaN; every case gives the builtin-clamp bits."""
    for k1 in CLAMP_GAINS:
        p = SimpleNamespace(k1=k1, phi=300.0)
        for z1 in CLAMP_ERRORS:
            assert repr(desired_lead(z1, p)) == repr(_old_desired_lead(z1, p)), (k1, z1)
    # k1 = 2 parks the argument on -1 exactly: the demand is pi.
    assert desired_lead(math.inf, SimpleNamespace(k1=2.0, phi=300.0)) == math.pi
    # A NaN argument clamps to 1 as min(1.0, nan) does: zero demand.
    assert desired_lead(math.nan, ShapingParams()) == 0.0


def test_desired_heading_clamp_matches_builtin_min_max():
    for sigma_d in (0.0, -0.0, 1.0, math.pi / 2, math.pi, -math.pi, 4.0, math.nan):
        assert repr(desired_heading(sigma_d)) == repr(_old_desired_heading(sigma_d)), sigma_d
    assert desired_heading(math.nan) == 0.0
    for sigma_d in (math.inf, -math.inf):  # cos() rejects both forms alike
        with pytest.raises(ValueError):
            _old_desired_heading(sigma_d)
        with pytest.raises(ValueError):
            desired_heading(sigma_d)


# --- the one-pass blend layer against the reference forms ---------------------


def _composed_rates(z1, z1_dot, z1_ddot, params):
    """The in-layer demand composed from ``desired_lead``, ``desired_heading``
    and sgmf's two derivatives, with the rates as ``shaping_rates`` wrote them
    before the composition became one pass."""
    k1 = params.k1
    phi = params.phi
    sigma_d = desired_lead(z1, params)
    heading_d = desired_heading(sigma_d)
    s1 = -3.0 * z1**2 / (2.0 * phi**3) + 3.0 / (2.0 * phi)
    s2 = -3.0 * z1 / phi**3
    sin_sd = math.sin(sigma_d)
    sin_sd = EPS_SIN if EPS_SIN > sin_sd else sin_sd
    cos_sd = math.cos(sigma_d)
    sigma_d_dot = k1 * s1 * z1_dot / sin_sd
    sigma_d_ddot = (
        k1 * s2 * z1_dot**2 + k1 * s1 * z1_ddot - sigma_d_dot**2 * cos_sd
    ) / sin_sd
    sin_2h = math.sin(2.0 * heading_d)
    sin_2h = EPS_SIN if EPS_SIN > sin_2h else sin_2h
    cos_2h = math.cos(2.0 * heading_d)
    heading_d_dot = sigma_d_dot * sin_sd / sin_2h
    heading_d_ddot = (
        sigma_d_ddot * sin_sd + sigma_d_dot**2 * cos_sd - 2.0 * heading_d_dot**2 * cos_2h
    ) / sin_2h
    return ShapingRates(
        sigma_d, sigma_d_dot, sigma_d_ddot, heading_d, heading_d_dot, heading_d_ddot
    )


def _outcome(fn, *args):
    """repr of the result and its type, or of the exception raised."""
    try:
        out = fn(*args)
    except ArithmeticError as exc:
        return type(exc), str(exc)
    return type(out), repr(tuple(out))


LAYER_PARAMS = {
    "default": ShapingParams(),
    "phi-1e-3": ShapingParams(phi=1e-3),
    "phi-1e30": ShapingParams(phi=1e30),
    "k1-at-limit": ShapingParams(k1=math.nextafter(1.0 - math.cos(math.radians(60.0)), 0.0)),
}
LAYER_RATES = (0.0, 1e6, -1e6, math.nan)


@pytest.mark.parametrize("name", list(LAYER_PARAMS))
def test_one_pass_layer_matches_the_reference_forms(name):
    """Every field bit for bit, and the record type, on the layer edges, the
    smallest subnormal, NaN and a seeded grid of points inside the layer."""
    p = LAYER_PARAMS[name]
    phi = p.phi
    rng = random.Random(20250619)
    errors = [0.0, -0.0, 5e-324, phi / 2, phi, math.nextafter(phi, 0.0), math.nan]
    errors += [rng.uniform(0.0, phi) for _ in range(24)]
    for z1 in errors:
        for z1_dot in LAYER_RATES:
            for z1_ddot in LAYER_RATES:
                got = _outcome(shaping_rates, z1, z1_dot, z1_ddot, p)
                want = _outcome(_composed_rates, z1, z1_dot, z1_ddot, p)
                assert got == want, (name, z1, z1_dot, z1_ddot)
                assert got[0] is ShapingRates
