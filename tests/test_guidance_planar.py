"""Closed-loop planar guidance evaluation against frozen reference values.

One generic mid-engagement state pins every intermediate of the shaped law
at 1e-12 relative tolerance (independent exact-arithmetic evaluation); the
ideal-actuator baseline law is checked for its clip behaviour and for
sharing the same lead demand as the shaped law.
"""

from __future__ import annotations

import math
import pytest

from itcsim.errors import GuardTrip
from itcsim.guidance_planar import BaselinePlanar, GuidancePlanar
from itcsim.saturation import SaturationParams
from itcsim.shaping import ShapingParams

REL = 1e-12

# Generic reference: t=10, y=(9900, 0.3, 0.25, -5), v=250, t_final=50,
# k1=0.49, phi=300, k2=1, ky=7, rho=0.1, n=2, constant bound 98.1.
T_REF = 10.0
Y_REF = (9900.0, 0.3, 0.25, -5.0)

FROZEN = {
    "z1": 100.0,
    "sigma_d": 0.7011914769117952,
    "z2": -0.4511914769117952,
    "r_dot": -242.2281054276612,
    "theta_dot": -0.006247574728649569,
    "sigma_dot": -0.01375242527135043,
    "alpha_y": 104.67702693117894,
    "alpha_y_dot": -2.6883317738621018,
    "zy": -109.67702693117894,
    "b_y": 766.5439723915359,
    "a_my_dot": 765.0526615102982,
}


def _shaping() -> ShapingParams:
    p = ShapingParams()
    p.validate()
    return p


def _law(**kw) -> GuidancePlanar:
    sat = SaturationParams()
    sat.validate()
    args = dict(speed=250.0, t_final=50.0, shaping=_shaping(), sat=sat)
    args.update(kw)
    return GuidancePlanar(**args)


def test_reference_state_full_chain():
    ev = _law().evaluate(T_REF, Y_REF)
    f = FROZEN
    assert ev.z1 == pytest.approx(f["z1"], rel=REL)
    assert ev.sigma_d == pytest.approx(f["sigma_d"], rel=REL)
    assert ev.z2 == pytest.approx(f["z2"], rel=REL)

    r_dot, theta_dot, sigma_dot, a_my_dot = ev.derivs
    assert r_dot == pytest.approx(f["r_dot"], rel=REL)
    assert theta_dot == pytest.approx(f["theta_dot"], rel=REL)
    assert sigma_dot == pytest.approx(f["sigma_dot"], rel=REL)
    assert a_my_dot == pytest.approx(f["a_my_dot"], rel=REL)

    assert ev.alpha_y == pytest.approx(f["alpha_y"], rel=REL)
    assert ev.alpha_y_dot == pytest.approx(f["alpha_y_dot"], rel=REL)
    assert ev.zy == pytest.approx(f["zy"], rel=REL)
    assert ev.b_y == pytest.approx(f["b_y"], rel=REL)
    assert ev.lyapunov_y == pytest.approx(
        0.5 * (f["z2"] ** 2 + f["zy"] ** 2), rel=1e-9
    )
    assert ev.feasible
    assert not ev.capped
    assert ev.a_y_max == 98.1


def test_collision_course_is_an_equilibrium():
    law = _law()
    ev = law.evaluate(0.0, (12500.0, 0.1, 0.0, 0.0))
    assert ev.derivs == (-250.0, 0.0, 0.0, 0.0)
    assert ev.z1 == 0.0
    assert ev.sigma_d == 0.0
    assert ev.alpha_y == 0.0
    assert ev.b_y == 0.0


def test_guard_trips():
    law = _law()
    with pytest.raises(GuardTrip) as exc:
        law.evaluate(49.9, (1.0e-7, 0.0, 0.0, 0.0))
    assert exc.value.guard == "range-floor"
    with pytest.raises(GuardTrip) as exc:
        law.evaluate(10.0, (9900.0, 0.0, 0.0, 98.1 * (1.0 - 1.0e-8)))
    assert exc.value.guard == "denominator-singular"


def test_command_cap_engages():
    law = _law()
    ev = law.evaluate(10.0, (9900.0, 0.3, -0.9, 95.0))
    assert ev.capped
    assert abs(ev.b_y) == 5000.0


def test_baseline_shares_the_lead_demand():
    """Shaped and baseline laws see the same (t, r): identical sigma_d."""
    shaped = _law()
    baseline = BaselinePlanar(speed=250.0, t_final=50.0, shaping=_shaping())
    ev_s = shaped.evaluate(T_REF, Y_REF)
    ev_b = baseline.evaluate(T_REF, Y_REF[:3])
    assert ev_b.sigma_d == ev_s.sigma_d
    assert ev_b.z1 == ev_s.z1
    assert ev_b.z2 == ev_s.z2


def test_baseline_ideal_actuator():
    """Unclipped baseline applies its stabilizing acceleration directly."""
    baseline = BaselinePlanar(speed=250.0, t_final=50.0, shaping=_shaping())
    ev = baseline.evaluate(T_REF, Y_REF[:3])
    assert len(ev.derivs) == 3
    assert ev.zy == 0.0
    assert not ev.capped
    assert ev.lyapunov_y == pytest.approx(0.5 * ev.z2**2, rel=REL)
    # The lead rate uses the applied acceleration.
    r, _theta, sigma = Y_REF[:3]
    theta_dot = ev.derivs[1]
    assert ev.derivs[2] == pytest.approx(ev.alpha_y / 250.0 - theta_dot, rel=1e-9)


def test_baseline_clip():
    """A hard clip keeps the applied acceleration at the limit and flags it."""
    clipped = BaselinePlanar(speed=250.0, t_final=50.0, shaping=_shaping(), a_clip=98.1)
    # A state with a large lead error demands far more than 10 g.
    y = (9900.0, 0.3, -1.0)
    ev = clipped.evaluate(T_REF, y)
    assert abs(ev.alpha_y) > 98.1
    assert ev.capped
    row = clipped.log_row(T_REF, y, ev)
    assert abs(row.a_my) == 98.1
    # The same state through the unclipped law is not capped.
    free = BaselinePlanar(speed=250.0, t_final=50.0, shaping=_shaping())
    assert not free.evaluate(T_REF, y).capped


def test_baseline_clip_matches_builtin_min_max():
    """The clip in the chain and in ``log_row`` gives max(-a, min(a, x)) bits
    on the edges, at +-inf and for NaN, with and without a finite clip."""
    y = Y_REF[:3]
    values = (0.0, -0.0, 1.0, -1.0, 98.1, -98.1, 1e308, math.inf, -math.inf, math.nan)
    for a_clip in (math.inf, 98.1):
        law = BaselinePlanar(speed=250.0, t_final=50.0, shaping=_shaping(), a_clip=a_clip)
        ev = law.evaluate(T_REF, y)
        for a in values:
            row = law.log_row(T_REF, y, ev._replace(alpha_y=a))
            assert repr(row.a_my) == repr(max(-a_clip, min(a_clip, a))), (a_clip, a)


def test_log_row_mapping():
    law = _law(target=(0.0, 0.0, 0.0))
    ev = law.evaluate(T_REF, Y_REF)
    row = law.log_row(T_REF, Y_REF, ev)
    r, theta, sigma, a_my = Y_REF
    assert row.t == T_REF
    assert row.r == r
    assert row.theta == theta
    assert row.sigma == sigma
    assert row.a_my == a_my
    # 3D-only channels are zero in the planar mapping.
    assert row.theta_m == 0.0
    assert row.a_mz == 0.0
    assert row.z3 == 0.0
    assert row.z4 == 0.0
    assert row.zz == 0.0
    assert row.z2 == ev.z2
    assert row.zy == ev.zy
    assert row.b_y == ev.b_y
    # Planar engagement lives in the x-y plane.
    assert row.x == pytest.approx(-r * math.cos(theta), rel=REL)
    assert row.y == pytest.approx(-r * math.sin(theta), rel=REL)
    assert row.z == 0.0


# --- rates(): the integrator's hot path agrees with evaluate() ----------------


def _both_laws():
    return _law(), BaselinePlanar(speed=250.0, t_final=50.0, shaping=_shaping(), a_clip=98.1)


def test_rates_match_evaluate_bit_for_bit():
    shaped, baseline = _both_laws()
    states = [
        (T_REF, Y_REF),  # in the blend layer
        (0.0, Y_REF),  # z1 = 2600 m, above the layer
        (49.0, Y_REF),  # z1 < 0, clamped
        (10.0, (9900.0, 0.3, -0.9, 95.0)),  # command capped
        (T_REF, (9900.0, 0.3, -1.0, 0.0)),  # baseline acceleration clipped
    ]
    for t, y in states:
        # The shaped law's chain is the record's leading fields; the
        # baseline's shares the first six and ends in the raw acceleration.
        out = shaped.rates(t, y)
        assert out == shaped.evaluate(t, y)[: len(out)]
        out = baseline.rates(t, y[:3])
        ev = baseline.evaluate(t, y[:3])
        assert out[:6] == ev[:6] and out[6] == ev.alpha_y
    assert shaped.evaluate(10.0, states[3][1]).capped
    assert baseline.evaluate(T_REF, states[4][1][:3]).capped


@pytest.mark.parametrize(
    "which, t, y",
    [
        ("shaped", 49.9, (1.0e-7, 0.0, 0.0, 0.0)),
        ("shaped", 10.0, (9900.0, 0.0, 0.0, 98.1 * (1.0 - 1.0e-8))),
        ("baseline", 49.9, (1.0e-7, 0.0, 0.0)),
    ],
)
def test_rates_trip_the_same_guards_as_evaluate(which, t, y):
    law = dict(zip(("shaped", "baseline"), _both_laws()))[which]
    with pytest.raises(GuardTrip) as ev_trip:
        law.evaluate(t, y)
    with pytest.raises(GuardTrip) as rates_trip:
        law.rates(t, y)
    assert rates_trip.value.guard == ev_trip.value.guard
    assert str(rates_trip.value) == str(ev_trip.value)
