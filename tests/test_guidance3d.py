"""Closed-loop 3D guidance evaluation against frozen reference values.

The reference state is a generic mid-engagement point (nonzero LOS angles,
lead components and achieved accelerations) evaluated independently with
exact-arithmetic symbolic forms at 30-digit precision; every intermediate of
the control chain is pinned at 1e-12 relative tolerance.  The last section
checks, for all three laws, that ``evaluate`` is the ``rates`` tuple named,
and that the comparison law bounds its acceleration demand.
"""

from __future__ import annotations

import math

import pytest

from itcsim import guidance_planar
from itcsim.errors import GuardTrip
from itcsim.guidance3d import Eval3D, Guidance3D
from itcsim.guidance_planar import BaselinePlanar, EvalPlanar, GuidancePlanar
from itcsim.kinematics import effective_lead, inertial_position
from itcsim.logio import ERROR_MAX
from itcsim.saturation import BoundMode, SaturationParams
from itcsim.shaping import ShapingParams, desired_heading

REL = 1e-12

# Generic reference state: t=10, y=(9900, 0.05, -0.08, -0.12, 0.2, -20, 15),
# law: v=250, t_final=50, k1=0.49, phi=300, k3=k4=1, ky=kz=7, rho=0.1, n=2,
# constant bound 98.1.
T_REF = 10.0
Y_REF = (9900.0, 0.05, -0.08, -0.12, 0.2, -20.0, 15.0)

FROZEN = {
    "sigma": 0.23282461831472864,
    "z1": 100.0,
    "sigma_d": 0.7011914769117952,
    "heading_d": 0.5071890342727342,
    "z3": -0.6271890342727342,
    "z4": -0.30718903427273414,
    "r_dot": -243.25464054813253,
    "theta_dot": 0.003023035537598974,
    "psi_dot": -0.004987056443481403,
    "theta_m_dot": 0.05708674202571679,
    "psi_m_dot": -0.07549677917379596,
    "alpha_y": 70.68967633366957,
    "alpha_z": 153.2007025747478,
    "alpha_y_dot": 18.65245799786886,
    "alpha_z_dot": -15.615132654955717,
    "theta_ddot": -0.0013569378985768179,
    "psi_ddot": 0.0016997452753089116,
    "zy": -90.68967633366957,
    "zz": -138.2007025747478,
    "b_y": 679.7342043372752,
    "b_z": 976.1138354138187,
    "a_my_dot": 653.481429990132,
    "a_mz_dot": 951.792294124416,
}


def _law(**kw) -> Guidance3D:
    args = dict(speed=250.0, t_final=50.0, shaping=ShapingParams(), sat=SaturationParams())
    args.update(kw)
    return Guidance3D(**args)


def test_reference_state_full_chain():
    law = _law()
    ev = law.evaluate(T_REF, Y_REF)
    row = law.log_row(T_REF, Y_REF, ev)
    f = FROZEN
    assert row.sigma == pytest.approx(f["sigma"], rel=REL)
    assert ev.z1 == pytest.approx(f["z1"], rel=REL)
    assert ev.sigma_d == pytest.approx(f["sigma_d"], rel=REL)
    assert desired_heading(ev.sigma_d) == pytest.approx(f["heading_d"], rel=REL)
    assert ev.z3 == pytest.approx(f["z3"], rel=REL)
    assert ev.z4 == pytest.approx(f["z4"], rel=REL)

    r_dot, theta_dot, psi_dot, theta_m_dot, psi_m_dot, a_my_dot, a_mz_dot = ev.derivs
    assert r_dot == pytest.approx(f["r_dot"], rel=REL)
    assert theta_dot == pytest.approx(f["theta_dot"], rel=REL)
    assert psi_dot == pytest.approx(f["psi_dot"], rel=REL)
    assert theta_m_dot == pytest.approx(f["theta_m_dot"], rel=REL)
    assert psi_m_dot == pytest.approx(f["psi_m_dot"], rel=REL)
    assert a_my_dot == pytest.approx(f["a_my_dot"], rel=REL)
    assert a_mz_dot == pytest.approx(f["a_mz_dot"], rel=REL)

    assert ev.alpha_y == pytest.approx(f["alpha_y"], rel=REL)
    assert ev.alpha_z == pytest.approx(f["alpha_z"], rel=REL)
    assert ev.alpha_y_dot == pytest.approx(f["alpha_y_dot"], rel=REL)
    assert ev.alpha_z_dot == pytest.approx(f["alpha_z_dot"], rel=REL)
    assert ev.theta_ddot == pytest.approx(f["theta_ddot"], rel=REL)
    assert ev.psi_ddot == pytest.approx(f["psi_ddot"], rel=REL)
    assert ev.zy == pytest.approx(f["zy"], rel=REL)
    assert ev.zz == pytest.approx(f["zz"], rel=REL)
    assert ev.b_y == pytest.approx(f["b_y"], rel=REL)
    assert ev.b_z == pytest.approx(f["b_z"], rel=REL)

    assert not ev.capped
    assert ev.a_y_max == ev.a_z_max == 98.1
    assert row.lyapunov_z == pytest.approx(0.5 * (f["z3"] ** 2 + f["zz"] ** 2), rel=1e-9)
    assert row.lyapunov_y == pytest.approx(0.5 * (f["z4"] ** 2 + f["zy"] ** 2), rel=1e-9)


def test_collision_course_is_an_equilibrium():
    """Head-on, on time, no lead, no acceleration: nothing should move but
    the range."""
    law = _law()
    # r = v * t_final puts the range-time error at exactly zero.
    y = (12500.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    ev = law.evaluate(0.0, y)
    assert ev.derivs == (-250.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert law.log_row(0.0, y, ev).sigma == 0.0
    assert ev.z1 == 0.0
    assert ev.sigma_d == 0.0
    assert ev.alpha_y == 0.0
    assert ev.alpha_z == 0.0
    assert ev.b_y == 0.0
    assert ev.b_z == 0.0


def test_initial_state_of_nominal_engagement():
    """10 km head-on at 50 s commanded impact: the range-time error starts
    at 2500 m and the lead matches the launch heading offset."""
    law = _law()
    theta_m0 = math.radians(-10.0)
    psi_m0 = math.radians(10.0)
    y = (10000.0, 0.0, 0.0, theta_m0, psi_m0, 0.0, 0.0)
    ev = law.evaluate(0.0, y)
    assert ev.z1 == pytest.approx(2500.0, rel=REL)
    assert law.log_row(0.0, y, ev).sigma == pytest.approx(0.24619691677893205, rel=REL)
    # Outside the blend layer the demand is parked at its maximum.
    assert ev.sigma_d == pytest.approx(1.0356115365192968, rel=REL)


def test_guard_trips():
    law = _law()
    with pytest.raises(GuardTrip) as exc:
        law.evaluate(49.9, (1.0e-7, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    assert exc.value.guard == "range-floor"

    with pytest.raises(GuardTrip) as exc:
        law.evaluate(10.0, (5000.0, math.pi / 2.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    assert exc.value.guard == "polar-singularity"

    # Acceleration essentially on its bound: the input-effectiveness bracket
    # collapses and commanding through it would divide by ~0.
    a_edge = 98.1 * (1.0 - 1.0e-8)
    with pytest.raises(GuardTrip) as exc:
        law.evaluate(10.0, (9900.0, 0.0, 0.0, 0.0, 0.0, a_edge, 0.0))
    assert exc.value.guard == "denominator-singular"
    with pytest.raises(GuardTrip) as exc:
        law.evaluate(10.0, (9900.0, 0.0, 0.0, 0.0, 0.0, 0.0, -a_edge))
    assert exc.value.guard == "denominator-singular"


def test_command_cap_engages():
    """A state with a huge actuator error demands more input than the cap."""
    law = _law()
    y = (9900.0, 0.05, -0.08, -0.12, 0.2, 90.0, -90.0)
    ev = law.evaluate(10.0, y)
    assert ev.capped
    assert abs(ev.b_y) == 5000.0 or abs(ev.b_z) == 5000.0
    assert abs(ev.b_y) <= 5000.0 and abs(ev.b_z) <= 5000.0


def test_log_row_mapping():
    law = _law()
    ev = law.evaluate(T_REF, Y_REF)
    row = law.log_row(T_REF, Y_REF, ev)
    assert row.t == T_REF
    assert row.r == Y_REF[0]
    assert row.theta == Y_REF[1]
    assert row.psi == Y_REF[2]
    assert row.theta_m == Y_REF[3]
    assert row.psi_m == Y_REF[4]
    assert row.a_my == Y_REF[5]
    assert row.a_mz == Y_REF[6]
    assert row.sigma == effective_lead(Y_REF[3], Y_REF[4])
    assert row.z1 == ev.z1
    assert row.z2 == 0.0  # planar-only column
    assert row.z3 == ev.z3
    assert row.zy == ev.zy
    assert row.b_y == ev.b_y
    assert row.a_y_max == ev.a_y_max
    assert row.lyapunov_z == 0.5 * (ev.z3 * ev.z3 + ev.zz * ev.zz)
    assert row.lyapunov_y == 0.5 * (ev.z4 * ev.z4 + ev.zy * ev.zy)
    assert (row.x, row.y, row.z) == inertial_position(Y_REF[0], Y_REF[1], Y_REF[2])


# --- evaluate() is rates() named, for all three laws ---------------------------

# A state whose command hits the 5000 cap under each bound schedule; the
# constant-bound one lies outside the shared-schedule bounds, where it trips.
_CAPPED = {
    BoundMode.CONSTANT: (9900.0, 0.05, -0.08, -0.12, 0.2, 90.0, -90.0),
    BoundMode.ROLL_COUPLED: (9900.0, 0.05, -0.08, -0.12, 0.2, 90.0, -5.0),
    BoundMode.WING_TAIL: (9900.0, 0.05, -0.08, -0.12, 0.2, 90.0, -5.0),
}

# Planar states, in the blend layer (z1 = 100 m), above it (2600 m) and
# infeasible (z1 < 0), with leads whose demand stays inside the 98.1 clip.
_PLANAR = {
    "in-layer": (10.0, (9900.0, 0.3, 0.5, -5.0)),
    "out-of-layer": (0.0, (9900.0, 0.3, 0.8, -5.0)),
    "infeasible": (49.0, (9900.0, 0.3, 0.25, -5.0)),
}


def _planar_law(name: str):
    shaping = ShapingParams()
    if name == "planar":
        return GuidancePlanar(speed=250.0, t_final=50.0, shaping=shaping, sat=SaturationParams())
    a_clip = 98.1 if name == "baseline-clipped" else math.inf
    return BaselinePlanar(speed=250.0, t_final=50.0, shaping=shaping, a_clip=a_clip)


def _record_cases(name: str):
    """A law, its record type and its named states: in the blend layer, above
    it, infeasible (z1 < 0) and, for a law that can cap, capped."""
    if name in ("planar", "baseline", "baseline-clipped"):
        law = _planar_law(name)
        cases = {case: (t, y[: law.state_size]) for case, (t, y) in _PLANAR.items()}
        if name == "planar":
            cases["capped"] = (10.0, (9900.0, 0.3, -0.9, 95.0))
        elif name == "baseline-clipped":
            cases["capped"] = (10.0, (9900.0, 0.3, -1.0))
        return law, EvalPlanar, cases
    mode = BoundMode(name)
    return _law(sat=SaturationParams(mode=mode)), Eval3D, {
        "in-layer": (T_REF, Y_REF),  # z1 = 100 m
        "out-of-layer": (0.0, Y_REF),  # z1 = 2600 m > phi
        "infeasible": (49.0, Y_REF),  # z1 < 0
        "capped": (10.0, _CAPPED[mode]),
    }


@pytest.mark.parametrize(
    "name", ["constant", "roll-coupled", "wing-tail", "planar", "baseline", "baseline-clipped"]
)
def test_rates_match_evaluate_bit_for_bit(name):
    law, record, cases = _record_cases(name)
    for case, (t, y) in cases.items():
        ev = law.evaluate(t, y)
        assert type(ev) is record, case
        assert len(ev) == len(record._fields), case  # 18 in 3D, 10 in the plane
        assert tuple(ev) == law.rates(t, y), case
        assert (ev.z1 < 0.0) is (case == "infeasible"), case
        assert ev.capped is (case == "capped"), case
        assert (ev.z1 > law.shaping.phi) is (case == "out-of-layer"), case


# 3D states (range floor, polar singularity, a bracket each way), then the
# planar law's range floor and bracket, then the comparison law's range floor.
@pytest.mark.parametrize(
    "t, y",
    [
        (49.9, (1.0e-7, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)),
        (10.0, (5000.0, math.pi / 2.0, 0.0, 0.0, 0.0, 0.0, 0.0)),
        (10.0, (9900.0, 0.0, 0.0, 0.0, 0.0, 98.1 * (1.0 - 1.0e-8), 0.0)),
        (10.0, (9900.0, 0.0, 0.0, 0.0, 0.0, 0.0, -98.1 * (1.0 - 1.0e-8))),
        (49.9, (1.0e-7, 0.0, 0.0, 0.0)),
        (10.0, (9900.0, 0.0, 0.0, 98.1 * (1.0 - 1.0e-8))),
        (49.9, (1.0e-7, 0.0, 0.0)),
    ],
)
def test_rates_trip_the_same_guards_as_evaluate(t, y):
    law = {7: _law(), 4: _planar_law("planar"), 3: _planar_law("baseline-clipped")}[len(y)]
    with pytest.raises(GuardTrip) as ev_trip:
        law.evaluate(t, y)
    with pytest.raises(GuardTrip) as rates_trip:
        law.rates(t, y)
    assert rates_trip.value.guard == ev_trip.value.guard
    assert str(rates_trip.value) == str(ev_trip.value)


def test_error_pair_whose_lyapunov_form_would_overflow_raises():
    """z3 and zz of 9.6e153 each square below float max, but the logged
    Vz = (z3^2 + zz^2)/2 would be inf; with k3 = 1/v, alpha_z ~ -z3, so
    zz ~ z3.  Both entry points raise OverflowError instead."""
    law = _law(k3=1.0 / 250.0)
    y = (9900.0, 0.1, 0.2, 9.6e153, 0.1, 0.0, 0.0)
    with pytest.raises(OverflowError, match="z3=9.600e"):
        law.rates(T_REF, y)
    with pytest.raises(OverflowError, match="zz=9.600e"):
        law.evaluate(T_REF, y)


def _demanding(monkeypatch, a: float) -> BaselinePlanar:
    """The comparison law with its shaping demand replaced by sigma_d = 0
    with rate ``a``: at v = 1 m/s and sigma = 0 its acceleration demand
    v * (sigma_d_dot - v * sin(sigma) / r - k2 * z2) is ``a`` exactly."""
    monkeypatch.setattr(
        guidance_planar, "shaping_rates", lambda *_: (0.0, a, 0.0, 0.0, 0.0, 0.0)
    )
    return BaselinePlanar(speed=1.0, t_final=50.0, shaping=ShapingParams())


def test_comparison_law_bounds_its_demand(monkeypatch):
    """The comparison law's acceleration demand, which it logs as ``by`` and
    flies clipped, is refused by ``rates`` and ``evaluate`` with
    OverflowError at ERROR_MAX or more in magnitude and as NaN, so no row
    holds an acceleration whose square overflows the effort fold; the
    largest float below ERROR_MAX is flown and logged as it is."""
    y = (9900.0, 0.3, 0.0)
    below = math.nextafter(ERROR_MAX, 0.0)
    for a in (below, -below):
        law = _demanding(monkeypatch, a)
        assert law.rates(T_REF, y)[8] == a
        ev = law.evaluate(T_REF, y)
        row = law.log_row(T_REF, y, ev)
        assert row.a_my == row.b_y == a
    for a in (ERROR_MAX, -ERROR_MAX, math.inf, -math.inf, math.nan):
        law = _demanding(monkeypatch, a)
        for entry in (law.rates, law.evaluate):
            with pytest.raises(OverflowError, match="^acceleration demand "):
                entry(T_REF, y)
