"""A symbolic model of the engagement, built from the geometry alone, as the
one oracle for the guidance laws' control chain.

The model knows none of the laws' formulas.  It writes the line-of-sight
(LOS) geometry as vectors and only differentiates and projects:

- e_r = (cos(theta) cos(psi), cos(theta) sin(psi), sin(theta)) points from
  the interceptor to the target; e_theta = de_r/dtheta and
  e_psi = (de_r/dpsi) / cos(theta) complete the LOS basis.
- The velocity direction in that basis is
  u = cos(theta_m) cos(psi_m) e_r + cos(theta_m) sin(psi_m) e_psi
  + sin(theta_m) e_theta, so theta_m and psi_m are the lead components.
- The range vector R = r e_r obeys R_dot = -v u; r_dot, r theta_dot and
  r cos(theta) psi_dot are its projections on e_r, e_theta and e_psi.
- The lateral accelerations turn the velocity,
  u_dot = (a_my e_y + a_mz e_z) / v with e_z = du/dtheta_m and
  e_y = (du/dpsi_m) / cos(theta_m).  By the chain rule u_dot is also
  du/dtheta theta_dot + du/dpsi psi_dot + e_z theta_m_dot
  + cos(theta_m) e_y psi_m_dot; projecting both on the orthonormal e_z and
  e_y gives theta_m_dot and psi_m_dot.  What the LOS rotation alone
  contributes is the coupling term of each.
- The shaped demand is sigma_d = acos(1 - k1 sgmf(z1)) with
  z1 = v (t_final - t) - r and sgmf's cubic branch, split evenly as
  heading_d = acos(2 cos(sigma_d) - 1) / 2.
- The stabilizing accelerations cancel the coupling terms:
  alpha_z = v (-coupling_z + heading_d_dot - k3 z3) and
  alpha_y = v cos(theta_m) (-coupling_y + heading_d_dot - k4 z4), with
  z3 = theta_m - heading_d and z4 = psi_m - heading_d.

Every rate of a rate is a total time derivative along the model's own
flow; no integrator or step size is involved.  The chain's expressions take
the kinematic rates, the LOS rates' rates and the demand's rates as symbols,
each evaluated from the model's own expressions, layer by layer.  The total
derivative of an expression is then its partial d/dt plus x_dot d/dx summed
over every symbol x it takes (``FLOW``): the chain rule, with expressions
small enough to differentiate in about a second.  No expression is solved
for or simplified (``trigsimp`` alone takes tens of seconds).  The
expressions are lambdified with ``modules="math"``, or with ``"mpmath"`` at
40 digits where the float model itself rounds too coarsely.

The checks, each printing its worst value:

(a) every law's state derivatives against the model's rates, the planar
    laws against the theta = theta_m = 0 section;
(b) the 3D chain's theta_ddot, psi_ddot, alpha_z, alpha_y and the two alpha
    rates, and the planar alpha_y and its rate, inside the blend layer and
    away from the ``EPS_SIN`` floors;
(c) ``sgmf`` and ``shaping_rates`` against the differentiated demand.
"""

from __future__ import annotations

import functools
import math
import random

import mpmath
import pytest
import sympy as sp

from itcsim.guidance3d import Guidance3D
from itcsim.guidance_planar import BaselinePlanar, GuidancePlanar
from itcsim.kinematics import EPS_COS, EPS_RANGE
from itcsim.saturation import SaturationParams
from itcsim.shaping import (
    EPS_SIN, ShapingParams, desired_heading, desired_lead, sgmf, shaping_rates,
)

T, R, THETA, PSI, THETA_M, PSI_M, A_MY, A_MZ, V = sp.symbols(
    "t r theta psi theta_m psi_m a_my a_mz v"
)
T_FINAL, K1, PHI, K2, K3, K4 = sp.symbols("t_final k1 phi k2 k3 k4")
KINEMATIC = (R, THETA, PSI, THETA_M, PSI_M)
ARGS_3D = (T, *KINEMATIC, A_MY, A_MZ, V)
# The theta = theta_m = 0 section with no vertical acceleration: there the
# planar state (r, LOS angle, sigma, a_my) is (r, psi, psi_m, a_my).
SECTION = {THETA: 0, THETA_M: 0, A_MZ: 0}
ARGS_PLANAR = (T, R, PSI, PSI_M, A_MY, V)
LAW_ARGS = (T_FINAL, K1, PHI, K2, K3, K4)

# The layers' symbols: the kinematic rates, the LOS rates' rates, and the
# tracked demand (heading_d in 3D, sigma_d on the section) with its rates.
RATES = sp.symbols("r_dot theta_dot psi_dot theta_m_dot psi_m_dot")
LOS_RATES = RATES[:3]
LOS_ACCELS = sp.symbols("r_ddot theta_ddot psi_ddot")
DEMAND = sp.symbols("demand demand_dot demand_ddot")
# Each symbol the chain's expressions take, with the symbol of its rate.
FLOW = {
    **dict(zip(KINEMATIC, RATES)),
    **dict(zip(LOS_RATES, LOS_ACCELS)),
    DEMAND[0]: DEMAND[1],
    DEMAND[1]: DEMAND[2],
}

A_MAX = 98.1
SAT = SaturationParams(a_max=A_MAX)


def d_dt(expr):
    """Total time derivative along the model's flow."""
    out = expr.diff(T)
    for x, x_dot in FLOW.items():
        out += expr.diff(x) * x_dot
    return out


def sgmf_cubic(x):
    """sgmf inside the blend layer |x| <= phi."""
    return -(x**3) / (2 * PHI**3) + 3 * x / (2 * PHI)


def heading_split(sigma_d):
    """The even split cos(sigma_d) = cos(heading_d)**2."""
    return sp.acos(2 * sp.cos(sigma_d) - 1) / 2


class Model:
    """The model's expressions, built once by ``model()``."""

    def __init__(self) -> None:
        e_r = sp.Matrix(
            [sp.cos(THETA) * sp.cos(PSI), sp.cos(THETA) * sp.sin(PSI), sp.sin(THETA)]
        )
        e_theta = e_r.diff(THETA)
        e_psi = e_r.diff(PSI) / sp.cos(THETA)
        u = (
            sp.cos(THETA_M) * sp.cos(PSI_M) * e_r
            + sp.cos(THETA_M) * sp.sin(PSI_M) * e_psi
            + sp.sin(THETA_M) * e_theta
        )
        self.u = u
        self.e_z = u.diff(THETA_M)
        self.e_y = u.diff(PSI_M) / sp.cos(THETA_M)

        r_vec_dot = -V * u
        r_dot = e_r.dot(r_vec_dot)
        theta_dot = e_theta.dot(r_vec_dot) / R
        psi_dot = e_psi.dot(r_vec_dot) / (R * sp.cos(THETA))
        coupling_z, coupling_y = self.coupling(theta_dot, psi_dot)
        theta_m_dot = A_MZ / V + coupling_z
        psi_m_dot = A_MY / (V * sp.cos(THETA_M)) + coupling_y
        self.rates = (r_dot, theta_dot, psi_dot, theta_m_dot, psi_m_dot)
        self.planar_rates = tuple(self.rates[i].subs(SECTION) for i in (0, 2, 4))

        z1 = V * (T_FINAL - T) - R
        self.sigma_d = sp.acos(1 - K1 * sgmf_cubic(z1))
        self.heading_d = heading_split(self.sigma_d)

    def coupling(self, theta_dot, psi_dot):
        """(coupling_z, coupling_y): the theta_m and psi_m rates that LOS
        rates ``theta_dot`` and ``psi_dot`` cause with no acceleration."""
        drift = self.u.diff(THETA) * theta_dot + self.u.diff(PSI) * psi_dot
        return -self.e_z.dot(drift), -self.e_y.dot(drift) / sp.cos(THETA_M)

    def chain_3d(self):
        """The 3D chain's layers: the LOS rates' rates, heading_d and its
        two rates, then (alpha_z, alpha_y, alpha_z_dot, alpha_y_dot)."""
        accels = tuple(d_dt(rate) for rate in self.rates[:3])
        demand = (self.heading_d, d_dt(self.heading_d), d_dt(d_dt(self.heading_d)))
        heading_d, heading_d_dot, _ = DEMAND
        coupling_z, coupling_y = self.coupling(*LOS_RATES[1:])
        alpha_z = V * (-coupling_z + heading_d_dot - K3 * (THETA_M - heading_d))
        alpha_y = V * sp.cos(THETA_M) * (-coupling_y + heading_d_dot - K4 * (PSI_M - heading_d))
        return accels, demand, (alpha_z, alpha_y, d_dt(alpha_z), d_dt(alpha_y))

    def chain_planar(self):
        """The planar chain's layers on the section, as ``chain_3d``'s: the
        tracked demand is sigma_d, the lead error z2 = sigma - sigma_d, and
        the chain is (alpha_y, alpha_y_dot)."""
        r_dot, psi_dot, _ = self.planar_rates
        accels = (d_dt(r_dot), 0, d_dt(psi_dot))
        demand = (self.sigma_d, d_dt(self.sigma_d), d_dt(d_dt(self.sigma_d)))
        sigma_d, sigma_d_dot, _ = DEMAND
        coupling = self.coupling(*LOS_RATES[1:])[1].subs(SECTION)
        alpha_y = V * (-coupling + sigma_d_dot - K2 * (PSI_M - sigma_d))
        return accels, demand, (alpha_y, d_dt(alpha_y))


@functools.lru_cache(maxsize=None)
def model() -> Model:
    return Model()


@functools.lru_cache(maxsize=None)
def lambdified(name: str, module: str = "math"):
    """The model's rates (``"rates"``), the section's (``"planar-rates"``),
    or a chain's three layers (``"chain-3d"``, ``"chain-planar"``) as
    functions of numbers.  Every layer takes the state, the speed,
    ``LAW_ARGS`` and ``RATES``, then the values of the layers before it."""
    m = model()
    if name == "rates":
        return sp.lambdify(ARGS_3D, m.rates, modules=module, cse=True)
    if name == "planar-rates":
        return sp.lambdify(ARGS_PLANAR, m.planar_rates, modules=module, cse=True)
    if name == "chain-3d":
        args, (accels, demand, chain) = (*ARGS_3D, *LAW_ARGS, *RATES), m.chain_3d()
    else:
        args, (accels, demand, chain) = (*ARGS_PLANAR, *LAW_ARGS, *RATES), m.chain_planar()
    return (
        sp.lambdify(args, accels, modules=module, cse=True),
        sp.lambdify((*args, *LOS_ACCELS), demand, modules=module, cse=True),
        sp.lambdify((*args, *LOS_ACCELS, *DEMAND), chain, modules=module, cse=True),
    )


def model_rates(t, y, v):
    """The model's (r_dot, theta_dot, psi_dot, theta_m_dot, psi_m_dot) at
    the 3D state ``y`` and speed ``v``, in floats."""
    return lambdified("rates")(t, *y, v)


def model_chain_3d(t, y, v, gains):
    """The model's (theta_ddot, psi_ddot, alpha_z, alpha_y, alpha_z_dot,
    alpha_y_dot) at the 3D state ``y``; ``gains`` are ``LAW_ARGS``."""
    accels, demand, chain = lambdified("chain-3d")
    args = (t, *y, v, *gains, *model_rates(t, y, v))
    los_accels = accels(*args)
    return (*los_accels[1:], *chain(*args, *los_accels, *demand(*args, *los_accels)))


def model_chain_planar(t, y, v, gains):
    """The model's (alpha_y, alpha_y_dot) at the planar state ``y``."""
    accels, demand, chain = lambdified("chain-planar")
    r_dot, psi_dot, psi_m_dot = lambdified("planar-rates")(t, *y, v)
    args = (t, *y, v, *gains, r_dot, 0.0, psi_dot, 0.0, psi_m_dot)
    los_accels = accels(*args)
    return chain(*args, *los_accels, *demand(*args, *los_accels))


def _relative(got, want, floor):
    return max(abs(g - w) / max(abs(w), floor) for g, w in zip(got, want))


# --- the model's own geometry -----------------------------------------------------


def test_model_frame_is_orthonormal():
    """u, e_z and e_y are orthonormal wherever cos(theta_m) != 0, which is
    what lets the heading rates be read off by projection."""
    m = model()
    frame = sp.lambdify(
        (THETA, PSI, THETA_M, PSI_M), [list(m.u), list(m.e_z), list(m.e_y)],
        modules="math", cse=True,
    )
    rng = random.Random(5)
    worst = 0.0
    for _ in range(200):
        angles = (rng.uniform(-1.5, 1.5), rng.uniform(-3.0, 3.0),
                  rng.uniform(-1.5, 1.5), rng.uniform(-3.0, 3.0))
        for i, a in enumerate(vectors := frame(*angles)):
            for j, b in enumerate(vectors):
                dot = sum(p * q for p, q in zip(a, b))
                worst = max(worst, abs(dot - (i == j)))
    print(f"model frame: worst Gram-matrix residual {worst:.3e} (gate 1e-14)")
    assert worst <= 1e-14


def test_heading_rates_los_coupling_terms():
    """Pure LOS rotation with the velocity on the LOS: the lead angles
    co-rotate, theta_m_dot = -theta_dot and psi_m_dot = -psi_dot cos(theta)."""
    theta_dot, psi_dot = sp.symbols("theta_dot psi_dot")
    coupling = sp.lambdify(
        (THETA, PSI, THETA_M, PSI_M, theta_dot, psi_dot),
        model().coupling(theta_dot, psi_dot),
        modules="math",
    )
    theta_m_dot, psi_m_dot = coupling(0.2, 0.7, 0.0, 0.0, 0.003, -0.004)
    assert theta_m_dot == pytest.approx(-0.003, rel=1e-12)
    assert psi_m_dot == pytest.approx(0.004 * math.cos(0.2), rel=1e-12)
    # With lead the coupling mixes the LOS rates, here at a general state:
    # theta_m_dot = -psi_dot sin(theta) sin(psi_m) - theta_dot cos(psi_m).
    got = coupling(0.2, 0.7, 0.1, 0.3, 0.003, -0.004)
    want_z = 0.004 * math.sin(0.2) * math.sin(0.3) - 0.003 * math.cos(0.3)
    want_y = (
        -0.004 * math.tan(0.1) * math.cos(0.3) * math.sin(0.2)
        + 0.004 * math.cos(0.2)
        - 0.003 * math.tan(0.1) * math.sin(0.3)
    )
    assert got == pytest.approx((want_z, want_y), rel=1e-12)


# --- (a) the laws' state derivatives ------------------------------------------------


def _pick(rng, edges, low, high):
    return rng.choice(edges) if rng.random() < 0.5 else rng.uniform(low, high)


def _polar_edge() -> float:
    """The largest theta below pi/2 whose cosine the 3D law still accepts."""
    theta = math.acos(EPS_COS)
    while math.cos(theta) < EPS_COS:
        theta = math.nextafter(theta, 0.0)
    return theta


# Just inside the bound: the actuator bracket 1 - (a/A)^2 is about 2e-6,
# above the laws' EPS_DEN guard.
A_EDGE = A_MAX * (1.0 - 1e-6)
R_EDGES = (EPS_RANGE, math.nextafter(EPS_RANGE, 1.0), 1e-3, 1.0)
T_EDGES = (0.0, -0.0, 50.0, 75.0)


def _law_kw(rng) -> dict:
    return dict(speed=rng.choice((250.0, rng.uniform(50.0, 400.0))), t_final=50.0, shaping=ShapingParams())


def _channel_scales(y, v):
    """The size of the terms each of the five rates sums, from the bounds
    |theta_dot| <= v/r and |psi_dot| <= v/(r |cos(theta)|): a rate may
    cancel to far below its terms, and its rounding stays at their size."""
    r, theta, _psi, theta_m, _psi_m, a_my, a_mz = y
    los = v / (r * abs(math.cos(theta)))
    tan_tm = abs(math.tan(theta_m))
    return (
        v,
        v / r,
        los,
        abs(a_mz) / v + 2.0 * los,
        abs(a_my) / (v * abs(math.cos(theta_m))) + los * (1.0 + 2.0 * tan_tm),
    )


def _term_scale(y, v):
    """S = v/(r |cos(theta)|) (1 + |tan(theta_m)|) + (|a_my| + |a_mz|)/(v |cos(theta_m)|) + v."""
    r, theta, _psi, theta_m, _psi_m, a_my, a_mz = y
    return (
        v / (r * abs(math.cos(theta))) * (1.0 + abs(math.tan(theta_m)))
        + (abs(a_my) + abs(a_mz)) / (v * abs(math.cos(theta_m)))
        + v
    )


def _gap_mp(got, fn, args):
    """max |got - fn(args)| over the components, fn evaluated at 40 digits."""
    with mpmath.workdps(40):
        want = fn(*map(mpmath.mpf, args))
        return max(float(abs(mpmath.mpf(g) - w)) for g, w in zip(got, want))


def test_3d_law_rates_match_the_model():
    """derivs[0:5] of ``Guidance3D.rates`` against the model.  On generic
    states each gap is relative to its channel's term size.  On the states
    of the former bit-for-bit comparison, whose guard edges (the range
    floor, the polar edge, theta_m at +-pi/2) cancel terms of about 1e17,
    the model runs in mpmath and the gap is relative to S."""
    fn = lambdified("rates")
    shaping = ShapingParams()
    rng = random.Random(20250619)
    worst = 0.0
    for _ in range(20000):
        v = rng.uniform(50.0, 400.0)
        t = rng.uniform(0.0, 75.0)
        y = (
            10.0 ** rng.uniform(0.0, 4.0),
            rng.uniform(-1.4, 1.4),
            rng.uniform(-3.0, 3.0),
            rng.uniform(-1.4, 1.4),
            rng.uniform(-3.0, 3.0),
            rng.uniform(-A_MAX, A_MAX),
            rng.uniform(-A_MAX, A_MAX),
        )
        law = Guidance3D(speed=v, t_final=50.0, shaping=shaping, sat=SAT)
        got = law.rates(t, y)[0][:5]
        want = fn(t, *y, v)
        scales = _channel_scales(y, v)
        worst = max(worst, *(abs(g - w) / s for g, w, s in zip(got, want, scales)))

    fn_mp = lambdified("rates", "mpmath")
    rng = random.Random(2024)
    polar = _polar_edge()
    angle_edges = (0.0, -0.0, polar, -polar)
    lead_edges = (0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi / 2 - 1e-9, 1e-9 - math.pi / 2)
    accel_edges = (0.0, -0.0, A_EDGE, -A_EDGE)
    worst_edge = 0.0
    for _ in range(400):
        law = Guidance3D(sat=SAT, **_law_kw(rng))
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
        got = law.rates(t, y)[0][:5]
        gap = _gap_mp(got, fn_mp, (t, *y, law.speed)) / _term_scale(y, law.speed)
        worst_edge = max(worst_edge, gap)
    print(
        f"3D rates: worst gap {worst:.3e} of the channel's terms over 20000 states "
        f"(gate 1e-10); {worst_edge:.3e} S over 400 edge states (gate 1e-14)"
    )
    assert worst <= 1e-10
    assert worst_edge <= 1e-14


def test_planar_law_rates_match_the_model():
    """The planar laws' (r_dot, theta_dot, sigma_dot) against the model's
    theta = theta_m = 0 section, as for the 3D law; the baseline's
    acceleration is its clipped command, as ``log_row`` reports it."""
    fn = lambdified("planar-rates")
    shaping = ShapingParams()
    rng = random.Random(20250620)
    worst = 0.0
    for _ in range(5000):
        v = rng.uniform(50.0, 400.0)
        t = rng.uniform(0.0, 75.0)
        r = 10.0 ** rng.uniform(0.0, 4.0)
        theta = rng.uniform(-3.0, 3.0)
        sigma = rng.uniform(-3.0, 3.0)
        a_my = rng.uniform(-A_MAX, A_MAX)
        law = GuidancePlanar(speed=v, t_final=50.0, shaping=shaping, sat=SAT)
        got = law.rates(t, (r, theta, sigma, a_my))[0][:3]
        want = fn(t, r, theta, sigma, a_my, v)
        scales = _channel_scales((r, 0.0, theta, 0.0, sigma, a_my, 0.0), v)[::2]
        worst = max(worst, *(abs(g - w) / s for g, w, s in zip(got, want, scales)))

    fn_mp = lambdified("planar-rates", "mpmath")
    rng = random.Random(2025)
    lead_edges = (0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi)
    worst_edge = 0.0
    for _ in range(400):
        kw = _law_kw(rng)
        v = kw["speed"]
        t = _pick(rng, T_EDGES, 0.0, 75.0)
        r = _pick(rng, R_EDGES, 1.0, 2.0e4)
        theta = rng.uniform(-math.pi, math.pi)
        sigma = _pick(rng, lead_edges, -1.5, 1.5)
        a_my = _pick(rng, (0.0, -0.0, A_EDGE, -A_EDGE), -A_MAX, A_MAX)
        law = GuidancePlanar(sat=SAT, **kw)
        got = law.rates(t, (r, theta, sigma, a_my))[0][:3]
        gap = _gap_mp(got, fn_mp, (t, r, theta, sigma, a_my, v))
        worst_edge = max(worst_edge, gap / _term_scale((r, 0.0, theta, 0.0, sigma, a_my, 0.0), v))

        baseline = BaselinePlanar(a_clip=rng.choice((A_MAX, math.inf)), **kw)
        ev = baseline.evaluate(t, (r, theta, sigma))
        a_cmd = max(-baseline.a_clip, min(baseline.a_clip, ev.alpha_y))
        gap = _gap_mp(ev.derivs, fn_mp, (t, r, theta, sigma, a_cmd, v))
        worst_edge = max(worst_edge, gap / _term_scale((r, 0.0, theta, 0.0, sigma, a_cmd, 0.0), v))
    print(
        f"planar rates: worst gap {worst:.3e} of the channel's terms over 5000 states "
        f"(gate 1e-10); {worst_edge:.3e} S over 400 edge states, both laws (gate 1e-14)"
    )
    assert worst <= 1e-10
    assert worst_edge <= 1e-14


# --- (b) the chain's second derivatives, along the model's flow ---------------------


def _in_layer_time(rng, r, v, shaping, t_final):
    """A time that puts z1 inside the blend layer, clear of its edges and of
    the EPS_SIN floors; None when the draw lands on a floor."""
    z1 = rng.uniform(0.01, 0.99) * shaping.phi
    sigma_d = desired_lead(z1, shaping)
    floor = 10.0 * EPS_SIN
    if math.sin(sigma_d) <= floor or math.sin(2.0 * desired_heading(sigma_d)) <= floor:
        return None
    return t_final - (z1 + r) / v


def test_3d_chain_derivatives_match_the_model():
    """theta_ddot, psi_ddot, alpha_z, alpha_y, alpha_z_dot and alpha_y_dot of
    ``Guidance3D.evaluate`` against the model's total time derivatives."""
    rng = random.Random(31)
    worst = 0.0
    states = 0
    while states < 2000:
        shaping = ShapingParams(k1=rng.uniform(0.05, 0.49), phi=rng.uniform(50.0, 500.0))
        v = rng.uniform(50.0, 400.0)
        r = 10.0 ** rng.uniform(0.0, 4.0)
        k3, k4 = rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)
        t = _in_layer_time(rng, r, v, shaping, 50.0)
        if t is None:
            continue
        y = (
            r,
            rng.uniform(-1.4, 1.4),
            rng.uniform(-3.0, 3.0),
            rng.uniform(-1.4, 1.4),
            rng.uniform(-3.0, 3.0),
            rng.uniform(-0.9, 0.9) * A_MAX,
            rng.uniform(-0.9, 0.9) * A_MAX,
        )
        law = Guidance3D(
            speed=v, t_final=50.0, shaping=shaping, sat=SAT, k3=k3, k4=k4
        )
        ev = law.evaluate(t, y)
        got = (ev.theta_ddot, ev.psi_ddot, ev.alpha_z, ev.alpha_y, ev.alpha_z_dot, ev.alpha_y_dot)
        want = model_chain_3d(t, y, v, (50.0, shaping.k1, shaping.phi, 0.0, k3, k4))
        worst = max(worst, _relative(got, want, 1e-3))
        states += 1
    print(f"3D chain: worst relative gap {worst:.3e} over {states} in-layer states (gate 1e-9)")
    assert worst <= 1e-9


def test_planar_chain_derivatives_match_the_model():
    """alpha_y and alpha_y_dot of ``GuidancePlanar.evaluate`` against the
    model's section."""
    rng = random.Random(32)
    worst = 0.0
    states = 0
    while states < 1000:
        shaping = ShapingParams(k1=rng.uniform(0.05, 0.49), phi=rng.uniform(50.0, 500.0))
        v = rng.uniform(50.0, 400.0)
        r = 10.0 ** rng.uniform(0.0, 4.0)
        k2 = rng.uniform(0.2, 3.0)
        t = _in_layer_time(rng, r, v, shaping, 50.0)
        if t is None:
            continue
        theta = rng.uniform(-3.0, 3.0)
        sigma = rng.uniform(-1.5, 1.5)
        a_my = rng.uniform(-0.9, 0.9) * A_MAX
        law = GuidancePlanar(speed=v, t_final=50.0, shaping=shaping, sat=SAT, k2=k2)
        ev = law.evaluate(t, (r, theta, sigma, a_my))
        gains = (50.0, shaping.k1, shaping.phi, k2, 0.0, 0.0)
        want = model_chain_planar(t, (r, theta, sigma, a_my), v, gains)
        worst = max(worst, _relative((ev.alpha_y, ev.alpha_y_dot), want, 1e-3))
        states += 1
    print(f"planar chain: worst relative gap {worst:.3e} over {states} in-layer states (gate 1e-9)")
    assert worst <= 1e-9


# --- (c) the shaping ----------------------------------------------------------------


# Frozen values of sgmf's derivatives for phi = 300 (exact arithmetic, cast
# to float).
SGMF_D1_0 = 0.005
SGMF_D1_150 = 0.00375
SGMF_D2_150 = -1.6666666666666667e-05
SGMF_D2_PHI = -3.3333333333333335e-05


def test_sgmf_derivatives_frozen():
    x = sp.Symbol("x")
    d1 = sgmf_cubic(x).diff(x)
    d2 = d1.diff(x)
    slopes = sp.lambdify((x, PHI), (d1, d2), modules="math")
    assert slopes(0.0, 300.0) == pytest.approx((SGMF_D1_0, 0.0), rel=1e-12)
    assert slopes(150.0, 300.0) == pytest.approx((SGMF_D1_150, SGMF_D2_150), rel=1e-12)
    # The cubic meets the flat +-1 outside the layer with zero slope, so
    # sgmf is C^1; the curvature jumps there.
    assert (sgmf_cubic(PHI), sgmf_cubic(-PHI)) == (1, -1)
    assert d1.subs(x, PHI) == d1.subs(x, -PHI) == 0
    assert slopes(300.0, 300.0)[1] == pytest.approx(SGMF_D2_PHI, rel=1e-12)


def test_shaping_matches_the_differentiated_demand():
    """sgmf on the layer, and the six fields of ``shaping_rates`` with
    sigma_d_dot = sigma_d'(z1) z1_dot and
    sigma_d_ddot = sigma_d''(z1) z1_dot**2 + sigma_d'(z1) z1_ddot."""
    z, z_dot, z_ddot = sp.symbols("z z_dot z_ddot")
    blend = sp.lambdify((z, PHI), sgmf_cubic(z), modules="math")
    sigma_d = sp.acos(1 - K1 * sgmf_cubic(z))
    exprs = []
    for demand in (sigma_d, heading_split(sigma_d)):
        d1 = demand.diff(z)
        exprs += [demand, d1 * z_dot, d1.diff(z) * z_dot**2 + d1 * z_ddot]
    fn = sp.lambdify((z, z_dot, z_ddot, K1, PHI), exprs, modules="math", cse=True)

    rng = random.Random(33)
    worst = 0.0
    for _ in range(2000):
        p = ShapingParams(k1=rng.uniform(0.01, 0.49), phi=10.0 ** rng.uniform(0.0, 4.0))
        x = rng.uniform(-1.0, 1.0) * p.phi
        worst = max(worst, _relative([sgmf(x, p.phi)], [blend(x, p.phi)], 1e-3))

        z1 = rng.uniform(0.01, 0.99) * p.phi
        z1_dot = rng.uniform(-400.0, 400.0)
        z1_ddot = rng.uniform(-100.0, 100.0)
        sh = shaping_rates(z1, z1_dot, z1_ddot, p)
        floor = 10.0 * EPS_SIN
        if math.sin(sh.sigma_d) <= floor or math.sin(2.0 * sh.heading_d) <= floor:
            continue
        want = fn(z1, z1_dot, z1_ddot, p.k1, p.phi)
        worst = max(worst, _relative(sh[:6], want, 1e-3))
    print(f"shaping: worst relative gap {worst:.3e} over sgmf and the rates (gate 1e-9)")
    assert worst <= 1e-9
