"""End-to-end acceptance gates for the guidance simulation.

Each test checks one acceptance criterion on the cached study runs and
registers one [C#] PASS/FAIL line (echoed again in the terminal summary).
Criteria 1-7 gate the standard engagement studies; criterion 8 is a set of
model-level properties (saturation invariance, Lyapunov descent, analytic
derivatives vs finite differences, planar/3D section equivalence, step-size
robustness, algebraic identities).
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest

from itcsim.engine import RunStatus, rk4_step
from itcsim.guidance_planar import GuidancePlanar
from itcsim.kinematics import effective_lead, heading_rates_3d, los_rates_3d
from itcsim.presets import PLANAR_COMPARE_ROWS
from itcsim.saturation import SaturationParams, saturation_rate
from itcsim.shaping import desired_heading, desired_lead, shaping_rates

G = 9.81
A_MAX = 10.0 * G                     # 98.1 m/s^2
ACCEL_TOL = 1e-6                     # pointwise bound comparisons, m/s^2
BOUND_TOL = 1e-9                     # per-row scheduled-bound comparisons
IMPACT_TOL = 0.1                     # impact-time window, s
FOV_DEG = 60.0

# Reference control efforts for the planar comparison rows (same order as
# PLANAR_COMPARE_ROWS); the gate is +-10%.
REFERENCE_EFFORTS = (26453.596, 22142.337, 17622.982, 27745.7, 29834.925, 33995.707)


def _intercepted_on_time(bundle, tf):
    ok = (
        bundle.outcome.status is RunStatus.INTERCEPTED
        and bundle.outcome.impact_time is not None
        and abs(bundle.outcome.impact_time - tf) <= IMPACT_TOL
    )
    return ok


# --- C1: nominal three-dimensional engagement -------------------------------


def test_c1_nominal_engagement(nominal_run, criterion_recorder):
    b = nominal_run
    checks = {
        "intercepted": b.outcome.status is RunStatus.INTERCEPTED,
        "miss<=1m": b.outcome.miss_distance <= 1.0,
        "impact=50+-0.1s": b.outcome.impact_time is not None
        and abs(b.outcome.impact_time - 50.0) <= IMPACT_TOL,
        "lead<=60deg": math.degrees(b.metrics.max_lead) <= FOV_DEG + 1e-9,
        "aMy<=98.1": b.metrics.max_ay <= A_MAX + ACCEL_TOL,
        "aMz<=98.1": b.metrics.max_az <= A_MAX + ACCEL_TOL,
        "runtime<60s": b.elapsed < 60.0,
    }
    detail = (
        f"impact={b.outcome.impact_time:.4f} s, miss={b.outcome.miss_distance:.3f} m, "
        f"maxLead={math.degrees(b.metrics.max_lead):.2f} deg, "
        f"maxA=({b.metrics.max_ay:.2f},{b.metrics.max_az:.2f}) m/s^2, "
        f"runtime={b.elapsed:.1f} s"
    )
    failed = [name for name, ok in checks.items() if not ok]
    criterion_recorder("1", not failed, detail + (f" [failed: {failed}]" if failed else ""))
    assert not failed, detail


# --- C2: commanded impact-time sweep ----------------------------------------


def test_c2_impact_time_sweep(tf_sweep_runs, criterion_recorder):
    parts = []
    ok = True
    for b in tf_sweep_runs:
        tf = b.cfg.tf
        good = (
            _intercepted_on_time(b, tf)
            and b.metrics.fov_violations == 0
            and b.metrics.accel_violations == 0
        )
        ok = ok and good
        parts.append(f"tf{int(tf)}: {b.outcome.impact_time:.4f} s")
    detail = "; ".join(parts)
    criterion_recorder("2", ok, detail)
    assert ok, detail


# --- C3: launch-heading sweep -------------------------------------------------


def test_c3_heading_sweep(heading_sweep_runs, criterion_recorder):
    parts = []
    ok = True
    for b in heading_sweep_runs:
        good = (
            _intercepted_on_time(b, 50.0)
            and b.metrics.fov_violations == 0
            and b.metrics.accel_violations == 0
        )
        ok = ok and good
        parts.append(
            f"({int(b.cfg.elevation_deg)},{int(b.cfg.azimuth_deg)})deg: "
            f"{b.outcome.impact_time:.4f} s"
        )
    detail = "; ".join(parts)
    criterion_recorder("3", ok, detail)
    assert ok, detail


# --- C4: roll-coupled moving bounds -------------------------------------------


def test_c4_roll_coupled_bounds(rollcoupled_run, criterion_recorder):
    b = rollcoupled_run
    worst_resultant = max(
        math.hypot(row.a_my, row.a_mz) for row in b.log.rows
    )
    per_axis_ok = all(
        abs(row.a_my) <= row.a_y_max + BOUND_TOL
        and abs(row.a_mz) <= row.a_z_max + BOUND_TOL
        for row in b.log.rows
    )
    checks = {
        "intercepted@50": _intercepted_on_time(b, 50.0),
        "resultant<=98.1": worst_resultant <= A_MAX + ACCEL_TOL,
        "per-axis-bounds": per_axis_ok and b.metrics.accel_violations == 0,
    }
    detail = (
        f"impact={b.outcome.impact_time:.4f} s, "
        f"max resultant={worst_resultant:.4f} m/s^2 (bound {A_MAX:.4g}), "
        f"axis violations={b.metrics.accel_violations}"
    )
    failed = [name for name, v in checks.items() if not v]
    criterion_recorder("4", not failed, detail + (f" [failed: {failed}]" if failed else ""))
    assert not failed, detail


# --- C5: wing-tail moving bounds ----------------------------------------------


def test_c5_wing_tail_bounds(wingtail_run, criterion_recorder):
    b = wingtail_run
    a_hi = b.cfg.a_max_g * G      # 49.05
    a_lo = b.cfg.a_max_l_g * G    # 9.81
    per_axis_ok = True
    bounds_in_range = True
    for row in b.log.rows:
        if abs(row.a_my) > row.a_y_max + BOUND_TOL or abs(row.a_mz) > row.a_z_max + BOUND_TOL:
            per_axis_ok = False
        if not (
            a_lo - BOUND_TOL <= row.a_y_max <= a_hi + BOUND_TOL
            and a_lo - BOUND_TOL <= row.a_z_max <= a_hi + BOUND_TOL
        ):
            bounds_in_range = False
    checks = {
        "intercepted@50": _intercepted_on_time(b, 50.0),
        "per-axis-bounds": per_axis_ok and b.metrics.accel_violations == 0,
        "bounds-in-[1g,5g]": bounds_in_range,
    }
    detail = (
        f"impact={b.outcome.impact_time:.4f} s, "
        f"maxA=({b.metrics.max_ay:.3f},{b.metrics.max_az:.3f}) m/s^2, "
        f"axis violations={b.metrics.accel_violations}"
    )
    failed = [name for name, v in checks.items() if not v]
    criterion_recorder("5", not failed, detail + (f" [failed: {failed}]" if failed else ""))
    assert not failed, detail


# --- C6: planar effort comparison ----------------------------------------------


def test_c6_planar_effort_comparison(planar_compare_runs, criterion_recorder):
    by_label = {b.label: b for b in planar_compare_runs}
    parts = []
    ok = True
    for (tf, angle), reference in zip(PLANAR_COMPARE_ROWS, REFERENCE_EFFORTS):
        stem = f"tf{int(tf)}-angle{int(angle)}"
        prop = by_label[f"{stem}-proposed"]
        base = by_label[f"{stem}-baseline"]
        effort = prop.metrics.control_effort
        rel = (effort - reference) / reference
        good = (
            _intercepted_on_time(prop, tf)
            and abs(rel) <= 0.10
            and effort < base.metrics.control_effort
        )
        ok = ok and good
        parts.append(f"{stem}: {effort:.1f} ({rel:+.2%} vs ref, baseline {base.metrics.control_effort:.1f})")
    # The unconstrained baseline must actually need more than 10 g on the
    # first row; that is what the saturation-aware design is avoiding.
    base_peak = by_label["tf50-angle10-baseline"].metrics.max_ay
    if base_peak <= A_MAX:
        ok = False
    parts.append(f"baseline tf50-angle10 peak {base_peak:.1f} m/s^2 (must exceed {A_MAX:.4g})")
    detail = "; ".join(parts)
    criterion_recorder("6", ok, detail)
    assert ok, detail


# --- C7: terminal constraint satisfaction ---------------------------------------


def test_c7_terminal_state(
    nominal_run,
    tf_sweep_runs,
    heading_sweep_runs,
    rollcoupled_run,
    wingtail_run,
    planar_compare_runs,
    criterion_recorder,
):
    # The terminal-convergence guarantee belongs to the shaped law; the
    # unclipped comparison law is exercised only as the effort/peak-demand
    # reference in C6 and carries no such claim.
    bundles = (
        [nominal_run, rollcoupled_run, wingtail_run]
        + tf_sweep_runs
        + heading_sweep_runs
        + [b for b in planar_compare_runs if b.label.endswith("-proposed")]
    )
    intercepting = [b for b in bundles if b.outcome.status is RunStatus.INTERCEPTED]
    assert intercepting, "no intercepting runs to check"

    worst_lead = max(intercepting, key=lambda b: b.metrics.terminal_lead)
    worst_accel = max(
        intercepting, key=lambda b: max(b.metrics.terminal_ay, b.metrics.terminal_az)
    )
    lead_deg = math.degrees(worst_lead.metrics.terminal_lead)
    accel = max(worst_accel.metrics.terminal_ay, worst_accel.metrics.terminal_az)
    lead_fail = [
        b.label for b in intercepting if math.degrees(b.metrics.terminal_lead) >= 1.0
    ]
    accel_fail = [
        b.label
        for b in intercepting
        if max(b.metrics.terminal_ay, b.metrics.terminal_az) >= 0.5
    ]
    ok = not lead_fail and not accel_fail
    detail = (
        f"{len(intercepting)} intercepting shaped-law runs; worst terminal lead "
        f"{lead_deg:.4f} deg ({worst_lead.label}, gate 1, {len(lead_fail)} over); "
        f"worst terminal accel {accel:.3f} m/s^2 ({worst_accel.label}, gate 0.5, "
        f"{len(accel_fail)} over)"
    )
    criterion_recorder("7", ok, detail)
    assert ok, detail


# --- C8a: saturation forward invariance ------------------------------------------


def test_c8a_saturation_forward_invariance(criterion_recorder):
    """1000 randomized piecewise-constant command sequences, |b| up to 1e6:
    an acceleration starting strictly inside its bound never leaves it."""
    params = SaturationParams()
    params.validate()
    a_bound = params.a_max
    rng = random.Random(42)
    min_margin = math.inf
    violations = []
    for seq in range(1000):
        if seq % 50 == 0:
            a = rng.choice([-1.0, 1.0]) * 0.999 * a_bound  # start near the edge
        else:
            a = rng.uniform(-0.999, 0.999) * a_bound
        for _segment in range(8):
            b = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0.0, 6.0)
            # Step well inside the stiff segment's stability limit.
            lam = params.rho + params.n * abs(b) / a_bound
            dt = 0.2 / lam
            for _ in range(20):
                k1 = saturation_rate(a, b, a_bound, params)
                k2 = saturation_rate(a + 0.5 * dt * k1, b, a_bound, params)
                k3 = saturation_rate(a + 0.5 * dt * k2, b, a_bound, params)
                k4 = saturation_rate(a + dt * k3, b, a_bound, params)
                a = a + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
                margin = a_bound - abs(a)
                if margin < min_margin:
                    min_margin = margin
                if margin <= 0.0:
                    violations.append(f"seq {seq}: |a|={abs(a):.6f}")
    ok = not violations
    detail = (
        f"1000 sequences x 8 segments, |b| up to 1e6: min margin to bound "
        f"{min_margin:.3e} m/s^2"
    )
    if violations:
        detail += f" [escaped: {violations[:3]}]"
    criterion_recorder("8a", ok, detail)
    assert ok, detail


# --- C8b: Lyapunov descent -----------------------------------------------------


def _guard_free_3d(row, shaping, b_cap):
    if row.z1 <= 0.0 or abs(row.z1 - shaping.phi) <= 30.0:
        return False
    sigma_d, feasible = desired_lead(row.z1, shaping)
    if not feasible or math.sin(sigma_d) <= shaping.eps_sin:
        return False
    if math.sin(2.0 * desired_heading(sigma_d)) <= shaping.eps_sin:
        return False
    cap = b_cap * (1.0 - 1e-12)
    return abs(row.b_y) < cap and abs(row.b_z) < cap


def test_c8b_lyapunov_descent(nominal_run, planar_compare_runs, criterion_recorder):
    """Both error-pair energies decay row to row once the launch transient
    has died down, on every logged step outside the guard regions."""
    tol = 1e-9
    rises: list[str] = []

    def check(rows, shaping, b_cap, channels):
        zy0 = abs(rows[0].zy)
        zz0 = abs(rows[0].zz) if "z" in channels else 0.0
        start = None
        for i, row in enumerate(rows):
            if abs(row.zy) <= 1e-3 * zy0 and ("z" not in channels or abs(row.zz) <= 1e-3 * zz0):
                start = i
                break
        if start is None:
            rises.append("acceleration errors never converged")
            return None, 0
        pairs = 0
        for i in range(start, len(rows) - 1):
            r0, r1 = rows[i], rows[i + 1]
            if not (_guard_free_3d(r0, shaping, b_cap) and _guard_free_3d(r1, shaping, b_cap)):
                continue
            pairs += 1
            if "z" in channels and r1.lyapunov_z > r0.lyapunov_z + tol * max(1.0, r0.lyapunov_z):
                rises.append(f"Vz rose at t={r0.t}: {r0.lyapunov_z} -> {r1.lyapunov_z}")
            if r1.lyapunov_y > r0.lyapunov_y + tol * max(1.0, r0.lyapunov_y):
                rises.append(f"Vy rose at t={r0.t}: {r0.lyapunov_y} -> {r1.lyapunov_y}")
        return start, pairs

    shaping = nominal_run.cfg.shaping_params()
    start3, pairs3 = check(nominal_run.log.rows, shaping, nominal_run.cfg.b_cap, "yz")

    planar = next(b for b in planar_compare_runs if b.label == "tf50-angle10-proposed")
    startp, pairsp = check(planar.log.rows, planar.cfg.shaping_params(), planar.cfg.b_cap, "y")

    ok = not rises and pairs3 > 1000 and pairsp > 1000
    detail = (
        f"3D: {pairs3} row pairs monotone from t="
        f"{nominal_run.log.rows[start3].t:.2f} s; planar: {pairsp} pairs from t="
        f"{planar.log.rows[startp].t:.2f} s"
        if not rises
        else f"violations: {rises[:3]} (3D pairs {pairs3}, planar pairs {pairsp})"
    )
    criterion_recorder("8b", ok, detail)
    assert ok, detail


# --- C8c: analytic derivatives vs finite differences ------------------------------


def _fd_samples(rows, b_cap, t_lo=2.0, spacing=1.0, limit=7):
    """Logged rows suitable for finite-difference probes: inside the flight,
    clear of the blend-layer edge, the demand floor, and the command cap.
    Samples both regimes: full-lead cruise (z1 above the layer) and the
    blending descent (z1 inside the layer)."""
    cap = b_cap * 0.999
    outside, inside = [], []
    t_out, t_in = -math.inf, -math.inf
    for row in rows[:-1]:
        if row.t < t_lo:
            continue
        if row.z1 <= 30.0 or abs(row.z1 - 300.0) <= 30.0:
            continue
        if abs(row.b_y) >= cap or abs(row.b_z) >= cap:
            continue
        if row.z1 > 300.0:
            if row.t - t_out >= spacing and len(outside) < limit:
                outside.append(row)
                t_out = row.t
        elif row.t - t_in >= spacing and len(inside) < limit:
            inside.append(row)
            t_in = row.t
    return outside + inside


def _rel_err(fd, an, scale):
    return abs(fd - an) / max(abs(an), abs(fd), scale)


def test_c8c_analytic_derivatives_match_finite_differences(
    nominal_run, planar_compare_runs, criterion_recorder
):
    h = 1e-5
    worst = 0.0

    # Shaped-demand chain along synthetic range-time-error trajectories
    # z1(t) = z10 + zd*t + 0.5*zdd*t^2 (finite differences in t).
    shaping = nominal_run.cfg.shaping_params()
    hs = 1e-3
    for z10, zd, zdd in ((150.0, -10.0, 0.0), (60.0, -25.0, 2.0), (250.0, -5.0, -1.0)):
        sh0 = shaping_rates(z10, zd, zdd, shaping)
        plus = shaping_rates(z10 + zd * hs + 0.5 * zdd * hs * hs, zd + zdd * hs, zdd, shaping)
        minus = shaping_rates(z10 - zd * hs + 0.5 * zdd * hs * hs, zd - zdd * hs, zdd, shaping)
        fd_dot = (plus.sigma_d - minus.sigma_d) / (2.0 * hs)
        fd_ddot = (plus.sigma_d_dot - minus.sigma_d_dot) / (2.0 * hs)
        worst = max(worst, _rel_err(fd_dot, sh0.sigma_d_dot, 1e-9))
        worst = max(worst, _rel_err(fd_ddot, sh0.sigma_d_ddot, 1e-9))
        fd_h_dot = (plus.heading_d - minus.heading_d) / (2.0 * hs)
        worst = max(worst, _rel_err(fd_h_dot, sh0.heading_d_dot, 1e-9))

    # 3D closed loop: second LOS derivatives and stabilizing-acceleration
    # rates, probed by stepping the true dynamics +-h around logged states.
    law3 = nominal_run.cfg.make_law()
    samples = _fd_samples(nominal_run.log.rows, nominal_run.cfg.b_cap)
    assert len(samples) >= 8, f"only {len(samples)} usable probe rows"
    for row in samples:
        t, y = row.t, (row.r, row.theta, row.psi, row.theta_m, row.psi_m, row.a_my, row.a_mz)
        ev0 = law3.evaluate(t, y)
        y_p, _ = rk4_step(law3, t, y, h)
        y_m, _ = rk4_step(law3, t, y, -h)
        ev_p = law3.evaluate(t + h, y_p)
        ev_m = law3.evaluate(t - h, y_m)
        pairs = (
            ((ev_p.derivs[1] - ev_m.derivs[1]) / (2 * h), ev0.theta_ddot, 1e-9),
            ((ev_p.derivs[2] - ev_m.derivs[2]) / (2 * h), ev0.psi_ddot, 1e-9),
            ((ev_p.alpha_y - ev_m.alpha_y) / (2 * h), ev0.alpha_y_dot, 1e-6),
            ((ev_p.alpha_z - ev_m.alpha_z) / (2 * h), ev0.alpha_z_dot, 1e-6),
        )
        for fd, an, scale in pairs:
            worst = max(worst, _rel_err(fd, an, scale))

    # Planar closed loop: stabilizing-acceleration rate.
    planar = next(b for b in planar_compare_runs if b.label == "tf50-angle10-proposed")
    lawp = planar.cfg.make_law()
    psamples = _fd_samples(planar.log.rows, planar.cfg.b_cap)
    assert len(psamples) >= 8
    for row in psamples:
        t, y = row.t, (row.r, row.theta, row.sigma, row.a_my)
        ev0 = lawp.evaluate(t, y)
        y_p, _ = rk4_step(lawp, t, y, h)
        y_m, _ = rk4_step(lawp, t, y, -h)
        fd = (lawp.evaluate(t + h, y_p).alpha_y - lawp.evaluate(t - h, y_m).alpha_y) / (2 * h)
        worst = max(worst, _rel_err(fd, ev0.alpha_y_dot, 1e-6))

    ok = worst < 1e-3
    detail = f"worst relative error {worst:.3e} over shaping chain, 3D and planar probes (gate 1e-3)"
    criterion_recorder("8c", ok, detail)
    assert ok, detail


# --- C8d: the planar law is a section of the 3D geometry --------------------------


class _PlanarSection:
    """The planar engagement embedded in the 3D state layout: elevation
    channels pinned at zero, horizontal channels driven by the planar law,
    with the LOS and heading rates computed by the 3D kinematics."""

    state_size = 7

    def __init__(self, planar: GuidancePlanar):
        self.planar = planar
        self.speed = planar.speed
        self.t_final = planar.t_final

    def rates(self, t, y):
        r, theta, psi, theta_m, psi_m, a_my, a_mz = y
        pl_derivs, feasible = self.planar.rates(t, (r, psi, psi_m, a_my))[:2]
        r_dot, theta_dot, psi_dot = los_rates_3d(r, theta, theta_m, psi_m, self.speed)
        theta_m_dot, psi_m_dot = heading_rates_3d(
            theta, theta_m, psi_m, theta_dot, psi_dot, a_my, a_mz, self.speed
        )
        return (r_dot, theta_dot, psi_dot, theta_m_dot, psi_m_dot, pl_derivs[3], 0.0), feasible


def _compare_section(cfg, steps, dt=1e-3):
    planar_law = cfg.make_law()
    section = _PlanarSection(planar_law)
    r0, th0, sg0, a0 = cfg.initial_state()
    y2 = (r0, th0, sg0, a0)
    y7 = (r0, 0.0, th0, 0.0, sg0, a0, 0.0)
    worst = 0.0
    for k in range(steps):
        t = k * dt
        y2, _ = rk4_step(planar_law, t, y2, dt)
        y7, _ = rk4_step(section, t, y7, dt)
        assert y7[1] == 0.0 and y7[3] == 0.0 and y7[6] == 0.0
        for a, b in zip(y2, (y7[0], y7[2], y7[4], y7[5])):
            worst = max(worst, abs(a - b))
    return worst


def test_c8d_planar_section_equivalence(criterion_recorder):
    from itcsim.config import ScenarioConfig

    base = replace(ScenarioConfig(), mode="planar", azimuth_deg=10.0)
    # Out-of-layer start (z1 = 2500 m) and an in-layer start (z1 = 125 m).
    worst_a = _compare_section(replace(base, tf=50.0), steps=3000)
    worst_b = _compare_section(
        replace(base, tf=6.5, initial_x_km=-1.5), steps=1200
    )
    worst = max(worst_a, worst_b)
    ok = worst < 1e-9
    detail = (
        f"max |planar - 3D section| component deviation {worst:.3e} over "
        f"4200 integration steps (gate 1e-9)"
    )
    criterion_recorder("8d", ok, detail)
    assert ok, detail


# --- C8e: integration step robustness ---------------------------------------------


def test_c8e_step_size_robustness(nominal_run, nominal_half_dt_run, criterion_recorder):
    dt_impact = abs(nominal_run.outcome.impact_time - nominal_half_dt_run.outcome.impact_time)
    effort = nominal_run.metrics.control_effort
    effort_half = nominal_half_dt_run.metrics.control_effort
    rel_effort = abs(effort - effort_half) / effort
    ok = dt_impact < 1e-3 and rel_effort < 1e-3
    detail = (
        f"dt 1ms vs 0.5ms: impact-time change {dt_impact:.2e} s (gate 1e-3), "
        f"effort change {rel_effort:.2e} relative (gate 1e-3)"
    )
    criterion_recorder("8e", ok, detail)
    assert ok, detail


# --- C8f: algebraic consistency of the lead identities ----------------------------


def test_c8f_lead_identities(nominal_run, criterion_recorder):
    # cos(sigma_d) = cos^2(heading_d) and the even split round-trips through
    # the 3D lead composition.
    rng = random.Random(99)
    worst_split = 0.0
    worst_trip = 0.0
    angles = [math.radians(d) for d in (1.0, 10.0, 30.0, 59.0)]
    angles += [rng.uniform(1e-6, 1.45) for _ in range(200)]
    for sigma_d in angles:
        h = desired_heading(sigma_d)
        worst_split = max(worst_split, abs(math.cos(sigma_d) - math.cos(h) ** 2))
        worst_trip = max(worst_trip, abs(effective_lead(h, h) - sigma_d))

    # Logged lead is exactly the composition of the logged heading components.
    worst_row = max(
        abs(effective_lead(row.theta_m, row.psi_m) - row.sigma)
        for row in nominal_run.log.rows
    )
    ok = worst_split < 1e-12 and worst_trip < 1e-9 and worst_row <= 1e-9
    detail = (
        f"split identity {worst_split:.2e} (gate 1e-12), round trip {worst_trip:.2e}, "
        f"logged-row lead residual {worst_row:.2e} (gate 1e-9)"
    )
    criterion_recorder("8f", ok, detail)
    assert ok, detail
