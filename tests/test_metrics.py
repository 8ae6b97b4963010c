"""Run metrics: control effort, interception timing, constraint violations."""

from __future__ import annotations

import json
import math

import pytest

from itcsim.logio import LogRow, TrajectoryLog, write_metrics_json
from itcsim.metrics import (
    BOUND_TOL,
    REPORT_HEADER,
    Metrics,
    MetricsFold,
    compare_report,
    interception_metrics,
)


def _row(**overrides) -> LogRow:
    vals = {name: 0.0 for name in (
        "t", "r", "theta", "psi", "theta_m", "psi_m", "sigma", "a_my", "a_mz",
        "b_y", "b_z", "z1", "z2", "z3", "z4", "zy", "zz",
        "lyapunov_z", "lyapunov_y", "x", "y", "z",
    )}
    vals.update({"a_y_max": 98.1, "a_z_max": 98.1})
    vals.update(overrides)
    return LogRow(**vals)


def _log(rows) -> TrajectoryLog:
    return TrajectoryLog(rows=rows)


def _effort(log: TrajectoryLog) -> float | None:
    return interception_metrics(log, t_final=0.0, sigma_max=math.inf, hit_radius=0.0).control_effort


def test_control_effort_constant_acceleration():
    # 10 m/s^2 held for 2 s: integral of a^2 dt = 200.
    log = _log([_row(t=0.0, a_my=10.0), _row(t=2.0, a_my=10.0)])
    assert _effort(log) == pytest.approx(200.0, rel=1e-15)


def test_control_effort_trapezoid_and_zero():
    # Hand trapezoid: a^2 samples 1, 4, 9 at t = 0, 1, 3.
    log = _log([
        _row(t=0.0, a_my=1.0),
        _row(t=1.0, a_mz=2.0),
        _row(t=3.0, a_my=3.0),
    ])
    assert _effort(log) == pytest.approx(0.5 * (1 + 4) * 1 + 0.5 * (4 + 9) * 2, rel=1e-15)
    assert _effort(_log([_row(t=0.0), _row(t=5.0)])) == 0.0
    # An empty log has no effort, as a run that logs no row.
    assert _effort(_log([])) is None


def test_control_effort_uses_both_axes():
    log = _log([_row(t=0.0, a_my=3.0, a_mz=4.0), _row(t=1.0, a_my=3.0, a_mz=4.0)])
    assert _effort(log) == pytest.approx(25.0, rel=1e-15)


def test_interception_metrics_crossing_interpolation():
    rows = [
        _row(t=0.0, r=5.0, sigma=0.2, a_my=10.0),
        _row(t=1.0, r=3.0, sigma=0.1, a_my=-20.0),
        _row(t=2.0, r=0.5, sigma=0.05, a_my=5.0, a_mz=-1.0),
    ]
    m = interception_metrics(_log(rows), t_final=2.0, sigma_max=1.0, hit_radius=1.0)
    # Crossing between rows 1 and 2: frac = (3-1)/(3-0.5) = 0.8.
    assert m.impact_time == pytest.approx(1.8, rel=1e-12)
    assert m.impact_time_error == pytest.approx(-0.2, rel=1e-12)
    assert m.miss_distance == 0.5
    assert m.max_lead == 0.2
    assert m.max_ay == 20.0
    assert m.max_az == 1.0
    assert m.terminal_lead == 0.05
    assert m.terminal_ay == 5.0
    assert m.terminal_az == 1.0
    assert m.fov_violations == 0
    assert m.accel_violations == 0


def test_interception_metrics_edge_cases():
    # First row already inside the hit radius.
    m = interception_metrics(
        _log([_row(t=0.25, r=0.5), _row(t=1.0, r=0.2)]),
        t_final=1.0, sigma_max=1.0, hit_radius=1.0,
    )
    assert m.impact_time == 0.25
    # No crossing at all.
    m = interception_metrics(
        _log([_row(t=0.0, r=5.0), _row(t=1.0, r=4.0)]),
        t_final=1.0, sigma_max=1.0, hit_radius=1.0,
    )
    assert m.impact_time is None
    assert m.impact_time_error is None
    assert m.miss_distance == 4.0
    # An empty log (a run whose first evaluation tripped a guard) scores
    # as run_scenario scores it.
    assert interception_metrics(_log([]), t_final=1.0, sigma_max=1.0, hit_radius=1.0) == Metrics()


def test_violation_counting_uses_row_bounds():
    rows = [
        _row(t=0.0, r=5.0, sigma=1.0),                        # exactly on the FOV bound
        _row(t=1.0, r=4.0, sigma=1.0 + 0.5 * BOUND_TOL),       # inside the tolerance
        _row(t=2.0, r=3.0, sigma=-1.1),                        # violation
        _row(t=3.0, r=2.5, a_my=98.1 + 3e-9),                  # beyond the tolerance
        _row(t=4.0, r=2.0, a_mz=-98.1),                        # exactly on the bound
        _row(t=5.0, r=1.5, a_my=50.0, a_y_max=49.0),           # over a *row* bound
    ]
    m = interception_metrics(_log(rows), t_final=9.0, sigma_max=1.0, hit_radius=1.0)
    assert m.fov_violations == 1
    assert m.accel_violations == 2


def test_metrics_to_dict_keys():
    m = interception_metrics(
        _log([_row(t=0.0, r=5.0), _row(t=1.0, r=0.5)]),
        t_final=1.0, sigma_max=1.0, hit_radius=1.0,
    )
    d = m.to_dict()
    assert set(d) == {
        "missDistance", "impactTime", "impactTimeError", "controlEffort",
        "maxLead", "maxAy", "maxAz", "terminalLead", "terminalAy",
        "terminalAz", "fovViolations", "accelViolations",
    }


def test_a_huge_finite_acceleration_folds_to_an_infinite_effort(tmp_path):
    """1e200 squares past the float range: the fold and
    ``interception_metrics`` score an infinite effort instead of raising,
    and the metrics JSON writes it as null."""
    rows = [_row(t=0.0, r=5.0, a_my=1e200), _row(t=1.0, r=4.0, a_my=1e200)]
    fold = MetricsFold(t_final=1.0, sigma_max=math.inf, hit_radius=1.0)
    for row in rows:
        fold.append(row)
    m = interception_metrics(_log(rows), t_final=1.0, sigma_max=math.inf, hit_radius=1.0)
    assert m == fold.metrics()
    assert m.control_effort == math.inf
    assert m.max_ay == 1e200
    path = tmp_path / "m.json"
    write_metrics_json(m.to_dict(), str(path))
    assert json.loads(path.read_text())["controlEffort"] is None


def test_effort_prefix_monotone_and_subsample_stable(nominal_run):
    """On the nominal engagement log the effort integral grows with the
    prefix length and is insensitive to halving the sample rate."""
    rows = nominal_run.rows
    prev = 0.0
    for end in range(500, len(rows) + 1, 500):
        effort = _effort(_log(rows[:end]))
        assert effort >= prev - 1e-9
        prev = effort
    full = _effort(_log(rows))
    half = _effort(_log(rows[::2] + ([rows[-1]] if (len(rows) - 1) % 2 else [])))
    assert half == pytest.approx(full, rel=1e-3)


def test_compare_report():
    m = interception_metrics(
        _log([_row(t=0.0, r=5.0), _row(t=1.0, r=0.5)]),
        t_final=1.0, sigma_max=1.0, hit_radius=1.0,
    )
    rows = compare_report([("row", 10.0, m)])
    assert len(rows) == 1
    assert rows[0][0] == "row"
    assert rows[0][2] == 10.0
    assert len(REPORT_HEADER) == len(rows[0])

    # A run that never intercepted reports nan, not a crash.
    m_none = interception_metrics(
        _log([_row(t=0.0, r=5.0), _row(t=1.0, r=4.0)]),
        t_final=1.0, sigma_max=1.0, hit_radius=1.0,
    )
    rows = compare_report([("miss", 0.0, m_none)])
    assert math.isnan(rows[0][1])

    with pytest.raises(ValueError, match="zero runs"):
        compare_report([])
