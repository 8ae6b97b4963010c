"""Integration loop behaviour, exercised with small synthetic laws.

The engine only fixes the state convention in its first component (range),
so tiny hand-built dynamics make every termination path fast and exact:
constant closing for interception timing, a quadratic range for flyby
detection, a harmonic oscillator for integrator accuracy.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple

import pytest

from itcsim.config import ScenarioConfig
from itcsim.engine import RunStatus, SimSettings, rk4_step, simulate
from itcsim.errors import (
    ConfigError,
    GuardTrip,
    InfeasibleScenarioWarning,
    InfeasibleShapingWarning,
)
from itcsim.logio import LogRow


def _row(t: float, r: float) -> LogRow:
    vals = {name: 0.0 for name in (
        "theta", "psi", "theta_m", "psi_m", "sigma", "a_my", "a_mz", "b_y", "b_z",
        "z1", "z2", "z3", "z4", "zy", "zz", "a_y_max", "a_z_max",
        "lyapunov_z", "lyapunov_y", "x", "y", "z",
    )}
    return LogRow(t=t, r=r, **vals)


class _Ev(NamedTuple):
    derivs: tuple[float, ...]
    feasible: bool = True


class _MiniLaw:
    """Wrap a plain derivative function as a guidance law."""

    def __init__(self, f, state_size=1, speed=250.0, t_final=1.0, feasible=None):
        self.f = f
        self.state_size = state_size
        self.speed = speed
        self.t_final = t_final
        self.feasible_fn = feasible

    def rates(self, t, y):
        feasible = True if self.feasible_fn is None else self.feasible_fn(t)
        return self.f(t, y), feasible

    def evaluate(self, t, y):
        return _Ev(*self.rates(t, y))

    def log_row(self, t, y, ev):
        return _row(t, y[0])


def test_settings_validation():
    SimSettings().validate()
    with pytest.raises(ConfigError, match="dt"):
        SimSettings(dt=0.0).validate()
    with pytest.raises(ConfigError, match="hit radius"):
        SimSettings(hit_radius=0.0).validate()
    with pytest.raises(ConfigError, match="t_max_factor"):
        SimSettings(t_max_factor=1.0).validate()
    with pytest.raises(ConfigError, match="stride"):
        SimSettings(log_stride=0).validate()


def test_state_size_mismatch():
    law = _MiniLaw(lambda t, y: (-1.0,))
    with pytest.raises(ConfigError, match="components"):
        simulate(law, (5.0, 0.0), SimSettings())


def test_rk4_step_basics():
    # Zero derivative: state unchanged bit-for-bit.
    law = _MiniLaw(lambda t, y: (0.0, 0.0), state_size=2)
    y_new, feasible = rk4_step(law, 0.0, (3.5, -2.25), 0.1)
    assert y_new == (3.5, -2.25)
    assert feasible is True
    # The returned flag is the stage-1 feasibility.
    law = _MiniLaw(lambda t, y: (0.0,), feasible=lambda t: t > 0.0)
    assert rk4_step(law, 0.0, (1.0,), 0.1)[1] is False
    # Unit derivative advances by exactly one step (up to one rounding).
    law = _MiniLaw(lambda t, y: (1.0,))
    y_new, _ = rk4_step(law, 0.0, (0.0,), 0.125)
    assert y_new[0] == pytest.approx(0.125, rel=1e-15)
    # A supplied stage 1 replaces the first rates call, flag included.
    law = _CountingLaw(lambda t, y: (1.0,))
    assert rk4_step(law, 0.0, (0.0,), 0.125, ((1.0,), False)) == (y_new, False)
    assert law.rate_calls == 3


def test_rk4_accuracy_harmonic_oscillator():
    """One simulated spring swing: fourth-order accuracy leaves the state
    within 1e-11 of the closed form after two thousand millisecond steps."""
    law = _MiniLaw(lambda t, y: (y[1], -y[0]), state_size=2)
    y = (1.0, 0.0)
    dt = 1e-3
    for k in range(2000):
        y, _ = rk4_step(law, k * dt, y, dt)
    assert y[0] == pytest.approx(math.cos(2.0), abs=1e-11)
    assert y[1] == pytest.approx(-math.sin(2.0), abs=1e-11)


def test_interception_interpolates_the_crossing():
    # Range 10 m closing at 2 m/s crosses a 1 m hit radius at t = 4.5 s.
    law = _MiniLaw(lambda t, y: (-2.0,), t_final=10.0)
    log, out = simulate(law, (10.0,), SimSettings(dt=1.0, log_stride=1))
    assert out.status is RunStatus.INTERCEPTED
    assert out.impact_time == pytest.approx(4.5, abs=1e-12)
    assert out.final_time == pytest.approx(5.0, abs=1e-12)
    assert out.miss_distance == pytest.approx(0.0, abs=1e-12)
    # Stride 1: a row per step plus the forced final row.
    times = [row.t for row in log.rows]
    assert times == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    assert log.rows[-1].r == pytest.approx(0.0, abs=1e-12)


def test_timeout_without_closing():
    # Range never decreases: the loop runs to t_max_factor * t_final.
    law = _MiniLaw(lambda t, y: (0.0,), t_final=2.0)
    log, out = simulate(law, (50.0,), SimSettings(dt=0.25, log_stride=4))
    assert out.status is RunStatus.TIMEOUT
    assert out.impact_time is None
    assert out.final_time == pytest.approx(3.0, abs=1e-12)
    assert out.miss_distance == 50.0
    assert "closest approach" in out.message
    times = [row.t for row in log.rows]
    assert times == [0.0, 1.0, 2.0, 3.0]
    assert len(set(times)) == len(times)  # forced final row is not duplicated


def test_flyby_stops_the_run_early():
    """A quadratic range dipping to 2 m (inside 10x the hit radius) and
    rising again ends the run at the first diverging step, well before
    t_max, with the closest approach reported as the miss."""
    law = _MiniLaw(lambda t, y: (2.0 * (t - 5.0) / 5.0,), t_final=10.0)
    log, out = simulate(law, (7.0,), SimSettings(dt=0.5, log_stride=1))
    assert out.status is RunStatus.TIMEOUT
    assert "flyby" in out.message
    assert out.final_time == pytest.approx(5.5, abs=1e-12)  # not 15 s
    assert out.miss_distance == pytest.approx(2.0, abs=1e-9)
    assert log.rows[-1].t == pytest.approx(5.5, abs=1e-12)


def test_far_flyby_does_not_stop_early():
    """Range increasing far from the target is normal lead-shaping detour
    geometry, not a flyby; the run continues to timeout."""
    law = _MiniLaw(lambda t, y: (2.0 * (t - 1.0),), t_final=2.0)
    log, out = simulate(law, (100.0,), SimSettings(dt=0.5))
    assert out.status is RunStatus.TIMEOUT
    assert "flyby" not in out.message
    assert out.final_time == pytest.approx(3.0, abs=1e-12)


def test_guard_trip_reports_and_logs_last_state():
    def f(t, y):
        if t >= 2.0:
            raise GuardTrip("test-guard", t, "synthetic")
        return (-1.0,)

    law = _MiniLaw(f, t_final=10.0)
    log, out = simulate(law, (100.0,), SimSettings(dt=0.5, log_stride=100))
    assert out.status is RunStatus.GUARD_TRIPPED
    assert out.guard == "test-guard"
    # The trip happens inside the step starting at t=1.5 (a later RK4 stage
    # reaches t=2.0); the loop reports that step's start time.
    assert out.final_time == pytest.approx(1.5, abs=1e-12)
    assert out.impact_time is None
    # The last healthy state was captured even with a huge stride.
    assert log.rows[-1].t == pytest.approx(1.5, abs=1e-12)


def test_nonfinite_state_is_a_guard():
    law = _MiniLaw(lambda t, y: (math.nan,), t_final=1.0)
    log, out = simulate(law, (10.0,), SimSettings(dt=0.5))
    assert out.status is RunStatus.GUARD_TRIPPED
    assert out.guard == "nonfinite-state"


def test_unreachable_target_warns_up_front():
    # 300 m to cover in 1 s at 250 m/s cannot meet the impact time.
    law = _MiniLaw(lambda t, y: (-1.0,), speed=250.0, t_final=1.0)
    with pytest.warns(InfeasibleScenarioWarning, match="unreachable"):
        log, out = simulate(law, (300.0,), SimSettings(dt=0.5))
    assert len(log.warnings) == 1
    assert "unreachable" in log.warnings[0]


def test_infeasible_shaping_warns_once_per_run():
    """The clamp warning fires on the first feasible->infeasible transition
    only; later flickers would flood the list (the z1 column already holds
    the detail)."""
    law = _MiniLaw(
        lambda t, y: (0.0,),
        t_final=4.0,
        speed=250.0,
        feasible=lambda t: not (1.0 <= t < 2.0 or 3.0 <= t < 4.0),
    )
    with pytest.warns(InfeasibleShapingWarning):
        log, out = simulate(law, (40.0,), SimSettings(dt=0.25))
    assert out.status is RunStatus.TIMEOUT
    assert len(log.warnings) == 1
    assert "clamped" in log.warnings[0]


def test_log_stride_pattern():
    law = _MiniLaw(lambda t, y: (-1.0,), t_final=100.0)
    log, out = simulate(law, (10.0,), SimSettings(dt=1.0, log_stride=3))
    # Steps 0,3,6 logged by stride; interception at step 9 forces the last row.
    assert [row.t for row in log.rows] == [0.0, 3.0, 6.0, 9.0]
    assert out.status is RunStatus.INTERCEPTED


class _CountingLaw(_MiniLaw):
    """Counts hot-path ``rates`` calls and diagnostic ``evaluate`` calls."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.rate_calls = 0
        self.eval_calls = 0

    def rates(self, t, y):
        self.rate_calls += 1
        return super().rates(t, y)

    def evaluate(self, t, y):
        self.eval_calls += 1
        return _Ev(*super().rates(t, y))


def test_diagnostics_only_for_logged_rows():
    """Exactly four chain evaluations per step: ``evaluate`` runs once per
    logged row and supplies stage 1 of a logged step, ``rates`` the rest."""
    law = _CountingLaw(lambda t, y: (-1.0,), t_final=100.0)
    log, out = simulate(law, (55.5,), SimSettings(dt=1.0, log_stride=10))
    assert out.status is RunStatus.INTERCEPTED
    steps = round(out.final_time)
    assert steps == 55
    # Steps 0, 10, ..., 50 by stride plus the terminal row at step 55.
    assert len(log.rows) == 7
    assert law.eval_calls == len(log.rows)
    # The six stride-logged steps take stage 1 from their evaluate call.
    assert law.rate_calls + 6 == 4 * steps


def test_logged_step_guard_trip_keeps_one_pre_step_row():
    """A trip in a later stage of a logged step leaves that step's row once."""
    def f(t, y):
        if t >= 2.5:
            raise GuardTrip("test-guard", t, "synthetic")
        return (-1.0,)

    law = _CountingLaw(f, t_final=10.0)
    log, out = simulate(law, (100.0,), SimSettings(dt=0.5, log_stride=4))
    assert out.status is RunStatus.GUARD_TRIPPED
    assert out.final_time == 2.0
    assert [row.t for row in log.rows] == [0.0, 2.0]
    assert law.eval_calls == 2


def _hex_row(row: LogRow) -> list[str]:
    return [v.hex() for v in row.values()]


@pytest.mark.filterwarnings("ignore::itcsim.errors.InfeasibleShapingWarning")
def test_logging_does_not_perturb_the_trajectory():
    """Stage 1 of a logged step comes from ``evaluate``, of any other step
    from ``rates``; the two agree bit-for-bit, so a short 3D engagement
    ends the same and logs the same bits whatever the stride.  At 0.5 km
    the law runs through the blend layer into the clamp and times out, so
    the comparison covers both demand regimes and the forced final row."""
    base = ScenarioConfig(
        tf=2.3, initial_x_km=-0.5, elevation_deg=-10.0, azimuth_deg=10.0,
        bound_mode="roll-coupled",
    )
    runs = {}
    for stride in (1, 7):
        cfg = replace(base, log_stride=stride)
        runs[stride] = simulate(cfg.make_law(), cfg.initial_state(), cfg.sim_settings())
    (dense, out_dense), (sparse, out_sparse) = runs[1], runs[7]
    assert out_dense.status is RunStatus.TIMEOUT
    assert repr(out_dense) == repr(out_sparse)
    assert dense.warnings == sparse.warnings and len(dense.warnings) == 1
    steps = len(dense.rows) - 1  # stride 1: a row per step plus the terminal row
    assert len(sparse.rows) == (steps - 1) // 7 + 2
    for i, row in enumerate(sparse.rows[:-1]):
        assert _hex_row(row) == _hex_row(dense.rows[7 * i])
    assert _hex_row(sparse.rows[-1]) == _hex_row(dense.rows[-1])


def test_log_meta_records_law_and_dt():
    law = _MiniLaw(lambda t, y: (-1.0,), t_final=100.0)
    log, _ = simulate(law, (5.0,), SimSettings(dt=1.0))
    assert log.meta["law"] == "_MiniLaw"
    assert log.meta["dt"] == 1.0
