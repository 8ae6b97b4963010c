"""Integration loop behaviour, exercised with small synthetic laws.

The engine only fixes the state convention in its first component (range),
so tiny hand-built dynamics make every termination path fast and exact:
constant closing for interception timing, a quadratic range for flyby
detection, a harmonic oscillator for integrator accuracy.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace
from typing import NamedTuple

import pytest

from itcsim.config import ScenarioConfig, run_scenario
from itcsim.engine import (
    _STAGE_ARITHMETIC, RunOutcome, RunStatus, SimSettings, _stage_arithmetic, fixed_or_exponent,
    rk4_step, simulate,
)
from itcsim.errors import ConfigError, GuardTrip
from itcsim.logio import LogRow, TrajectoryLog
from itcsim.metrics import Metrics, interception_metrics


def _row(t: float, r: float) -> LogRow:
    vals = {name: 0.0 for name in (
        "theta", "psi", "theta_m", "psi_m", "sigma", "a_my", "a_mz", "b_y", "b_z",
        "z1", "z2", "z3", "z4", "zy", "zz", "a_y_max", "a_z_max",
        "lyapunov_z", "lyapunov_y", "x", "y", "z",
    )}
    return LogRow(t=t, r=r, **vals)


class _Ev(NamedTuple):
    derivs: tuple[float, ...]
    capped: bool
    sigma_d: float
    z1: float


class _MiniLaw:
    """Wrap a plain derivative function as a guidance law.  Its z1 (item 3,
    which the engine reads for its clamp warning) is v * (t_final - t) - r,
    as a real law's is."""

    def __init__(self, f, state_size=1, speed=250.0, t_final=1.0):
        self.f = f
        self.state_size = state_size
        self.speed = speed
        self.t_final = t_final

    def rates(self, t, y):
        return (self.f(t, y), False, 0.0, self.speed * (self.t_final - t) - y[0])

    def evaluate(self, t, y):
        return _Ev(*self.rates(t, y))

    def log_row(self, t, y, ev):
        return _row(t, y[0])


def test_settings_validation():
    SimSettings()
    with pytest.raises(ConfigError, match="dt"):
        SimSettings(dt=0.0)
    with pytest.raises(ConfigError, match="hit radius"):
        SimSettings(hit_radius=0.0)
    # A stride is a whole number of steps, and NaN, 2.5 and True pass ``< 1``.
    for stride in (0, math.nan, 2.5, True):
        with pytest.raises(ConfigError, match="stride") as err:
            SimSettings(log_stride=stride)
        assert err.value.field == "log_stride", stride
    # NaN fails every comparison, so each bound is a range that excludes it.
    for field in ("dt", "hit_radius"):
        # True passes the range as the number 1, so each rule refuses it too.
        for value in (math.nan, math.inf, True):
            with pytest.raises(ConfigError) as err:
                SimSettings(**{field: value})
            assert err.value.field == field, (field, value)


def test_state_size_mismatch():
    law = _MiniLaw(lambda t, y: (-1.0,))
    with pytest.raises(ConfigError, match="components"):
        simulate(law, (5.0, 0.0), SimSettings())


def test_rk4_step_basics():
    # Zero derivative: state unchanged bit-for-bit.
    law = _MiniLaw(lambda t, y: (0.0, 0.0), state_size=2)
    y = (3.5, -2.25)
    assert rk4_step(law, 0.0, y, 0.1, law.rates(0.0, y)) == y
    # Unit derivative advances by exactly one step (up to one rounding).
    law = _MiniLaw(lambda t, y: (1.0,))
    y_new = rk4_step(law, 0.0, (0.0,), 0.125, law.rates(0.0, (0.0,)))
    assert y_new[0] == pytest.approx(0.125, rel=1e-15)
    # Stage 1 is the caller's, and only its item 0 is read: the step calls
    # rates only at the three trial states, never at its start state.
    law = _CountingLaw(lambda t, y: (1.0,))
    assert rk4_step(law, 0.0, (0.0,), 0.125, ((1.0,), "unread")) == y_new
    assert law.rate_calls == 3
    assert law.rate_times == [0.0625, 0.0625, 0.125]


# Specials and subnormals mixed into the seeded stage-arithmetic operands.
STAGE_SPECIALS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-310, 1e-308 / 3)


@pytest.mark.parametrize("n", [1, 3, 4, 7])
def test_generated_stage_arithmetic_matches_the_comprehensions(n):
    """The generated stage and update give, bit for bit, the ``zip``
    comprehensions they replace, NaN, infinities, signed zeros and
    subnormals included; size 1 is the state of the test laws above."""
    stage, update = _stage_arithmetic(n)
    assert _STAGE_ARITHMETIC[n] == (stage, update)
    rng = random.Random(n)
    for _ in range(300):
        y, k1, k2, k3, k4 = (
            tuple(
                rng.choice(STAGE_SPECIALS) if rng.random() < 0.2 else rng.uniform(-1e3, 1e3)
                for _ in range(n)
            )
            for _ in range(5)
        )
        h = rng.choice((1e-3, 0.5, 0.0, -0.0, 5e-324, 1e300, math.inf, math.nan))
        want = tuple([yi + h * ki for yi, ki in zip(y, k1)])
        assert repr(stage(y, h, k1)) == repr(want)
        h6 = h / 6.0
        want = tuple(
            [yi + h6 * (a + 2.0 * b + 2.0 * c + d) for yi, a, b, c, d in zip(y, k1, k2, k3, k4)]
        )
        assert repr(update(y, h6, k1, k2, k3, k4)) == repr(want)


def test_rk4_accuracy_harmonic_oscillator():
    """One simulated spring swing: fourth-order accuracy leaves the state
    within 1e-11 of the closed form after two thousand millisecond steps."""
    law = _MiniLaw(lambda t, y: (y[1], -y[0]), state_size=2)
    y = (1.0, 0.0)
    dt = 1e-3
    for k in range(2000):
        y = rk4_step(law, k * dt, y, dt, law.rates(k * dt, y))
    assert y[0] == pytest.approx(math.cos(2.0), abs=1e-11)
    assert y[1] == pytest.approx(-math.sin(2.0), abs=1e-11)


def _run(law, y0, settings: SimSettings = SimSettings()) -> tuple[list[LogRow], RunOutcome]:
    """``simulate`` with a list sink: the rows it logged, and its outcome."""
    rows: list[LogRow] = []
    return rows, simulate(law, y0, settings, rows)


def _metrics(rows: list[LogRow], law: _MiniLaw, settings: SimSettings) -> Metrics:
    """The run's rows folded as ``run_scenario`` folds them."""
    return interception_metrics(TrajectoryLog(rows), law.t_final, math.inf, settings.hit_radius)


def test_interception_interpolates_the_crossing():
    # Range 10 m closing at 2 m/s crosses a 1 m hit radius at t = 4.5 s.
    law = _MiniLaw(lambda t, y: (-2.0,), t_final=10.0)
    settings = SimSettings(dt=1.0, log_stride=1)
    rows, out = _run(law, (10.0,), settings)
    assert out.status is RunStatus.INTERCEPTED
    assert out.final_time == pytest.approx(5.0, abs=1e-12)
    m = _metrics(rows, law, settings)
    assert m.impact_time == pytest.approx(4.5, abs=1e-12)
    assert m.miss_distance == pytest.approx(0.0, abs=1e-12)
    # Stride 1: a row per step plus the forced final row.
    times = [row.t for row in rows]
    assert times == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    assert rows[-1].r == pytest.approx(0.0, abs=1e-12)


def test_timeout_without_closing():
    # Range never decreases: the loop runs to T_MAX_FACTOR * t_final.
    law = _MiniLaw(lambda t, y: (0.0,), t_final=2.0)
    settings = SimSettings(dt=0.25, log_stride=4)
    rows, out = _run(law, (50.0,), settings)
    assert out.status is RunStatus.TIMEOUT
    assert out.final_time == pytest.approx(3.0, abs=1e-12)
    m = _metrics(rows, law, settings)
    assert m.impact_time is None
    assert m.miss_distance == 50.0
    assert "closest approach" in out.message
    times = [row.t for row in rows]
    assert times == [0.0, 1.0, 2.0, 3.0]
    assert len(set(times)) == len(times)  # forced final row is not duplicated


def test_flyby_stops_the_run_early():
    """A quadratic range dipping to 2 m (inside 10x the hit radius) and
    rising again ends the run at the first diverging step, well before
    t_max, with the closest approach reported as the miss."""
    law = _MiniLaw(lambda t, y: (2.0 * (t - 5.0) / 5.0,), t_final=10.0)
    settings = SimSettings(dt=0.5, log_stride=1)
    rows, out = _run(law, (7.0,), settings)
    assert out.status is RunStatus.TIMEOUT
    assert "flyby" in out.message
    assert out.final_time == pytest.approx(5.5, abs=1e-12)  # not 15 s
    assert _metrics(rows, law, settings).miss_distance == pytest.approx(2.0, abs=1e-9)
    assert rows[-1].t == pytest.approx(5.5, abs=1e-12)


def test_far_flyby_does_not_stop_early():
    """Range increasing far from the target is normal lead-shaping detour
    geometry, not a flyby; the run continues to timeout."""
    law = _MiniLaw(lambda t, y: (2.0 * (t - 1.0),), t_final=2.0)
    out = simulate(law, (100.0,), SimSettings(dt=0.5))
    assert out.status is RunStatus.TIMEOUT
    assert "flyby" not in out.message
    assert out.final_time == pytest.approx(3.0, abs=1e-12)


def test_guard_trip_reports_and_logs_last_state():
    def f(t, y):
        if t >= 2.0:
            raise GuardTrip("test-guard", "synthetic")
        return (-1.0,)

    law = _MiniLaw(f, t_final=10.0)
    settings = SimSettings(dt=0.5, log_stride=100)
    rows, out = _run(law, (100.0,), settings)
    assert out.status is RunStatus.GUARD_TRIPPED
    assert out.guard == "test-guard"
    # The trip happens inside the step starting at t=1.5 (a later RK4 stage
    # reaches t=2.0); the loop reports that step's start time, in the
    # message too.
    assert out.final_time == pytest.approx(1.5, abs=1e-12)
    assert out.message == "guard 'test-guard' tripped at t=1.500000 s: synthetic"
    assert _metrics(rows, law, settings).impact_time is None
    # The last healthy state was captured even with a huge stride.
    assert rows[-1].t == pytest.approx(1.5, abs=1e-12)


def test_nonfinite_state_is_a_guard():
    """The step from t=0.5 reaches a NaN stage at t=1.0.  The run ends as a
    guard trip does: the guard message, stamped at that step's start, and
    that step's healthy start state as the last row, logged at stride 10
    too, where t=0.5 is not a logged step."""
    law = _MiniLaw(lambda t, y: (-1.0,) if t < 1.0 else (math.nan,), t_final=1.0)
    for stride in (1, 10):
        rows, out = _run(law, (10.0,), SimSettings(dt=0.5, log_stride=stride))
        assert out.status is RunStatus.GUARD_TRIPPED
        assert out.guard == "nonfinite-state"
        assert out.final_time == 0.5
        assert out.message == (
            "guard 'nonfinite-state' tripped at t=0.500000 s: "
            "non-finite state component after the step"
        )
        assert [row.t for row in rows] == [0.0, 0.5]


def test_unreachable_target_warns_up_front():
    """300 m to cover in 1 s at 250 m/s cannot meet the impact time, and
    z1 = 250 - 300 is already negative at the first step's start, so the
    run warns twice at t = 0, as a real law's run does."""
    law = _MiniLaw(lambda t, y: (-1.0,), speed=250.0, t_final=1.0)
    out = simulate(law, (300.0,), SimSettings(dt=0.5))
    assert out.warnings == [
        "range 300.0 m exceeds speed*t_final = 250.0 m; impact-time target unreachable",
        "shaping demand clamped to zero lead at t=0.000 s (range-time error < 0)",
    ]
    cfg = ScenarioConfig(initial_x_km=-20.0, dt=0.05)
    assert run_scenario(cfg)[1].warnings == [
        "range 20000.0 m exceeds speed*t_final = 12500.0 m; impact-time target unreachable",
        "shaping demand clamped to zero lead at t=0.000 s (range-time error < 0)",
    ]


def test_end_messages_print_a_huge_range_in_exponent_form():
    """The timeout and flyby messages print ranges and times in fixed point
    below 1e15 and in exponent form from 1e15 on, as the unreachable-impact-
    time warning does, so a 1e120 m start gives a short message."""
    law = _MiniLaw(lambda t, y: (0.0,), t_final=1.0)
    out = simulate(law, (1e120,), SimSettings(dt=0.5))
    assert out.status is RunStatus.TIMEOUT
    assert out.message == "no interception by t=1.50 s; closest approach 1e+120 m at t=0.00 s"
    assert out.warnings[0].startswith("range 1e+120 m exceeds")

    # Closing at 1e119 m/s until t = 0.5 s, then opening: a flyby about
    # 9.6e119 m out (RK4 averages the switch), inside ten hit radii of 1e119 m.
    law = _MiniLaw(lambda t, y: (-1e119 if t < 0.5 else 1e119,), t_final=10.0)
    out = simulate(law, (1e120,), SimSettings(dt=0.25, hit_radius=1e119))
    assert out.message == (
        "flyby: range increasing at t=0.7500 s after closest approach 9.58333e+119 m at t=0.5000 s"
    )

    # Below 1e15 the digits are unchanged.
    out = simulate(_MiniLaw(lambda t, y: (0.0,), t_final=1.0), (123.456,), SimSettings(dt=0.5))
    assert out.message == "no interception by t=1.50 s; closest approach 123.46 m at t=0.00 s"


def test_huge_times_print_in_exponent_form():
    """fig6's tf50-angle10 comparison-law run with time scaled by 1e15
    (``tools/preset_digests.py``'s ``huge-time-clamp-warning``) clamps and
    intercepts past 1e15 s: the clamp warning and the intercept message
    print t in exponent form, as the timeout and flyby messages do, and so
    does a guard trip's, a non-finite state's included."""
    cfg = ScenarioConfig(
        mode="planar", law="baseline", speed=2.5e-13, tf=5e16, azimuth_deg=10.0, k2=1e-15,
        dt=1e12,
    )
    out = simulate(cfg.make_law(), cfg.initial_state(), cfg.sim_settings())
    assert out.status is RunStatus.INTERCEPTED
    assert out.warnings == [
        "shaping demand clamped to zero lead at t=4.7866e+16 s (range-time error < 0)"
    ]
    assert out.message == "range crossed 1.0 m in the step to t=4.9997e+16 s"

    law = _MiniLaw(lambda t, y: (-1e-16,) if t < 2e15 else (math.nan,), t_final=1e16)
    out = simulate(law, (100.0,), SimSettings(dt=1e15))
    assert out.message == (
        "guard 'nonfinite-state' tripped at t=1e+15 s: non-finite state component after the step"
    )

    # The comparison law's overflow trip, time scaled up until it ends past
    # 1e15 s: a guard trip's time prints in exponent form too.
    cfg = ScenarioConfig(
        mode="planar", law="baseline", speed=2.5e-15, tf=5e18, azimuth_deg=10.0, k2=1e-13,
        dt=1e14, log_stride=1,
    )
    out = simulate(cfg.make_law(), cfg.initial_state(), cfg.sim_settings())
    assert out.guard == "overflow"
    assert out.message.startswith("guard 'overflow' tripped at t=7.3e+15 s: ")


def test_infeasible_shaping_warns_once_per_run():
    """The clamp warning fires at the first step that starts with
    z1 = v * (t_final - t) - r < 0 only; later dips would flood the list
    (the z1 column already holds the detail).  Closing at 200 and 300 m/s in
    turn, one second each, against a 250 m/s budget takes z1 from +25 m
    below zero and back again, second after second."""
    law = _MiniLaw(lambda t, y: (-200.0 if int(t) % 2 == 0 else -300.0,), t_final=10.0)
    rows, out = _run(law, (2475.0,), SimSettings(dt=0.25, log_stride=1))
    assert out.status is RunStatus.INTERCEPTED
    negative = [250.0 * (10.0 - row.t) - row.r < 0.0 for row in rows]
    dips = sum(1 for was, now in zip([False, *negative], negative) if now and not was)
    assert dips >= 2
    assert out.warnings == [
        "shaping demand clamped to zero lead at t=0.750 s (range-time error < 0)"
    ]


class _OwnZ1Law(_MiniLaw):
    """A ``_MiniLaw`` whose z1 is ``z1(t, y)`` instead of the paper's."""

    def __init__(self, f, z1, **kw):
        super().__init__(f, **kw)
        self.z1 = z1

    def rates(self, t, y):
        return (self.f(t, y), False, 0.0, self.z1(t, y))


def test_the_clamp_warning_reads_the_laws_own_z1():
    """The clamp warning reads item 3 of each step's first stage, the law's
    own z1, and computes none itself.  A start past the budget, where
    v * (t_final - t) - r < 0 from t = 0, gets only the budget warning when
    the law's z1 stays +inf; a reachable start, where that expression stays
    positive until the interception at t = 1 s, gets the clamp warning at
    t = 0.5 s, where the law's z1 turns negative."""
    law = _OwnZ1Law(lambda t, y: (-1.0,), lambda t, y: math.inf, t_final=1.0)
    out = simulate(law, (300.0,), SimSettings(dt=0.25))
    assert out.warnings == [
        "range 300.0 m exceeds speed*t_final = 250.0 m; impact-time target unreachable"
    ]

    law = _OwnZ1Law(lambda t, y: (-100.0,), lambda t, y: 1.0 if t < 0.5 else -1.0, t_final=2.0)
    out = simulate(law, (100.0,), SimSettings(dt=0.25))
    assert out.status is RunStatus.INTERCEPTED and out.final_time == 1.0
    assert out.warnings == [
        "shaping demand clamped to zero lead at t=0.500 s (range-time error < 0)"
    ]


def test_log_stride_pattern():
    law = _MiniLaw(lambda t, y: (-1.0,), t_final=100.0)
    rows, out = _run(law, (10.0,), SimSettings(dt=1.0, log_stride=3))
    # Steps 0,3,6 logged by stride; interception at step 9 forces the last row.
    assert [row.t for row in rows] == [0.0, 3.0, 6.0, 9.0]
    assert out.status is RunStatus.INTERCEPTED


class _CountingLaw(_MiniLaw):
    """Counts hot-path ``rates`` calls, and the times they came at, and
    diagnostic ``evaluate`` calls."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.rate_calls = 0
        self.rate_times: list[float] = []
        self.eval_calls = 0

    def rates(self, t, y):
        self.rate_calls += 1
        self.rate_times.append(t)
        return super().rates(t, y)

    def evaluate(self, t, y):
        self.eval_calls += 1
        return _Ev(*super().rates(t, y))


def test_diagnostics_only_for_logged_rows():
    """Exactly four chain evaluations per step: ``evaluate`` runs once per
    logged row and supplies stage 1 of a logged step, ``rates`` the rest."""
    law = _CountingLaw(lambda t, y: (-1.0,), t_final=100.0)
    rows, out = _run(law, (55.5,), SimSettings(dt=1.0, log_stride=10))
    assert out.status is RunStatus.INTERCEPTED
    steps = round(out.final_time)
    assert steps == 55
    # Steps 0, 10, ..., 50 by stride plus the terminal row at step 55.
    assert len(rows) == 7
    assert law.eval_calls == len(rows)
    # The six stride-logged steps take stage 1 from their evaluate call.
    assert law.rate_calls + 6 == 4 * steps


def test_logged_step_guard_trip_keeps_one_pre_step_row():
    """A trip in a later stage of a logged step leaves that step's row once."""
    def f(t, y):
        if t >= 2.5:
            raise GuardTrip("test-guard", "synthetic")
        return (-1.0,)

    law = _CountingLaw(f, t_final=10.0)
    rows, out = _run(law, (100.0,), SimSettings(dt=0.5, log_stride=4))
    assert out.status is RunStatus.GUARD_TRIPPED
    assert out.final_time == 2.0
    assert [row.t for row in rows] == [0.0, 2.0]
    assert law.eval_calls == 2


@pytest.mark.parametrize("stride, times", [(3, [0.0, 1.5]), (4, [0.0])])
def test_guard_trip_at_step_start_ends_the_log_at_the_last_row(stride, times):
    """A trip at a step's own start state (stage 1 of the step from t=2.0;
    stage 4 of the step before reaches t=2.0 with a larger u and passes)
    trips again when the end row is evaluated; the second trip is dropped
    and the log ends at the last row logged before it.  Stride 3 trips in
    ``rates``, stride 4 in the logged step's own ``evaluate``."""
    def f(t, y):
        if t >= 2.0 and y[1] < 7.4:
            raise GuardTrip("test-guard", "synthetic")
        return (-1.0, y[1])

    law = _CountingLaw(f, state_size=2, t_final=10.0)
    rows, out = _run(law, (100.0, 1.0), SimSettings(dt=0.5, log_stride=stride))
    assert out.status is RunStatus.GUARD_TRIPPED
    assert out.guard == "test-guard"
    assert out.final_time == 2.0
    assert [row.t for row in rows] == times
    # One evaluate per logged row, the tripping one at step 4 (stride 4 only)
    # and the end-row attempt.
    assert law.eval_calls == len(times) + 1 + (stride == 4)


def test_a_laws_guard_trip_prints_the_step_start():
    """A real law's range-floor trip comes in an RK4 stage past the step
    start; its message prints the step start, which is the run's final time
    and the time of its last row, as the other end messages do."""
    cfg = ScenarioConfig(
        mode="planar", tf=2.0, initial_x_km=-0.5, elevation_deg=0.0, azimuth_deg=0.0,
        hit_radius=1e-9,
    )
    rows, out, _ = run_scenario(cfg)
    assert out.guard == "range-floor"
    stamp = fixed_or_exponent(out.final_time, ".6f")
    assert stamp == "1.999000"
    assert out.message.startswith(f"guard 'range-floor' tripped at t={stamp} s: r=")
    assert rows[-1].t == out.final_time


@pytest.mark.parametrize("stride, times", [(3, [0.0, 1.5]), (4, [0.0])])
def test_overflow_ends_the_run_as_a_guard_trip(stride, times):
    """A chain that overflows a float ends the run as the guard ``overflow``
    with the rows it has, like a ``GuardTrip`` at the same state: the
    end-row re-evaluation overflows again and is dropped."""
    def f(t, y):
        if t >= 2.0 and y[1] < 7.4:
            return (-1.0, 1e300**2)
        return (-1.0, y[1])

    law = _CountingLaw(f, state_size=2, t_final=10.0)
    rows, out = _run(law, (100.0, 1.0), SimSettings(dt=0.5, log_stride=stride))
    assert out.status is RunStatus.GUARD_TRIPPED
    assert out.guard == "overflow"
    assert out.message.startswith("guard 'overflow' tripped at t=2.000000 s: ")
    assert out.final_time == 2.0
    assert [row.t for row in rows] == times
    assert law.eval_calls == len(times) + 1 + (stride == 4)


def _hex_row(row: LogRow) -> list[str]:
    return [v.hex() for v in row.values()]


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
        runs[stride] = _run(cfg.make_law(), cfg.initial_state(), cfg.sim_settings())
    (dense, out_dense), (sparse, out_sparse) = runs[1], runs[7]
    assert out_dense.status is RunStatus.TIMEOUT
    assert repr(out_dense) == repr(out_sparse)
    assert out_dense.warnings == out_sparse.warnings and len(out_dense.warnings) == 1
    steps = len(dense) - 1  # stride 1: a row per step plus the terminal row
    assert len(sparse) == (steps - 1) // 7 + 2
    for i, row in enumerate(sparse[:-1]):
        assert _hex_row(row) == _hex_row(dense[7 * i])
    assert _hex_row(sparse[-1]) == _hex_row(dense[-1])


@pytest.mark.parametrize("stride", [1, 7, 13])
def test_a_run_ends_where_it_would_whatever_its_sinks(stride):
    """The comparison law at k2 = 1e4 (``tools/preset_digests.py``'s
    ``baseline-k2-overflow-stride1`` and ``-stride7``): an RK4 stage of the
    step from t = 0.059 s demands an acceleration past ERROR_MAX.
    ``simulate`` with no sink and with a list, and ``run_scenario``, which
    also folds the metrics, all end there as the ``overflow`` guard, at every
    log stride.  Each stride logs the stride-1 rows of the steps it logs (60
    rows at stride 1) and the end state at 0.059 s."""
    cfg = ScenarioConfig(mode="planar", law="baseline", k2=10000.0, log_stride=stride)
    bare = simulate(cfg.make_law(), cfg.initial_state(), cfg.sim_settings())
    rows, listed = _run(cfg.make_law(), cfg.initial_state(), cfg.sim_settings())
    scored_rows, scored, mets = run_scenario(cfg)
    assert bare == listed == scored
    assert (bare.status, bare.guard) == (RunStatus.GUARD_TRIPPED, "overflow")
    assert bare.final_time == pytest.approx(0.059, abs=1e-12)
    assert bare.message == (
        "guard 'overflow' tripped at t=0.059000 s: acceleration demand -1.054e+154"
    )
    assert scored_rows == rows
    assert math.isfinite(mets.control_effort)

    every_rows, every = _run(
        cfg.make_law(), cfg.initial_state(), replace(cfg.sim_settings(), log_stride=1)
    )
    assert len(every_rows) == 60
    assert every == bare
    assert rows == [every_rows[step] for step in (*range(0, 59, stride), 59)]
