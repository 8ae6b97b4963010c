"""Fixed-step RK4 integration of an engagement under a guidance law.

The engine is law-agnostic: anything shaped like ``GuidanceLaw`` can be
integrated.  Every Runge-Kutta stage re-evaluates the guidance commands, so
the closed loop is integrated as one smooth vector field rather than with a
held command, and each step runs the control chain exactly four times.  The
stages call ``rates(t, y)``, the law's control chain; of the tuple it
returns the engine reads only item 0, the state derivatives, and item 1,
the shaping-feasibility flag.  The full diagnostic record, ``evaluate(t,
y)``, is built only for the rows that are logged (``log_row(t, y, eval)``):
every ``log_stride``-th step plus the terminal or guard-trip row.  Its
items 0 and 1 are the same two values, so on a logged step the record is
built first and serves as stage 1 itself.

Each logged row goes to the row sink given to ``simulate`` (anything with
``append``; a new list by default) as soon as it is built, so a caller can
write or score the rows while the run integrates instead of holding them.

A run terminates when the range first drops to the hit radius
(``intercepted``, with the crossing time interpolated inside the final
step), when the range starts growing again after a closest approach inside
ten hit radii (a near-miss flyby, reported as ``timeout`` with the miss
distance at closest approach), when simulated time exceeds
``t_max_factor`` times the commanded impact time (``timeout``), or when a
numerical guard fires (``guard-tripped``).  A chain that overflows a float
(``OverflowError``, e.g. a huge saturation exponent) ends the run as the
guard ``overflow``.

A run's warnings (an unreachable impact time, the first shaping clamp) are
messages in ``TrajectoryLog.warnings``; no Python warning is raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Protocol

from .errors import ConfigError, GuardTrip
from .logio import LogRow, RowSink, TrajectoryLog


class GuidanceLaw(Protocol):
    """What the engine needs of a law.

    ``rates`` and ``evaluate`` both return a tuple whose item 0 is the state
    derivatives and item 1 the shaping feasibility; the engine reads no
    other item and no field name.  The two raise the same ``GuardTrip``s and
    agree bit-for-bit on those items, so an ``evaluate`` record is RK4 stage
    1 of a logged step and ``rates`` serves every other stage.
    """

    state_size: int
    speed: float
    t_final: float

    def rates(self, t: float, y: tuple[float, ...]) -> tuple: ...

    def evaluate(self, t: float, y: tuple[float, ...]) -> tuple: ...

    def log_row(self, t: float, y: tuple[float, ...], ev: tuple) -> LogRow: ...


@dataclass(frozen=True)
class SimSettings:
    """Integration and logging controls.

    dt            fixed integration step, s
    hit_radius    range at which the target counts as intercepted, m
    t_max_factor  stop (timeout) at t_max_factor * t_final
    log_stride    log every Nth step (first and last steps always logged)
    """

    dt: float = 1e-3
    hit_radius: float = 1.0
    t_max_factor: float = 1.5
    log_stride: int = 10

    def validate(self) -> None:
        if self.dt <= 0.0:
            raise ConfigError(f"integration step dt must be > 0, got {self.dt}", field="dt")
        if self.hit_radius <= 0.0:
            raise ConfigError(f"hit radius must be > 0, got {self.hit_radius}", field="hit_radius")
        if self.t_max_factor <= 1.0:
            raise ConfigError(
                f"t_max_factor must be > 1, got {self.t_max_factor}", field="t_max_factor"
            )
        if self.log_stride < 1:
            raise ConfigError(f"log stride must be >= 1, got {self.log_stride}", field="log_stride")


class RunStatus(str, Enum):
    INTERCEPTED = "intercepted"
    TIMEOUT = "timeout"
    GUARD_TRIPPED = "guard-tripped"


@dataclass
class RunOutcome:
    """Terminal result of one simulated engagement.

    impact_time is the interpolated instant the range crossed the hit
    radius (None unless intercepted); miss_distance is the smallest range
    reached over the whole run.
    """

    status: RunStatus
    impact_time: float | None
    miss_distance: float
    final_time: float
    guard: str | None = None
    message: str = ""


def rk4_step(
    law: GuidanceLaw,
    t: float,
    y: tuple[float, ...],
    dt: float,
    stage1: tuple | None = None,
) -> tuple[tuple[float, ...], bool]:
    """One classical RK4 step; returns the new state and the stage-1 feasibility.

    ``stage1`` is ``law.rates(t, y)`` or ``law.evaluate(t, y)`` when the
    caller already has it; only its items 0 and 1 are read.
    """
    rates = law.rates
    k1, feasible = (rates(t, y) if stage1 is None else stage1)[:2]
    h2 = 0.5 * dt
    k2 = rates(t + h2, [yi + h2 * ki for yi, ki in zip(y, k1)])[0]
    k3 = rates(t + h2, [yi + h2 * ki for yi, ki in zip(y, k2)])[0]
    k4 = rates(t + dt, [yi + dt * ki for yi, ki in zip(y, k3)])[0]
    h6 = dt / 6.0
    y_new = tuple(
        [yi + h6 * (a + 2.0 * b + 2.0 * c + d) for yi, a, b, c, d in zip(y, k1, k2, k3, k4)]
    )
    return y_new, feasible


def simulate(
    law: GuidanceLaw,
    y0: tuple[float, ...],
    settings: SimSettings = SimSettings(),
    sink: RowSink | None = None,
) -> tuple[TrajectoryLog, RunOutcome]:
    """Integrate one engagement to termination.

    The state convention is fixed only in its first component: y[0] must be
    the range to target, which drives the interception and flyby logic.
    Logged rows are appended to ``sink`` in time order; the returned log's
    ``rows`` is that sink (a new list when none is given).
    """
    settings.validate()
    if len(y0) != law.state_size:
        raise ConfigError(f"initial state has {len(y0)} components, law expects {law.state_size}")

    log = TrajectoryLog(rows=[] if sink is None else sink)
    append_row = log.rows.append
    dt = settings.dt
    t_max = settings.t_max_factor * law.t_final
    y = tuple(float(v) for v in y0)

    # Up-front feasibility: flying dead straight must reach the target no
    # later than the commanded impact time, or the timing demand is already
    # unmeetable.
    if y[0] > law.speed * law.t_final:
        log.warnings.append(
            f"range {y[0]:.1f} m exceeds speed*t_final = {law.speed * law.t_final:.1f} m; "
            "impact-time target unreachable"
        )

    r_min, t_r_min = y[0], 0.0
    step, t = 0, 0.0
    last_logged = -1
    warned_infeasible = False
    status, impact, guard = RunStatus.TIMEOUT, None, None

    hit_radius = settings.hit_radius
    log_stride = settings.log_stride
    while True:
        try:
            ev = None
            if step % log_stride == 0:
                ev = law.evaluate(t, y)
                append_row(law.log_row(t, y, ev))
                last_logged = step
            y_new, feasible = rk4_step(law, t, y, dt, ev)
        except (GuardTrip, OverflowError) as exc:
            trip = exc if isinstance(exc, GuardTrip) else GuardTrip("overflow", t, str(exc))
            status, guard, message = RunStatus.GUARD_TRIPPED, trip.guard, str(trip)
            break

        # Report the first clamp only; a run hovering at the feasibility
        # boundary would otherwise flood the warning list, and the logged z1
        # column already carries the step-by-step detail.
        if not feasible and not warned_infeasible:
            warned_infeasible = True
            log.warnings.append(
                f"shaping demand clamped to zero lead at t={t:.3f} s (range-time error < 0)"
            )

        if not all(map(math.isfinite, y_new)):
            # No row for a non-finite state: the log ends with the rows it has.
            return log, RunOutcome(
                RunStatus.GUARD_TRIPPED, None, r_min, t, "nonfinite-state",
                f"non-finite state component after step at t={t:.6f} s",
            )

        step += 1
        t = step * dt
        r_prev, r_new = y[0], y_new[0]
        y = y_new
        if r_new < r_min:
            r_min = r_new
            t_r_min = t

        if r_new <= hit_radius:
            # Linear-in-range crossing instant; the miss is the crossing step's range.
            frac = (r_prev - hit_radius) / (r_prev - r_new)
            impact = t - dt + frac * dt
            status, r_min = RunStatus.INTERCEPTED, r_new
            message = f"range crossed {hit_radius} m at t={impact:.4f} s"
            break
        if r_new > r_prev and r_min < 10.0 * hit_radius:
            message = (
                f"flyby: range increasing at t={t:.4f} s after closest "
                f"approach {r_min:.3f} m at t={t_r_min:.4f} s"
            )
            break
        if t >= t_max:
            message = (
                f"no interception by t={t:.2f} s; closest approach "
                f"{r_min:.2f} m at t={t_r_min:.2f} s"
            )
            break

    # Log the end state (the post-step state, or the pre-step state of a
    # guard trip) unless its row is already there.  After a trip that state
    # evaluated fine on the previous iteration, so a second trip here means
    # the trip is at the step boundary itself and the log just ends early.
    if last_logged != step:
        try:
            append_row(law.log_row(t, y, law.evaluate(t, y)))
        except (GuardTrip, OverflowError):
            pass
    return log, RunOutcome(status, impact, r_min, t, guard, message)
