"""Fixed-step RK4 integration of an engagement under a guidance law.

The engine is law-agnostic: anything shaped like ``GuidanceLaw`` can be
integrated.  Every Runge-Kutta stage re-evaluates the guidance commands, so
the closed loop is integrated as one smooth vector field rather than with a
held command, and each step runs the control chain exactly four times.  The
stages call ``rates(t, y)``, the law's control chain, and read item 0 of its
tuple, the state derivatives.  ``simulate`` makes each step's first stage,
which ``rk4_step`` always takes from its caller, and reads its item 3, the
law's z1, too: ``evaluate(t, y)``, the tuple as the law's named record, on a
logged step, ``rates`` on any other.
Rows (``log_row(t, y, eval)``, which adds sigma, Vz and Vy) are logged every
``log_stride``-th step plus the terminal or guard-trip row.  The
per-component stage arithmetic, each stage state ``y[i] + h * k[i]`` and the
step update, is code generated once per state size on the first step of that
size: the same expressions in the same order as a loop over the components,
so the results are bit-identical, without the loop's per-component overhead.

Each logged row is appended, as soon as it is built, to every row sink
given to ``simulate`` (anything with ``append``), in the order given, so a
caller can write or score the rows while the run integrates instead of
holding them.  ``simulate`` returns only the ``RunOutcome``.  With no sink
the rows are still built, and dropped: a list, a ``TrajectoryWriter`` or a
``MetricsFold`` raises no guard's exception on a row, so whether and when a
run ends depends only on the law and the integrator.

A run terminates when the range first drops to the hit radius
(``intercepted``), when the range starts growing again after a closest
approach inside ten hit radii (a near-miss flyby, reported as ``timeout``
with the closest approach in its message), when simulated time exceeds
``T_MAX_FACTOR`` times the commanded impact time (``timeout``), or when a
numerical guard fires (``guard-tripped``).  A chain that overflows a float
(``OverflowError``, e.g. a huge saturation exponent) ends the run as the
guard ``overflow``, a non-finite new state as ``nonfinite-state``.  No
``log_row`` raises, so a run ends at the same step at every ``log_stride``.
A ``GuardTrip`` carries only the guard's name and a detail; the engine
writes every guard ending's message as ``guard '<name>' tripped at t=<t> s:
<detail>``, where t is the start of the step the run ended on,
``RunOutcome.final_time``, even when a later RK4 stage tripped.

A run's warnings are messages in ``RunOutcome.warnings``; no Python warning
is raised: an unreachable impact time, and the first step whose first stage
carries z1 < 0, where the shaping clamps its demand to zero lead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Protocol

from .errors import ConfigError, GuardTrip
from .logio import LogRow, RowSink

# A run that has not ended by this multiple of the commanded impact time
# ends as a timeout.
T_MAX_FACTOR = 1.5


def fixed_or_exponent(value: float, spec: str) -> str:
    """``value`` in the fixed-point ``spec`` below 1e15 in magnitude and in
    ``.6g`` exponent form from 1e15 on, so a huge value stays short."""
    return f"{value:{spec if abs(value) < 1e15 else '.6g'}}"


class GuidanceLaw(Protocol):
    """What the engine needs of a law.

    ``rates`` returns a tuple: the engine reads item 0, the state
    derivatives, and item 3, the range-time error z1 = v * (t_final - t) -
    r, no field name, and of the law's fields ``speed`` and ``t_final``.
    ``evaluate`` is that tuple, named, and is stage 1 of a logged step;
    ``log_row`` maps it to a row, computing sigma, Vz and Vy, raising nothing.
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

    dt          fixed integration step, s
    hit_radius  range at which the target counts as intercepted, m
    log_stride  log every Nth step (first and last steps always logged)
    """

    dt: float = 1e-3
    hit_radius: float = 1.0
    log_stride: int = 10

    def __post_init__(self) -> None:
        # Written as ranges so that NaN, which fails every comparison, fails too.
        if not 0.0 < self.dt < math.inf or self.dt is True:
            raise ConfigError(
                f"integration step dt must be finite and > 0, got {self.dt}", field="dt"
            )
        if not 0.0 < self.hit_radius < math.inf or self.hit_radius is True:
            raise ConfigError(
                f"hit radius must be finite and > 0, got {self.hit_radius}", field="hit_radius"
            )
        stride = self.log_stride  # NaN, 2.5 and True all pass ``< 1``
        if isinstance(stride, bool) or not isinstance(stride, int) or stride < 1:
            raise ConfigError(f"log stride must be an int >= 1, got {stride}", field="log_stride")


class RunStatus(str, Enum):
    INTERCEPTED = "intercepted"
    TIMEOUT = "timeout"
    GUARD_TRIPPED = "guard-tripped"


@dataclass
class RunOutcome:
    """Terminal result of one simulated engagement, and its warnings.

    The impact time and miss distance are ``metrics.Metrics`` fields,
    folded from the logged rows.
    """

    status: RunStatus
    final_time: float
    guard: str | None = None
    message: str = ""
    warnings: list[str] = field(default_factory=list)


def rk4_step(
    law: GuidanceLaw,
    t: float,
    y: tuple[float, ...],
    h: float,
    stage1: tuple,
) -> tuple[float, ...]:
    """One classical RK4 step of size ``h`` from ``stage1``, the caller's
    ``law.rates(t, y)`` or ``law.evaluate(t, y)``, of which only item 0 is
    read; returns the new state.  ``law.rates`` runs only at the three trial
    states, at t + h/2, t + h/2 and t + h, never at (t, y)."""
    rates = law.rates
    stage, update = _STAGE_ARITHMETIC.get(len(y)) or _stage_arithmetic(len(y))
    k1 = stage1[0]
    h2 = 0.5 * h
    k2 = rates(t + h2, stage(y, h2, k1))[0]
    k3 = rates(t + h2, stage(y, h2, k2))[0]
    k4 = rates(t + h, stage(y, h, k3))[0]
    return update(y, h / 6.0, k1, k2, k3, k4)


# State size -> the (stage, update) pair ``_stage_arithmetic`` generated for it.
_STAGE_ARITHMETIC: dict[int, tuple] = {}


def _stage_arithmetic(n: int) -> tuple:
    """Generate ``stage(y, h, k)``, the stage state ``y[i] + h * k[i]``, and
    ``update(y, h6, k1, k2, k3, k4)``, the step result, for state size ``n``:
    one tuple display each, with no ``zip`` or comprehension frame."""
    stage = "".join(f"y[{i}] + h * k[{i}], " for i in range(n))
    update = "".join(
        f"y[{i}] + h6 * (k1[{i}] + 2.0 * k2[{i}] + 2.0 * k3[{i}] + k4[{i}]), " for i in range(n)
    )
    namespace: dict = {}
    exec(
        f"def stage(y, h, k):\n    return ({stage})\n"
        f"def update(y, h6, k1, k2, k3, k4):\n    return ({update})\n",
        namespace,
    )
    _STAGE_ARITHMETIC[n] = fns = namespace["stage"], namespace["update"]
    return fns


def simulate(
    law: GuidanceLaw,
    y0: tuple[float, ...],
    settings: SimSettings = SimSettings(),
    *sinks: RowSink,
) -> RunOutcome:
    """Integrate one engagement to termination.

    The state convention is fixed only in its first component: y[0] must be
    the range to target, which drives the interception and flyby logic.
    Each logged row, in time order, is appended to every sink in the order
    the sinks are given.  ``settings`` checked its own values when it was
    built.
    """
    if len(y0) != law.state_size:
        raise ConfigError(f"initial state has {len(y0)} components, law expects {law.state_size}")

    appends = tuple(sink.append for sink in sinks)
    warnings: list[str] = []
    dt = settings.dt
    t_max = T_MAX_FACTOR * law.t_final
    y = tuple(float(c) for c in y0)

    # Up-front feasibility: flying dead straight must reach the target no
    # later than the commanded impact time, or the timing demand is already
    # unmeetable.
    budget = law.speed * law.t_final
    if y[0] > budget:
        r0, reach = (fixed_or_exponent(d, ".1f") for d in (y[0], budget))
        warnings.append(f"range {r0} m exceeds speed*t_final = {reach} m; impact-time target unreachable")

    r_min, t_r_min = y[0], 0.0
    step, t = 0, 0.0
    last_logged = -1
    warned_clamp = False
    status, guard = RunStatus.TIMEOUT, None

    hit_radius = settings.hit_radius
    log_stride = settings.log_stride
    while True:
        try:
            if step % log_stride == 0:
                ev = law.evaluate(t, y)
                row = law.log_row(t, y, ev)
                for append in appends:
                    append(row)
                last_logged = step
            else:
                ev = law.rates(t, y)
            y_new = rk4_step(law, t, y, dt, ev)
        except (GuardTrip, OverflowError) as exc:
            guard = exc.guard if isinstance(exc, GuardTrip) else "overflow"
            detail = str(exc)
            break

        # Report the first clamp only (stage 1 carries the law's z1 < 0): a
        # run hovering at the boundary would otherwise flood the list, and
        # the logged z1 column already carries the step-by-step detail.
        if not warned_clamp and ev[3] < 0.0:
            warned_clamp = True
            warnings.append(
                f"shaping demand clamped to zero lead at t={fixed_or_exponent(t, '.3f')} s "
                "(range-time error < 0)"
            )

        if not all(map(math.isfinite, y_new)):
            guard, detail = "nonfinite-state", "non-finite state component after the step"
            break

        step += 1
        t = step * dt
        r_prev, r_new = y[0], y_new[0]
        y = y_new
        if r_new < r_min:
            r_min = r_new
            t_r_min = t

        if r_new <= hit_radius:
            status = RunStatus.INTERCEPTED
            message = (
                f"range crossed {hit_radius} m in the step to t={fixed_or_exponent(t, '.4f')} s"
            )
            break
        if r_new > r_prev and r_min < 10.0 * hit_radius:
            message = (
                f"flyby: range increasing at t={fixed_or_exponent(t, '.4f')} s after closest "
                f"approach {fixed_or_exponent(r_min, '.3f')} m "
                f"at t={fixed_or_exponent(t_r_min, '.4f')} s"
            )
            break
        if t >= t_max:
            message = (
                f"no interception by t={fixed_or_exponent(t, '.2f')} s; closest approach "
                f"{fixed_or_exponent(r_min, '.2f')} m at t={fixed_or_exponent(t_r_min, '.2f')} s"
            )
            break

    if guard is not None:
        status = RunStatus.GUARD_TRIPPED
        message = f"guard '{guard}' tripped at t={fixed_or_exponent(t, '.6f')} s: {detail}"

    # Log the end state (the post-step state, or the pre-step state of a
    # guard trip) unless its row is already there.  After a trip that state
    # is this step's first stage, which the loop made, so a second trip here
    # means that stage itself tripped and the log just ends early.
    if last_logged != step:
        try:
            row = law.log_row(t, y, law.evaluate(t, y))
            for append in appends:
                append(row)
        except (GuardTrip, OverflowError):
            pass
    return RunOutcome(status, t, guard, message, warnings)
