"""Interception and constraint metrics computed from trajectory logs.

Every metric is a fold over the logged rows in time order (``MetricsFold``)
plus a few scenario constants: a run is scored while it integrates, and the
same fold recomputes its metrics from a written CSV without rerunning the
simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .logio import LogRow, TrajectoryLog

# Bound comparisons use a small float tolerance so a value sitting exactly
# on its bound after rounding does not count as a violation.
BOUND_TOL = 1e-9


def _json(key: str, default: object = None):
    """A ``Metrics`` field with its metrics-JSON key."""
    return field(default=default, metadata={"key": key})


@dataclass
class Metrics:
    """Aggregate result of one run.

    Distances m, times s, angles rad, accelerations m/s^2, effort m^2/s^3.
    impact_time and impact_time_error are None when the run never reached
    the hit radius.  ``Metrics()`` scores a run that logged no row (its
    first evaluation tripped a guard): None for every value read from the
    rows, and no violations.
    """

    miss_distance: float | None = _json("missDistance")
    impact_time: float | None = _json("impactTime")
    impact_time_error: float | None = _json("impactTimeError")
    control_effort: float | None = _json("controlEffort")
    max_lead: float | None = _json("maxLead")
    max_ay: float | None = _json("maxAy")
    max_az: float | None = _json("maxAz")
    terminal_lead: float | None = _json("terminalLead")
    terminal_ay: float | None = _json("terminalAy")
    terminal_az: float | None = _json("terminalAz")
    fov_violations: int = _json("fovViolations", 0)
    accel_violations: int = _json("accelViolations", 0)

    def to_dict(self) -> dict[str, object]:
        return {f.metadata["key"]: getattr(self, f.name) for f in fields(self)}


class MetricsFold:
    """The metrics of one run, folded one row at a time.

    ``append`` takes the rows in time order, so a fold is a row sink the
    engine can feed while it integrates; ``metrics()`` scores the rows seen
    so far, and ``Metrics()`` before the first row.  Only the first and last
    rows are kept.  Squares are products, not ``**``, so folding a finite row
    never raises: a huge acceleration folds to an infinite effort.
    """

    def __init__(self, t_final: float, sigma_max: float, hit_radius: float) -> None:
        self.t_final = t_final
        self.sigma_max = sigma_max
        self.hit_radius = hit_radius
        self.first: LogRow | None = None
        self.last: LogRow | None = None
        self.impact_time: float | None = None
        self.effort = 0.0
        self.miss = self.max_lead = self.max_ay = self.max_az = 0.0
        self.fov = self.accel = 0
        self._last_sq = 0.0

    def append(self, row: LogRow) -> None:
        a_my, a_mz = row.a_my, row.a_mz
        lead, ay, az = abs(row.sigma), abs(a_my), abs(a_mz)
        sq = a_my * a_my + a_mz * a_mz
        prev = self.last
        if prev is None:
            self.first = row
            self.miss, self.max_lead, self.max_ay, self.max_az = row.r, lead, ay, az
        else:
            # The impact time is the first crossing of the hit radius,
            # linearly interpolated between the bracketing rows.
            hit = self.hit_radius
            if self.impact_time is None and prev.r > hit >= row.r:
                frac = (prev.r - hit) / (prev.r - row.r)
                self.impact_time = prev.t + frac * (row.t - prev.t)
            self.effort += 0.5 * (sq + self._last_sq) * (row.t - prev.t)
            self.miss = min(self.miss, row.r)
            self.max_lead = max(self.max_lead, lead)
            self.max_ay = max(self.max_ay, ay)
            self.max_az = max(self.max_az, az)
        if lead > self.sigma_max + BOUND_TOL:
            self.fov += 1
        if ay > row.a_y_max + BOUND_TOL or az > row.a_z_max + BOUND_TOL:
            self.accel += 1
        self.last, self._last_sq = row, sq

    def metrics(self) -> Metrics:
        first, last = self.first, self.last
        if first is None or last is None:
            return Metrics()
        # A log that starts inside the hit radius and never crosses it.
        impact_time = self.impact_time
        if impact_time is None and first.r <= self.hit_radius:
            impact_time = first.t
        return Metrics(
            miss_distance=self.miss,
            impact_time=impact_time,
            impact_time_error=None if impact_time is None else impact_time - self.t_final,
            control_effort=self.effort,
            max_lead=self.max_lead,
            max_ay=self.max_ay,
            max_az=self.max_az,
            terminal_lead=abs(last.sigma),
            terminal_ay=abs(last.a_my),
            terminal_az=abs(last.a_mz),
            fov_violations=self.fov,
            accel_violations=self.accel,
        )


def interception_metrics(
    log: TrajectoryLog, t_final: float, sigma_max: float, hit_radius: float
) -> Metrics:
    """Aggregate interception quality and constraint compliance for one run.

    The impact time is the log's range crossing of ``hit_radius``, linearly
    interpolated between the bracketing rows; the control effort is the
    trapezoidal integral of a_my^2 + a_mz^2 (zero a_mz in a planar log);
    violation counts compare each row against the field of view and the
    per-row actuator bounds recorded alongside it.  ``log.rows`` goes
    through the same ``MetricsFold`` that scores a run while it integrates.
    """
    fold = MetricsFold(t_final, sigma_max, hit_radius)
    for row in log.rows:
        fold.append(row)
    return fold.metrics()


# --- Comparison reports ---------------------------------------------------------

REPORT_HEADER = ("label", "impactTime", "initialAngleDeg", "controlEffort")


def _nan_if_none(value: float | None) -> float:
    return math.nan if value is None else value


def compare_report(runs: list[tuple[str, float, Metrics]]) -> list[tuple[str, float, float, float]]:
    """Rows of (label, impact time, initial angle, effort) for a summary CSV,
    from (label, initial angle in degrees, metrics) triples."""
    if not runs:
        raise ValueError("comparison report of zero runs")
    return [
        (label, _nan_if_none(m.impact_time), angle, _nan_if_none(m.control_effort))
        for label, angle, m in runs
    ]
