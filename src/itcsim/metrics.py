"""Interception and constraint metrics computed from trajectory logs.

Everything here is a pure function of a log (plus a few scenario constants),
so metrics can be recomputed from a written CSV without rerunning the
simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .logio import TrajectoryLog

# Bound comparisons use a small float tolerance so a value sitting exactly
# on its bound after rounding does not count as a violation.
BOUND_TOL = 1e-9


def _json(key: str):
    """A ``Metrics`` field with its metrics-JSON key."""
    return field(metadata={"key": key})


@dataclass
class Metrics:
    """Aggregate result of one run.

    Distances m, times s, angles rad, accelerations m/s^2, effort m^2/s^3.
    impact_time and impact_time_error are None when the run never reached
    the hit radius.
    """

    miss_distance: float = _json("missDistance")
    impact_time: float | None = _json("impactTime")
    impact_time_error: float | None = _json("impactTimeError")
    control_effort: float = _json("controlEffort")
    max_lead: float = _json("maxLead")
    max_ay: float = _json("maxAy")
    max_az: float = _json("maxAz")
    terminal_lead: float = _json("terminalLead")
    terminal_ay: float = _json("terminalAy")
    terminal_az: float = _json("terminalAz")
    fov_violations: int = _json("fovViolations")
    accel_violations: int = _json("accelViolations")

    def to_dict(self) -> dict[str, object]:
        return {f.metadata["key"]: getattr(self, f.name) for f in fields(self)}


def control_effort(log: TrajectoryLog) -> float:
    """Trapezoidal integral of the squared lateral acceleration, m^2/s^3.

    Planar logs keep the vertical channel at zero, so the 3D sum-of-squares
    form covers both modes.
    """
    if not log.rows:
        raise ValueError("control effort of an empty log")
    total = 0.0
    prev = log.rows[0]
    prev_sq = prev.a_my**2 + prev.a_mz**2
    for row in log.rows[1:]:
        sq = row.a_my**2 + row.a_mz**2
        total += 0.5 * (sq + prev_sq) * (row.t - prev.t)
        prev, prev_sq = row, sq
    return total


def interception_metrics(
    log: TrajectoryLog, t_final: float, sigma_max: float, hit_radius: float
) -> Metrics:
    """Aggregate interception quality and constraint compliance for one run.

    The impact time is the log's range crossing of ``hit_radius``, linearly
    interpolated between the bracketing rows; violation counts compare each
    row against the field of view and the per-row actuator bounds recorded
    alongside it.
    """
    if not log.rows:
        raise ValueError("metrics of an empty log")

    impact_time: float | None = None
    prev = log.rows[0]
    for row in log.rows[1:]:
        if prev.r > hit_radius >= row.r:
            frac = (prev.r - hit_radius) / (prev.r - row.r)
            impact_time = prev.t + frac * (row.t - prev.t)
            break
        prev = row
    if impact_time is None and log.rows[0].r <= hit_radius:
        impact_time = log.rows[0].t

    fov = 0
    accel = 0
    for row in log.rows:
        if abs(row.sigma) > sigma_max + BOUND_TOL:
            fov += 1
        if abs(row.a_my) > row.a_y_max + BOUND_TOL or abs(row.a_mz) > row.a_z_max + BOUND_TOL:
            accel += 1

    last = log.rows[-1]
    return Metrics(
        miss_distance=min(row.r for row in log.rows),
        impact_time=impact_time,
        impact_time_error=None if impact_time is None else impact_time - t_final,
        control_effort=control_effort(log),
        max_lead=max(abs(row.sigma) for row in log.rows),
        max_ay=max(abs(row.a_my) for row in log.rows),
        max_az=max(abs(row.a_mz) for row in log.rows),
        terminal_lead=abs(last.sigma),
        terminal_ay=abs(last.a_my),
        terminal_az=abs(last.a_mz),
        fov_violations=fov,
        accel_violations=accel,
    )


# --- Comparison reports ---------------------------------------------------------

REPORT_HEADER = ("label", "impactTime", "initialAngleDeg", "controlEffort")


def compare_report(runs: list[tuple[str, float, Metrics]]) -> list[tuple[str, float, float, float]]:
    """Rows of (label, impact time, initial angle, effort) for a summary CSV,
    from (label, initial angle in degrees, metrics) triples."""
    if not runs:
        raise ValueError("comparison report of zero runs")
    return [
        (label, math.nan if m.impact_time is None else m.impact_time, angle, m.control_effort)
        for label, angle, m in runs
    ]
