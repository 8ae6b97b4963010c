"""Trajectory log schema and file I/O (CSV trajectories, JSON metrics).

Every run, 3D or planar, logs the same row schema so downstream tooling can
treat all trajectories uniformly; a planar run simply leaves the columns it
has no use for at zero.  Angles are radians, distances metres, accelerations
m/s^2.  Floats are written with 17 significant digits so a written-and-reread
trajectory is bit-identical.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Protocol

class LogRow(NamedTuple):
    """One sampled instant of a run, in the shared column schema: the tuple
    is one CSV row, under the header ``COLUMNS``."""

    t: float
    r: float
    theta: float
    psi: float
    theta_m: float
    psi_m: float
    sigma: float
    a_my: float
    a_mz: float
    b_y: float
    b_z: float
    z1: float
    z2: float
    z3: float
    z4: float
    zy: float
    zz: float
    a_y_max: float
    a_z_max: float
    lyapunov_z: float
    lyapunov_y: float
    x: float
    y: float
    z: float

    def values(self) -> LogRow:
        """The row itself; kept for callers written against the record
        form, such as ``perfbench/run.py`` reading re-read rows."""
        return self


# The trajectory CSV header: the ``LogRow`` field names, with these written
# in the column style.  Vz/Vy are the quadratic error forms of the vertical
# and horizontal guidance channels; x/y/z the inertial interceptor position.
_HEADER = {
    "theta_m": "thetaM",
    "psi_m": "psiM",
    "a_my": "aMy",
    "a_mz": "aMz",
    "b_y": "by",
    "b_z": "bz",
    "a_y_max": "aYMax",
    "a_z_max": "aZMax",
    "lyapunov_z": "Vz",
    "lyapunov_y": "Vy",
}
COLUMNS = tuple(_HEADER.get(f, f) for f in LogRow._fields)


class RowSink(Protocol):
    """Where a run's rows go as the engine produces them: a list keeps
    them, a ``TrajectoryWriter`` writes them, a ``MetricsFold`` scores them."""

    def append(self, row: LogRow) -> None: ...


@dataclass
class TrajectoryLog:
    """Sampled trajectory of one run plus any warnings it raised.

    ``rows`` is the sink the rows went to: a list of them unless the run
    was given another sink.
    """

    rows: list[LogRow] | RowSink = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


# --- CSV ----------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# One trajectory row as csv.writer would write it: formatted numbers never
# need quoting, so a single format string gives the same bytes, faster.
_ROW_FORMAT = ",".join(["{:.17g}"] * len(COLUMNS)) + "\r\n"


class TrajectoryWriter:
    """A row sink that writes the trajectory CSV as the rows arrive.

    Opening the file writes the header, so an unwritable path fails before
    any row is produced.  Each row is written through the file's own
    buffer, so the writer holds no rows.  Leaving the ``with`` block closes
    the file.
    """

    def __init__(self, path: str) -> None:
        self._fh = open(path, "w", newline="")
        self._fh.write(",".join(COLUMNS) + "\r\n")

    def append(self, row: LogRow) -> None:
        self._fh.write(_ROW_FORMAT.format(*row))

    def __enter__(self) -> TrajectoryWriter:
        return self

    def __exit__(self, *exc: object) -> None:
        self._fh.close()


def write_trajectory_csv(log: TrajectoryLog, path: str) -> None:
    """Write the trajectory rows of an in-memory log in the shared column schema."""
    with TrajectoryWriter(path) as out:
        for row in log.rows:
            out.append(row)


def read_trajectory_csv(path: str) -> TrajectoryLog:
    """Read a trajectory CSV written by :func:`write_trajectory_csv`."""
    log = TrajectoryLog()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != COLUMNS:
            raise ValueError(f"unexpected trajectory columns: {header}")
        for rec in reader:
            log.rows.append(LogRow._make(map(float, rec)))
    return log


def write_report_csv(path: str, header: Iterable[str], rows: Iterable[Iterable[object]]) -> None:
    """Write a small summary table (batch reports)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])


# --- JSON ---------------------------------------------------------------------


def write_metrics_json(metrics: dict[str, object], path: str) -> None:
    """Write a metrics mapping as pretty JSON; non-finite floats become null."""

    def clean(obj: object) -> object:
        if isinstance(obj, float) and not math.isfinite(obj):
            return None
        if isinstance(obj, dict):
            return {k: clean(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [clean(v) for v in obj]
        return obj

    with open(path, "w") as fh:
        json.dump(clean(metrics), fh, indent=2, sort_keys=True)
        fh.write("\n")
