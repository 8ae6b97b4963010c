"""Trajectory CSV and metrics JSON round-trips.

Floats are written with 17 significant digits, so a write/read cycle must
reproduce every value bit-for-bit.
"""

from __future__ import annotations

import csv
import io
import json
import math

import pytest

from itcsim.logio import (
    COLUMNS,
    LogRow,
    TrajectoryLog,
    read_trajectory_csv,
    write_metrics_json,
    write_report_csv,
    write_trajectory_csv,
)


def _row(**overrides) -> LogRow:
    vals = {name: 0.0 for name in (
        "t", "r", "theta", "psi", "theta_m", "psi_m", "sigma", "a_my", "a_mz",
        "b_y", "b_z", "z1", "z2", "z3", "z4", "zy", "zz", "a_y_max", "a_z_max",
        "lyapunov_z", "lyapunov_y", "x", "y", "z",
    )}
    vals.update(overrides)
    return LogRow(**vals)


def test_columns_match_row_values():
    assert len(COLUMNS) == 24
    row = _row(t=1.0, r=2.0, z=24.0)
    assert len(row.values()) == len(COLUMNS)
    assert row.values()[0] == 1.0
    assert row.values()[-1] == 24.0
    assert row.values() is row  # the row is its own CSV tuple


def test_trajectory_csv_bytes_match_csv_writer(tmp_path):
    """The row writer produces exactly the bytes of csv.writer on the same
    17-digit strings, non-finite values and signed zeros included."""
    rows = [
        _row(t=0.0, r=math.inf, theta=-math.inf, psi=math.nan, sigma=-0.0, z1=5e-324),
        _row(t=1e-3, r=9.006104071832581e15, x=-12345.678901234567, zy=1.0 / 3.0),
    ]
    path = tmp_path / "traj.csv"
    write_trajectory_csv(TrajectoryLog(rows=rows), str(path))
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(COLUMNS)
    for row in rows:
        writer.writerow([f"{v:.17g}" for v in row.values()])
    assert path.read_bytes() == expected.getvalue().encode()


def test_trajectory_roundtrip_is_bit_exact(tmp_path):
    awkward = [
        _row(t=0.0, r=1.0 / 3.0, sigma=1e-17, z1=-0.0, x=12345.678901234567),
        _row(t=2.0**-40, r=9.006104071832581e15, theta=-math.pi, zy=5e-324),
    ]
    log = TrajectoryLog(rows=awkward)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(log, str(path))
    back = read_trajectory_csv(str(path))
    assert len(back.rows) == len(log.rows)
    for orig, got in zip(log.rows, back.rows):
        for a, b in zip(orig.values(), got.values()):
            assert a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def test_trajectory_header_is_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="columns"):
        read_trajectory_csv(str(path))


def test_metrics_json_nonfinite_to_null(tmp_path):
    path = tmp_path / "m.json"
    write_metrics_json(
        {
            "impactTime": math.nan,
            "effort": math.inf,
            "nested": {"v": -math.inf, "ok": 1.5},
            "list": [1.0, math.nan, "s"],
            "label": "x",
        },
        str(path),
    )
    text = path.read_text()
    assert text.endswith("\n")
    data = json.loads(text)
    assert data["impactTime"] is None
    assert data["effort"] is None
    assert data["nested"]["v"] is None
    assert data["nested"]["ok"] == 1.5
    assert data["list"] == [1.0, None, "s"]
    assert data["label"] == "x"
    # Keys are sorted for diff-stable output.
    assert list(data.keys()) == sorted(data.keys())


def test_report_csv(tmp_path):
    path = tmp_path / "report.csv"
    write_report_csv(
        str(path),
        ("label", "impactTime", "effort"),
        [("a", 49.996000004087854, 26373.5), ("b", math.nan, 0.0)],
    )
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "label,impactTime,effort"
    assert lines[1].split(",")[0] == "a"
    # Full precision floats survive.
    assert float(lines[1].split(",")[1]) == 49.996000004087854
    assert lines[2].split(",")[1] == "nan"
