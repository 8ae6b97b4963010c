"""``itcsim run`` writes and scores each row while the run integrates.

The CLI streams rows into a ``TrajectoryWriter`` and a ``MetricsFold``
instead of keeping the trajectory.  These tests pin that the streamed
outputs are exactly those of the in-memory path (``run_scenario`` plus
``write_trajectory_csv``, and ``interception_metrics`` on the re-read CSV),
and that the memory a run needs does not grow with its length.
"""

from __future__ import annotations

import json
import math
import tracemalloc

import pytest

from itcsim.cli import main
from itcsim.config import load_config, run_scenario
from itcsim.logio import read_trajectory_csv, write_trajectory_csv
from itcsim.metrics import interception_metrics

# 0.5 km at 2 s: about 2 000 steps, every one logged, so the rows cross the
# 1 024-row chunks in which run_scenario hands them on.
MICRO = """\
scenario.tf = 2.0
geometry.initialXKm = -0.5
sim.logStride = 1
"""

CASES = {
    # 3D with launch offsets, so both channels work, under each bound schedule.
    "3d-constant": "launch.elevationDeg = -5\nlaunch.azimuthDeg = 5\n",
    "3d-roll-coupled": "launch.elevationDeg = -5\nlaunch.azimuthDeg = 5\n"
    "saturation.boundMode = roll-coupled\n",
    "3d-wing-tail": "launch.elevationDeg = -5\nlaunch.azimuthDeg = 5\n"
    "saturation.boundMode = wing-tail\nsaturation.aMaxG = 5\n",
    "planar-proposed": "scenario.mode = planar\nlaunch.azimuthDeg = 0\n",
    "planar-baseline": "scenario.mode = planar\nscenario.law = baseline\nlaunch.azimuthDeg = 0\n",
    # A stride that does not divide the run: the end row is logged apart.
    "planar-stride-7": "scenario.mode = planar\nlaunch.azimuthDeg = 0\nsim.logStride = 7\n",
    # Cannot settle a 10 degree lead in time: a timeout.
    "timeout": "scenario.mode = planar\nscenario.tf = 2.2\nlaunch.azimuthDeg = 10\n",
    # A hit radius below the range floor: a range-floor guard trip.
    "guard-trip": "scenario.mode = planar\nlaunch.azimuthDeg = 0\nsim.hitRadius = 1e-9\n",
}
STATUS = {"timeout": "timeout", "guard-trip": "guard-tripped"}


def _json_value(value):
    return None if isinstance(value, float) and not math.isfinite(value) else value


@pytest.mark.parametrize("name", list(CASES))
def test_streamed_outputs_equal_the_in_memory_path(tmp_path, name, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(MICRO + CASES[name])
    streamed, mets_path = tmp_path / "streamed.csv", tmp_path / "m.json"
    main(["run", "--config", str(path), "--out-traj", str(streamed),
          "--out-metrics", str(mets_path)])
    payload = json.loads(mets_path.read_text())
    assert payload["status"] == STATUS.get(name, "intercepted")

    cfg = load_config(str(path))
    log, outcome, mets = run_scenario(cfg)
    in_memory = tmp_path / "in_memory.csv"
    write_trajectory_csv(log, str(in_memory))
    assert streamed.read_bytes() == in_memory.read_bytes()
    assert outcome.status.value == payload["status"]

    reread = interception_metrics(
        read_trajectory_csv(str(streamed)),
        t_final=cfg.tf, sigma_max=math.radians(cfg.sigma_max_deg), hit_radius=cfg.hit_radius,
    )
    assert reread == mets
    for key, value in reread.to_dict().items():
        assert payload[key] == _json_value(value), key


def _run_peak(tmp_path, text: str) -> int:
    """tracemalloc peak, bytes, of one ``itcsim run`` of ``text``."""
    path = tmp_path / "run.cfg"
    path.write_text(text)
    args = ["run", "--config", str(path), "--out-traj", str(tmp_path / "t.csv"),
            "--out-metrics", str(tmp_path / "m.json")]
    tracemalloc.start()
    try:
        code = main(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


def test_run_memory_does_not_grow_with_run_length(tmp_path, capsys):
    """Every step logged: 1 km at 4 s logs about 3 000 rows more than
    0.25 km at 1 s, which held about 0.8 KB each when a run kept its rows."""
    head_on = "scenario.mode = planar\nlaunch.azimuthDeg = 0\nsim.logStride = 1\n"
    short = head_on + "scenario.tf = 1.0\ngeometry.initialXKm = -0.25\n"
    long = head_on + "scenario.tf = 4.0\ngeometry.initialXKm = -1.0\n"
    _run_peak(tmp_path, short)  # first-call allocations, such as lazy imports
    peaks, rows = [], []
    for text in (long, short):
        peaks.append(_run_peak(tmp_path, text))
        rows.append(len(read_trajectory_csv(str(tmp_path / "t.csv")).rows))
    assert rows[0] > 3.5 * rows[1]
    assert abs(peaks[0] - peaks[1]) < 256 * 1024, peaks
