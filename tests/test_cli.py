"""Command-line interface: exit codes, output files, error routing.

Scenario runs here use a short head-on engagement (0.5 km at 2 s) so the
whole module stays fast; the full-length study presets are covered by the
acceptance suite.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from itcsim.cli import EXIT_ERROR, EXIT_GUARD, EXIT_OK, EXIT_TIMEOUT, main
from itcsim.logio import read_trajectory_csv

ALIGNED_MICRO = """\
# short head-on engagement, collision course, on-time demand
scenario.mode = planar
scenario.tf = 2.0
geometry.initialXKm = -0.5
launch.elevationDeg = 0
launch.azimuthDeg = 0
"""


@pytest.fixture
def micro_cfg(tmp_path):
    path = tmp_path / "micro.cfg"
    path.write_text(ALIGNED_MICRO)
    return path


def test_run_writes_trajectory_and_metrics(tmp_path, micro_cfg, capsys):
    traj = tmp_path / "out.traj.csv"
    mets = tmp_path / "out.metrics.json"
    code = main([
        "run", "--config", str(micro_cfg),
        "--out-traj", str(traj), "--out-metrics", str(mets),
    ])
    assert code == EXIT_OK

    log = read_trajectory_csv(str(traj))
    assert log.rows[0].t == 0.0
    assert log.rows[-1].r <= 1.0
    assert len(log.rows) > 100

    payload = json.loads(mets.read_text())
    assert payload["label"] == "run"
    assert payload["status"] == "intercepted"
    assert payload["impactTime"] == pytest.approx(2.0, abs=0.01)
    assert payload["missDistance"] <= 1.0
    assert payload["fovViolations"] == 0
    assert payload["accelViolations"] == 0
    assert isinstance(payload["warnings"], list) and len(payload["warnings"]) <= 1
    expected_keys = {
        "label", "status", "warnings", "missDistance", "impactTime",
        "impactTimeError", "controlEffort", "maxLead", "maxAy", "maxAz",
        "terminalLead", "terminalAy", "terminalAz", "fovViolations",
        "accelViolations",
    }
    assert set(payload) == expected_keys

    out = capsys.readouterr().out
    assert "intercepted" in out and "impact=" in out


def test_run_warnings_are_labelled(tmp_path, micro_cfg, capsys):
    """``run`` reports a warning as ``batch`` does, ``<label>: warning:``
    on stderr, and not through the default format with a source line."""
    code = main([
        "run", "--config", str(micro_cfg),
        "--out-traj", str(tmp_path / "t.csv"), "--out-metrics", str(tmp_path / "m.json"),
    ])
    assert code == EXIT_OK
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "run: warning: shaping demand clamped to zero lead at t=0.132 s (range-time error < 0)"
    ]
    assert "config.py:" not in err


@pytest.mark.parametrize("action", ["error", "ignore"])
def test_run_warnings_do_not_depend_on_warning_filters(tmp_path, micro_cfg, action):
    """A run's warnings are messages in its log, not Python warnings: the
    interpreter's filters neither raise them as errors nor drop them."""
    proc = subprocess.run(
        [sys.executable, "-m", "itcsim.cli", "run", "--config", str(micro_cfg),
         "--out-traj", str(tmp_path / "t.csv"), "--out-metrics", str(tmp_path / "m.json")],
        capture_output=True, text=True, env={**os.environ, "PYTHONWARNINGS": action},
    )
    assert proc.returncode == EXIT_OK
    assert proc.stderr == (
        "run: warning: shaping demand clamped to zero lead at t=0.132 s (range-time error < 0)\n"
    )


def test_run_preset_composes_with_config_overrides(tmp_path, capsys):
    """--preset supplies the base scenario; the config file shrinks it to
    the fast aligned micro-engagement (file keys beat preset values)."""
    shrink = tmp_path / "shrink.cfg"
    shrink.write_text(
        "scenario.tf = 2.0\n"
        "geometry.initialXKm = -0.5\n"
        "launch.elevationDeg = 0\n"
        "launch.azimuthDeg = 0\n"
    )
    traj = tmp_path / "t.csv"
    mets = tmp_path / "m.json"
    code = main([
        "run", "--preset", "table1-nominal", "--config", str(shrink),
        "--dt", "0.002",
        "--out-traj", str(traj), "--out-metrics", str(mets),
    ])
    assert code == EXIT_OK
    payload = json.loads(mets.read_text())
    assert payload["label"] == "table1-nominal"
    assert payload["status"] == "intercepted"
    # The --dt override reached the engine: rows are 2 ms * stride apart.
    log = read_trajectory_csv(str(traj))
    assert log.rows[1].t - log.rows[0].t == pytest.approx(0.02, rel=1e-9)


def test_run_rejects_multi_scenario_preset(tmp_path, capsys):
    code = main([
        "run", "--preset", "fig2-tf-sweep",
        "--out-traj", str(tmp_path / "t.csv"),
        "--out-metrics", str(tmp_path / "m.json"),
    ])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert "use `itcsim batch`" in err


def test_run_timeout_exit_code(tmp_path, capsys):
    """A short offset engagement cannot settle its lead in time and times
    out; the CLI maps that to exit code 2."""
    cfg = tmp_path / "offset.cfg"
    cfg.write_text(
        "scenario.mode = planar\n"
        "scenario.tf = 2.2\n"
        "geometry.initialXKm = -0.5\n"
        "launch.elevationDeg = 0\n"
        "launch.azimuthDeg = 10\n"
    )
    code = main([
        "run", "--config", str(cfg),
        "--out-traj", str(tmp_path / "t.csv"),
        "--out-metrics", str(tmp_path / "m.json"),
    ])
    assert code == EXIT_TIMEOUT
    payload = json.loads((tmp_path / "m.json").read_text())
    assert payload["status"] == "timeout"
    assert payload["impactTime"] is None


def test_run_guard_trip_exit_code(tmp_path, micro_cfg):
    """Shrinking the hit radius below the range floor turns the endgame
    into a range-floor guard trip; the CLI maps that to exit code 3."""
    cfg = tmp_path / "guard.cfg"
    cfg.write_text(ALIGNED_MICRO + "sim.hitRadius = 1e-9\n")
    code = main([
        "run", "--config", str(cfg),
        "--out-traj", str(tmp_path / "t.csv"),
        "--out-metrics", str(tmp_path / "m.json"),
    ])
    assert code == EXIT_GUARD
    payload = json.loads((tmp_path / "m.json").read_text())
    assert payload["status"] == "guard-tripped"


def test_run_vertical_line_of_sight_is_a_config_error(tmp_path, capsys):
    """A 3D start straight below the target would trip the polar guard on
    its first row and leave no row to score; validation names the keys."""
    cfg = tmp_path / "vertical.cfg"
    cfg.write_text("geometry.initialXKm = 0\ngeometry.initialZKm = -10\n")
    code = main([
        "run", "--config", str(cfg),
        "--out-traj", str(tmp_path / "t.csv"),
        "--out-metrics", str(tmp_path / "m.json"),
    ])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("itcsim: config error: geometry.initial*/target*: line of sight")
    assert "Traceback" not in err
    assert not (tmp_path / "t.csv").exists() and not (tmp_path / "m.json").exists()


def test_run_overflow_is_a_guard_trip(tmp_path, capsys):
    """A saturation exponent of 1e6 overflows (a/A)**n in an RK4 stage of
    the step from t = 0.08 s; the run ends as a guard trip with its rows."""
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text("saturation.n = 1000000\n")
    code = main([
        "run", "--config", str(cfg),
        "--out-traj", str(tmp_path / "t.csv"),
        "--out-metrics", str(tmp_path / "m.json"),
    ])
    assert code == EXIT_GUARD
    payload = json.loads((tmp_path / "m.json").read_text())
    assert payload["status"] == "guard-tripped"
    assert payload["guard"] == "overflow"
    log = read_trajectory_csv(str(tmp_path / "t.csv"))
    assert [row.t for row in log.rows] == pytest.approx([0.01 * i for i in range(9)])
    assert "guard-tripped" in capsys.readouterr().out


def test_run_unwritable_output_path(tmp_path, micro_cfg, capsys):
    code = main([
        "run", "--config", str(micro_cfg),
        "--out-traj", str(tmp_path / "missing" / "dir" / "t.csv"),
        "--out-metrics", str(tmp_path / "m.json"),
    ])
    assert code == EXIT_ERROR
    assert "i/o error" in capsys.readouterr().err


def test_validate_ok(tmp_path, micro_cfg, capsys):
    code = main(["validate", "--config", str(micro_cfg)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "OK" in out and "planar" in out


def test_validate_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("gains.k1 = 0.6\n")
    code = main(["validate", "--config", str(bad)])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert "config error" in err and "k1" in err


def test_validate_rejects_infinite_env_override(micro_cfg, monkeypatch, capsys):
    monkeypatch.setenv("ITCSIM_SIM_HITRADIUS", "inf")
    code = main(["validate", "--config", str(micro_cfg)])
    assert code == EXIT_ERROR
    assert "sim.hitRadius must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("sim.dt = 1e-9\n", "sim.dt = 1e-09: a run of up to 7.5e+10 steps"),
        ("sim.dt = 1e-5\nsim.logStride = 1\n", "sim.logStride = 1: a log of up to 7.5e+06 rows"),
    ],
    ids=["steps", "rows"],
)
def test_validate_bounds_run_length(tmp_path, capsys, text, fragment):
    """The nominal 75 s timeout caps a run at 1e7 steps and its log at 1e6 rows."""
    cfg = tmp_path / "long.cfg"
    cfg.write_text(text)
    code = main(["validate", "--config", str(cfg)])
    assert code == EXIT_ERROR
    assert f"itcsim: config error: {fragment}" in capsys.readouterr().err


def test_validate_missing_file(tmp_path, capsys):
    code = main(["validate", "--config", str(tmp_path / "nope.cfg")])
    assert code == EXIT_ERROR
    assert "i/o error" in capsys.readouterr().err


def test_usage_errors_exit_1(capsys):
    # Missing subcommand and unknown flags route through the custom parser,
    # freeing exit code 2 for timeouts.
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_ERROR
    with pytest.raises(SystemExit) as exc:
        main(["run", "--no-such-flag"])
    assert exc.value.code == EXIT_ERROR
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # missing required --out-traj/--out-metrics
    assert exc.value.code == EXIT_ERROR


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_batch_rejects_jobs_below_one(tmp_path, capsys, monkeypatch, jobs):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    out_dir = tmp_path / "batch"
    with pytest.raises(SystemExit) as exc:
        main(["batch", "--preset", "fig4-rollcoupled", "--out-dir", str(out_dir), "--jobs", jobs])
    assert exc.value.code == EXIT_ERROR
    assert "--jobs" in capsys.readouterr().err
    assert not out_dir.exists()  # nothing ran


class _InProcessPool:
    """Stands in for ``ProcessPoolExecutor``: records the worker count it
    was asked for and maps in this process, so no process ever starts."""

    requested: list[int] = []

    def __init__(self, max_workers=None, **kwargs):
        self.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(item) for item in items]


@pytest.fixture
def in_process_pool(monkeypatch):
    import concurrent.futures

    monkeypatch.setattr(_InProcessPool, "requested", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    return _InProcessPool


def _warning_micro_runs(monkeypatch):
    """Stub ``run_scenario``: each scenario runs the 0.5 km micro-engagement
    instead of the preset's long one, with a first warning of its own that
    names its t_final."""
    from dataclasses import replace

    from itcsim import cli
    from itcsim.config import run_scenario

    def fake(cfg, sink=None):
        micro = replace(cfg, mode="planar", tf=2.0, initial_x_km=-0.5,
                        elevation_deg=0.0, azimuth_deg=0.0)
        log, outcome, mets = run_scenario(micro, sink)
        log.warnings.insert(0, f"stub warning for tf={cfg.tf:g}")
        return log, outcome, mets

    monkeypatch.setattr(cli, "run_scenario", fake)


def test_batch_jobs_capped_at_scenario_count(tmp_path, monkeypatch, in_process_pool):
    _warning_micro_runs(monkeypatch)
    code = main(["batch", "--preset", "fig2-tf-sweep", "--out-dir", str(tmp_path / "a"),
                 "--jobs", "500"])
    assert code == EXIT_OK
    assert in_process_pool.requested == [3]  # three scenarios, not 500 workers
    # One scenario needs no pool at all.
    code = main(["batch", "--preset", "fig4-rollcoupled", "--out-dir", str(tmp_path / "b"),
                 "--jobs", "500"])
    assert code == EXIT_OK
    assert in_process_pool.requested == [3]
    assert (tmp_path / "b" / "rollcoupled.traj.csv").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_batch_warnings_are_labelled_in_scenario_order(
    tmp_path, monkeypatch, capsys, in_process_pool, jobs
):
    _warning_micro_runs(monkeypatch)
    code = main(["batch", "--preset", "fig2-tf-sweep", "--out-dir", str(tmp_path), "--jobs", jobs])
    assert code == EXIT_OK
    # The micro-engagement's own clamp warning repeats word for word in
    # every scenario; each one is still reported under its label.
    clamp = "warning: shaping demand clamped to zero lead at t=0.132 s (range-time error < 0)"
    assert capsys.readouterr().err.splitlines() == [
        line
        for tf in (45, 50, 55)
        for line in (f"tf{tf}: warning: stub warning for tf={tf}", f"tf{tf}: {clamp}")
    ]


def test_batch_writes_per_run_outputs_and_report(tmp_path, capsys):
    out_dir = tmp_path / "batch"
    code = main([
        "batch", "--preset", "fig5-wingtail",
        "--out-dir", str(out_dir), "--jobs", "2",
    ])
    assert code == EXIT_OK
    assert (out_dir / "wingtail.traj.csv").exists()
    payload = json.loads((out_dir / "wingtail.metrics.json").read_text())
    assert payload["status"] == "intercepted"

    report = (out_dir / "report.csv").read_text().strip().splitlines()
    assert report[0] == "label,impactTime,initialAngleDeg,controlEffort"
    assert report[1].startswith("wingtail,")
    out = capsys.readouterr().out
    assert "wingtail: intercepted" in out


def test_module_invocation_smoke(tmp_path, micro_cfg):
    proc = subprocess.run(
        [sys.executable, "-m", "itcsim.cli", "validate", "--config", str(micro_cfg)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "OK" in proc.stdout
