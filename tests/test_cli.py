"""Command-line interface: exit codes, output files, error routing.

Scenario runs here use a short head-on engagement (0.5 km at 2 s) so the
whole module stays fast; the full-length study presets are covered by the
acceptance suite.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from itcsim.cli import EXIT_ERROR, EXIT_GUARD, EXIT_OK, EXIT_TIMEOUT, main
from itcsim.logio import read_trajectory_csv
from itcsim.metrics import interception_metrics

SRC = Path(__file__).resolve().parents[1] / "src"


def _child_env(**extra: str) -> dict[str, str]:
    """This process's environment, with ``src`` first on PYTHONPATH, for a
    child interpreter that must import this checkout's itcsim."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path, **extra}


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
    """A run's warnings are messages in its outcome, not Python warnings: the
    interpreter's filters neither raise them as errors nor drop them."""
    proc = subprocess.run(
        [sys.executable, "-m", "itcsim.cli", "run", "--config", str(micro_cfg),
         "--out-traj", str(tmp_path / "t.csv"), "--out-metrics", str(tmp_path / "m.json")],
        capture_output=True, text=True, env=_child_env(PYTHONWARNINGS=action),
    )
    assert proc.returncode == EXIT_OK
    assert proc.stderr == (
        "run: warning: shaping demand clamped to zero lead at t=0.132 s (range-time error < 0)\n"
    )


def test_run_preset_composes_with_config_overrides(tmp_path, monkeypatch, capsys):
    """--preset supplies the base scenario; the config file shrinks it to
    the fast aligned micro-engagement (file keys beat preset values), and
    the environment sets its step."""
    shrink = tmp_path / "shrink.cfg"
    shrink.write_text(
        "scenario.tf = 2.0\n"
        "geometry.initialXKm = -0.5\n"
        "launch.elevationDeg = 0\n"
        "launch.azimuthDeg = 0\n"
    )
    traj = tmp_path / "t.csv"
    mets = tmp_path / "m.json"
    monkeypatch.setenv("ITCSIM_SIM_DT", "0.002")
    code = main([
        "run", "--preset", "table1-nominal", "--config", str(shrink),
        "--out-traj", str(traj), "--out-metrics", str(mets),
    ])
    assert code == EXIT_OK
    payload = json.loads(mets.read_text())
    assert payload["label"] == "table1-nominal"
    assert payload["status"] == "intercepted"
    # The environment's step reached the engine: rows are 2 ms * stride apart.
    log = read_trajectory_csv(str(traj))
    assert log.rows[1].t - log.rows[0].t == pytest.approx(0.02, rel=1e-9)


def test_run_has_no_dt_option(tmp_path, capsys):
    """The step is the config key ``sim.dt`` (or ``ITCSIM_SIM_DT``) alone."""
    with pytest.raises(SystemExit) as exc:
        main(["run", "--dt", "0.002",
              "--out-traj", str(tmp_path / "t.csv"), "--out-metrics", str(tmp_path / "m.json")])
    assert exc.value.code == EXIT_ERROR
    assert "unrecognized arguments: --dt 0.002" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


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
    assert err.startswith("itcsim: config error: geometry.initial*: line of sight")
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


def test_run_that_logs_no_row_is_a_guard_trip(tmp_path, capsys):
    """At 1.5e154 m/s the 3D law's acceleration errors zy and zz pass
    logio.ERROR_MAX on the first evaluation and again on the end-row retry:
    the log has no row, and the run ends as any other guard trip."""
    cfg = tmp_path / "no-row.cfg"
    cfg.write_text("scenario.tf = 40\nscenario.speed = 1.5e154\n")
    assert main(["validate", "--config", str(cfg)]) == EXIT_OK
    code = main([
        "run", "--config", str(cfg),
        "--out-traj", str(tmp_path / "t.csv"),
        "--out-metrics", str(tmp_path / "m.json"),
    ])
    assert code == EXIT_GUARD
    log = read_trajectory_csv(str(tmp_path / "t.csv"))
    assert log.rows == []
    payload = json.loads((tmp_path / "m.json").read_text())
    assert payload["status"] == "guard-tripped"
    assert payload["guard"] == "overflow"
    assert payload["fovViolations"] == payload["accelViolations"] == 0
    assert {key for key, value in payload.items() if value is None} == {
        "missDistance", "impactTime", "impactTimeError", "controlEffort", "maxLead",
        "maxAy", "maxAz", "terminalLead", "terminalAy", "terminalAz",
    }
    # The header-only CSV re-scores to the run's own metrics.
    rescored = interception_metrics(
        log, t_final=40.0, sigma_max=math.radians(60.0), hit_radius=1.0
    )
    assert rescored.to_dict().items() <= payload.items()
    assert capsys.readouterr().out.splitlines()[-1] == (
        "run: guard-tripped  impact=-  miss=-  effort=-"
    )


TINY_SPEED = "scenario.speed = 1e-300\nscenario.tf = 3\ngeometry.initialXKm = -0.5\n"


@pytest.mark.parametrize(
    "text, rows",
    [
        # The raw 3D command is inf - inf: a NaN.
        ("scenario.speed = 1.5e154\n", 0),
        # The commands stay finite, but zz or zy is past sqrt(float max), so
        # the logged Lyapunov form Vz or Vy would be inf.
        ("gains.k3 = 1e300\n", 0),
        ("scenario.speed = 1e80\n", 0),
        ("scenario.mode = planar\nscenario.speed = 1e80\n", 0),
        # The heading errors z3, z4 (planar: the lead error z2) integrate
        # a/v, so they blow up in the first step after the launch row.
        (TINY_SPEED, 1),
        ("scenario.mode = planar\n" + TINY_SPEED, 1),
        # The comparison law's acceleration demand is -inf.
        ("scenario.mode = planar\nscenario.law = baseline\nscenario.speed = 1e160\n", 0),
    ],
    ids=[
        "nan-command", "3d-k3", "3d-speed", "planar-speed",
        "3d-tiny-speed", "planar-tiny-speed", "baseline-speed",
    ],
)
def test_run_that_would_log_non_finite_values_is_an_overflow_guard_trip(tmp_path, text, rows):
    """A valid config whose chain yields a non-finite value ends as the
    overflow guard before that row is logged, so the CSV holds no NaN or inf:
    on the first evaluation the log is empty, later it keeps the rows before."""
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(text)
    assert main(["validate", "--config", str(cfg)]) == EXIT_OK
    code = main([
        "run", "--config", str(cfg),
        "--out-traj", str(tmp_path / "t.csv"),
        "--out-metrics", str(tmp_path / "m.json"),
    ])
    assert code == EXIT_GUARD
    assert json.loads((tmp_path / "m.json").read_text())["guard"] == "overflow"
    assert len(read_trajectory_csv(str(tmp_path / "t.csv")).rows) == rows
    text = (tmp_path / "t.csv").read_text()
    assert "nan" not in text and "inf" not in text


def test_run_with_a_huge_finite_gain_still_intercepts(tmp_path, micro_cfg):
    """ky = 1e300 multiplies zy only in the command, which the cap clips:
    the actuator errors stay finite, so the run intercepts and logs no inf."""
    cfg = tmp_path / "huge-ky.cfg"
    cfg.write_text(ALIGNED_MICRO + "scenario.mode = 3d\ngains.ky = 1e300\n")
    code = main([
        "run", "--config", str(cfg),
        "--out-traj", str(tmp_path / "t.csv"),
        "--out-metrics", str(tmp_path / "m.json"),
    ])
    assert code == EXIT_OK
    log = read_trajectory_csv(str(tmp_path / "t.csv"))
    assert len(log.rows) > 100
    assert all(math.isfinite(value) for row in log.rows for value in row)


@pytest.mark.parametrize("bad", ["out-traj", "out-metrics"])
def test_run_unwritable_output_path(tmp_path, micro_cfg, monkeypatch, capsys, bad):
    """Both output files are opened before the run, the CSV first: either
    path in a missing directory exits 1 with one i/o error line and no run
    warnings, and ``run_scenario`` is never called.  A bad --out-traj
    creates no file; a bad --out-metrics leaves the CSV header alone."""
    from itcsim import cli

    def no_run(cfg, sink=None):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    paths = {"out-traj": tmp_path / "t.csv", "out-metrics": tmp_path / "m.json"}
    paths[bad] = tmp_path / "missing" / "dir" / paths[bad].name
    code = main([
        "run", "--config", str(micro_cfg),
        "--out-traj", str(paths["out-traj"]), "--out-metrics", str(paths["out-metrics"]),
    ])
    assert code == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("itcsim: i/o error: ") and str(paths[bad]) in line
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["micro.cfg"] if bad == "out-traj" else ["micro.cfg", "t.csv"]
    )
    if bad == "out-metrics":
        assert read_trajectory_csv(str(paths["out-traj"])).rows == []


@pytest.mark.parametrize("clash", ["out-metrics", "config"])
def test_run_refuses_two_of_its_files_on_one_path(tmp_path, micro_cfg, monkeypatch, capsys, clash):
    """--out-traj naming the same file as --out-metrics (which would keep
    only the metrics) or as --config (which would overwrite the config with
    the CSV), here once relative and once absolute, is a usage error: exit 1
    before any file is opened, so no output appears and the config keeps
    its bytes."""
    monkeypatch.chdir(tmp_path)
    config_bytes = micro_cfg.read_bytes()
    traj = "out.txt" if clash == "out-metrics" else micro_cfg.name
    mets = str(tmp_path / traj) if clash == "out-metrics" else "m.json"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(micro_cfg), "--out-traj", traj, "--out-metrics", mets])
    assert exc.value.code == EXIT_ERROR
    assert "must each name a different file" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["micro.cfg"]
    assert micro_cfg.read_bytes() == config_bytes


def test_run_summary_line_prints_a_huge_value_in_exponent_form(tmp_path, capsys):
    """The comparison law at k2 = 1e4, every step logged, ends as an
    overflow trip whose finite effort is about 1.27e300: the summary line
    prints it in short exponent form, not as a 301-digit number, and keeps
    fixed point for the miss distance."""
    cfg = tmp_path / "k2.cfg"
    cfg.write_text(
        "scenario.mode = planar\nscenario.law = baseline\ngains.k2 = 10000\nsim.logStride = 1\n"
    )
    code = main([
        "run", "--config", str(cfg),
        "--out-traj", str(tmp_path / "t.csv"),
        "--out-metrics", str(tmp_path / "m.json"),
    ])
    assert code == EXIT_GUARD
    payload = json.loads((tmp_path / "m.json").read_text())
    assert payload["guard"] == "overflow"
    assert payload["controlEffort"] == pytest.approx(1.2715064942963532e300, rel=1e-12)
    line = capsys.readouterr().out.splitlines()[-1]
    assert line == "run: guard-tripped  impact=-  miss=9999.274 m  effort=1.27151e+300 m^2/s^3"
    assert len(line.split("effort=")[1].split()[0]) <= 12


def test_run_unreachable_warning_prints_a_huge_range_in_exponent_form(tmp_path, capsys):
    """A 3D start 1e100 km down-range is a valid config that times out; its
    unreachable-impact-time warning prints the range as the summary line
    prints a huge value, in short exponent form, on stderr and in the
    metrics JSON, instead of a 105-digit number."""
    cfg = tmp_path / "far.cfg"
    cfg.write_text("geometry.initialXKm = -1e100\nscenario.tf = 1\n")
    code = main([
        "run", "--config", str(cfg),
        "--out-traj", str(tmp_path / "t.csv"),
        "--out-metrics", str(tmp_path / "m.json"),
    ])
    assert code == EXIT_TIMEOUT
    warning = "range 1e+103 m exceeds speed*t_final = 250.0 m; impact-time target unreachable"
    assert json.loads((tmp_path / "m.json").read_text())["warnings"][0] == warning
    line = capsys.readouterr().err.splitlines()[0]
    assert line == f"run: warning: {warning}"
    assert len(line) < 100


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


def test_validate_config_that_is_not_utf8(tmp_path, capsys):
    # A UTF-16 byte-order mark is not UTF-8: a config error naming the file
    # and the byte, not a traceback.
    bad = tmp_path / "utf16.cfg"
    bad.write_bytes(b"\xff\xfe" + "scenario.tf = 50\n".encode("utf-16-le"))
    code = main(["validate", "--config", str(bad)])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"itcsim: config error: {bad}: not UTF-8 text at byte 0 ")
    assert "Traceback" not in err


def test_validate_config_with_a_utf8_byte_order_mark(tmp_path, capsys):
    # Some editors start a UTF-8 file with a byte-order mark: it is not part
    # of the first key, and a bad byte's offset still counts it.
    bom = tmp_path / "bom.cfg"
    bom.write_bytes(b"\xef\xbb\xbfscenario.tf = 50\n")
    assert main(["validate", "--config", str(bom)]) == EXIT_OK
    assert "tf=50.0 s" in capsys.readouterr().out
    bom.write_bytes(b"\xef\xbb\xbfscenario.tf = 5\xff\n")
    assert main(["validate", "--config", str(bom)]) == EXIT_ERROR
    assert f"{bom}: not UTF-8 text at byte 18 " in capsys.readouterr().err


# Keys that are no longer config keys, as README's "Removed keys and options"
# lists them: no law read the comparison law's navigation constant, g-unit
# bounds convert with a fixed 9.81 m/s^2, the target is the origin, and the
# sine floor of the shaping rates, the command cap and the timeout multiple
# are not part of the paper's model and no preset set them, so they are the
# constants shaping.EPS_SIN, saturation.B_CAP and engine.T_MAX_FACTOR.
_REMOVED_KEYS = (
    "baseline.navConstant", "saturation.g", "geometry.targetXKm", "geometry.targetYKm",
    "geometry.targetZKm", "shaping.epsSin", "saturation.bCap", "sim.tMaxFactor",
)


def test_validate_rejects_the_removed_g_key_in_a_file(tmp_path, capsys):
    """A file that sets a removed key fails as an unknown key."""
    cfg = tmp_path / "g.cfg"
    for key in _REMOVED_KEYS:
        cfg.write_text(f"scenario.tf = 50\n{key} = 0\n")
        assert main(["validate", "--config", str(cfg)]) == EXIT_ERROR
        assert f"{cfg}:2: unknown config key '{key}'" in capsys.readouterr().err


def test_validate_rejects_the_removed_g_key_in_the_environment(micro_cfg, monkeypatch, capsys):
    """An ``ITCSIM_*`` variable for a removed key matches no config key."""
    for key in _REMOVED_KEYS:
        name = "ITCSIM_" + key.replace(".", "_").upper()
        with monkeypatch.context() as env:
            env.setenv(name, "0")
            assert main(["validate", "--config", str(micro_cfg)]) == EXIT_ERROR
        assert f"{name} matches no config key" in capsys.readouterr().err


def test_validate_rejects_infinite_env_override(micro_cfg, monkeypatch, capsys):
    monkeypatch.setenv("ITCSIM_SIM_HITRADIUS", "inf")
    code = main(["validate", "--config", str(micro_cfg)])
    assert code == EXIT_ERROR
    assert "sim.hitRadius must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, fragment",
    [
        (
            "sim.dt = 1e-9\n",
            "sim.dt = 1e-09: a run of up to 7.5e+10 steps (1.5 * scenario.tf / sim.dt) "
            "exceeds the 1e+07-step limit",
        ),
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
        rows, outcome, mets = run_scenario(micro, sink)
        outcome.warnings.insert(0, f"stub warning for tf={cfg.tf:g}")
        return rows, outcome, mets

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


@pytest.mark.parametrize("failure", ["timeout", "raises"])
def test_batch_failed_scenario_exits_1(tmp_path, monkeypatch, capsys, in_process_pool, failure):
    """The tf50 scenario of fig2-tf-sweep times out or raises; the others
    run the micro-engagement.  Either way the batch exits 1; a scenario that
    raises prints an ``error:`` line and has no row in the report."""
    from dataclasses import replace

    from itcsim import cli
    from itcsim.config import run_scenario

    def fake(cfg, sink=None):
        micro = replace(cfg, mode="planar", tf=2.0, initial_x_km=-0.5,
                        elevation_deg=0.0, azimuth_deg=0.0)
        if cfg.tf == 50.0:
            if failure == "raises":
                raise RuntimeError("stub failure")
            micro = replace(micro, tf=2.2, azimuth_deg=10.0)  # cannot settle in time
        return run_scenario(micro, sink)

    monkeypatch.setattr(cli, "run_scenario", fake)
    code = main(["batch", "--preset", "fig2-tf-sweep", "--out-dir", str(tmp_path), "--jobs", "2"])
    assert code == EXIT_ERROR
    assert in_process_pool.requested == [2]
    summary = {line.split(":")[0]: line for line in capsys.readouterr().out.splitlines()}
    assert summary["tf45"].startswith("tf45: intercepted  ")
    assert summary["tf55"].startswith("tf55: intercepted  ")
    report = (tmp_path / "report.csv").read_text().splitlines()
    if failure == "raises":
        assert summary["tf50"] == "tf50: error: stub failure"
        assert [row.split(",")[0] for row in report] == ["label", "tf45", "tf55"]
        # Opened before the run, the metrics JSON stays empty.
        assert (tmp_path / "tf50.metrics.json").read_text() == ""
    else:
        assert summary["tf50"].startswith("tf50: timeout  impact=-  miss=")
        assert [row.split(",")[0] for row in report] == ["label", "tf45", "tf50", "tf55"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_batch_applies_environment_overrides_to_every_scenario(
    tmp_path, monkeypatch, in_process_pool, jobs
):
    """Each preset scenario is layered under the environment, as ``run
    --preset`` layers its one: a 500-step log stride leaves the 2 s
    micro-engagement (about 2 000 steps) with 5 rows in every CSV."""
    _warning_micro_runs(monkeypatch)
    monkeypatch.setenv("ITCSIM_SIM_LOGSTRIDE", "500")
    code = main(["batch", "--preset", "fig2-tf-sweep", "--out-dir", str(tmp_path), "--jobs", jobs])
    assert code == EXIT_OK
    for tf in (45, 50, 55):
        log = read_trajectory_csv(str(tmp_path / f"tf{tf}.traj.csv"))
        assert [row.t for row in log.rows[:-1]] == pytest.approx([0.0, 0.5, 1.0, 1.5])
        assert len(log.rows) == 5


def test_batch_rejects_an_unknown_environment_variable_before_writing(
    tmp_path, monkeypatch, capsys, in_process_pool
):
    _warning_micro_runs(monkeypatch)
    monkeypatch.setenv("ITCSIM_BOGUS_KEY", "1")
    out_dir = tmp_path / "batch"
    code = main(["batch", "--preset", "fig2-tf-sweep", "--out-dir", str(out_dir), "--jobs", "2"])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == (
        "itcsim: config error: environment variable ITCSIM_BOGUS_KEY matches no config key\n"
    )
    assert not out_dir.exists()
    assert in_process_pool.requested == []


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
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0
    assert "OK" in proc.stdout
