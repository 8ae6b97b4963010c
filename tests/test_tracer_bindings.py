"""The benchmark still finds every name it binds.

``perfbench/tracer.py`` replaces functions on the names their callers bind
(``Guidance3D.evaluate`` on the class, ``shaping_rates`` inside each law
module).  A renamed method or import would break only traced benchmark
runs, so this runs the tracer, unchanged, on three short engagements: one
3D, one planar with the proposed law and one planar with the baseline law.
Each must also pass through the traced ``run_scenario`` and ``simulate``
boundaries, so a CLI that stopped calling them would show.

``perfbench/run.py`` also calls four functions as ``itcsim.<name>`` on the
package root, and the root exports exactly those.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import itcsim
from itcsim.cli import EXIT_GUARD, EXIT_OK, EXIT_TIMEOUT

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
RUNNER = ROOT / "perfbench" / "run.py"

# 0.5 km head-on at 2 s: about 2 000 steps, a fraction of a second traced.
MICRO = """\
scenario.tf = 2.0
geometry.initialXKm = -0.5
launch.elevationDeg = 0
launch.azimuthDeg = 0
"""

ENGAGEMENTS = {
    "3d": ("", ("guidance3d.evaluate", "guidance3d.log_row")),
    "planar-proposed": (
        "scenario.mode = planar\n",
        ("guidance_planar.proposed.evaluate", "guidance_planar.proposed.log_row"),
    ),
    "planar-baseline": (
        "scenario.mode = planar\nscenario.law = baseline\n",
        ("guidance_planar.baseline.evaluate", "guidance_planar.baseline.log_row"),
    ),
}

# The baseline law has no actuator model, so no saturation calls.
LAYERS = ("shaping.shaping_rates", "saturation.axis_brackets", "saturation.clip_command")
# The boundaries every run crosses: the CLI calls run_scenario through its own
# module name, and run_scenario calls simulate through config's.
BOUNDARIES = ("config.run_scenario", "engine.simulate")
EXIT_FOR_STATUS = {"intercepted": EXIT_OK, "timeout": EXIT_TIMEOUT, "guard-tripped": EXIT_GUARD}


@pytest.mark.parametrize("name", list(ENGAGEMENTS))
def test_tracer_wraps_the_law_and_layer_bindings(tmp_path, name):
    extra, law_records = ENGAGEMENTS[name]
    cfg = tmp_path / "micro.cfg"
    cfg.write_text(MICRO + extra)
    env = {k: v for k, v in os.environ.items() if not k.startswith("ITCSIM_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(TRACER), "--out", str(trace), "--run-id", name, "--",
         "run", "--config", str(cfg),
         "--out-traj", str(tmp_path / "t.csv"), "--out-metrics", str(tmp_path / "m.json")],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=60,
    )
    assert proc.returncode in EXIT_FOR_STATUS.values(), proc.stderr
    status = json.loads((tmp_path / "m.json").read_text())["status"]
    assert proc.returncode == EXIT_FOR_STATUS[status]

    records = json.loads(trace.read_text())["records"]
    layers = LAYERS[:1] if name == "planar-baseline" else LAYERS
    for record in (*BOUNDARIES, *law_records, *layers):
        assert records.get(record, [0])[0] > 0, record


def test_package_root_exports_what_the_benchmark_calls():
    # run.py passes the imported package around as ``itc``.
    used = set(re.findall(r"\bitc\.([A-Za-z_]\w*)", RUNNER.read_text()))
    assert used == set(itcsim.__all__) - {"__version__"}
    for name in itcsim.__all__:
        assert hasattr(itcsim, name), name
