"""Print a digest of every output of the six study presets and of a few
fixed edge-case configs.

Usage:

    python3 tools/preset_digests.py [--src DIR] > digests.txt

Each preset runs through the itcsim CLI in a fresh temporary directory, in
the order of the preset table: a preset of one scenario with ``itcsim run``,
the others with ``itcsim batch --jobs 2``.  The presets log every 10th step,
run the comparison law unclipped and never trip a guard, so the configs in
``CONFIGS`` follow, each written to the temporary directory and run with
``itcsim run --config``: a clipped comparison law, every step logged on a
flyby with field-of-view violations and on two short planar runs, a one-row
overflow trip, an overflow trip of the comparison law at log strides 1 and
7, which end at the same step, a start too far down-range to meet the
impact time (the one warning no preset emits), a 3D start off the x axis (no
preset has a non-zero initial line-of-sight angle), a comparison-law run
whose clamp warning comes after 1e15 s, a planar run that ends on the
range-floor guard, which the law raises by name, and a planar run under the
wing-tail schedule, which the planar law does not read.  The output lists
``sha256  path`` for every file a run wrote and for its stdout and stderr,
then ``exit N  name``.
stderr holds the runs' labelled warnings, in scenario order whatever the job
count, so it is as deterministic as the other outputs.  Paths are relative
to the temporary directory, so two checkouts that behave the same print the
same text and ``diff`` of the two outputs is the byte-identity check.
``--src`` points at the ``src`` directory of another checkout (default: this
checkout's); the preset names and their scenario counts are read from that
tree.  Every ``ITCSIM_*`` variable is removed from the environment of the
runs.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Config text by run name; the comment above each gives how it ends.
CONFIGS = {
    # exit 2: the comparison law clipped at 1.5 g, 30 deg off the line of sight.
    "planar-baseline-clipped": (
        "scenario.mode = planar\nscenario.law = baseline\nbaseline.aClipG = 1.5\n"
        "launch.azimuthDeg = 30\n"
    ),
    # exit 2: a flyby at 2.743 m with 8 field-of-view violations.
    "flyby-3.12km-stride1": (
        "geometry.initialXKm = -3.12\nscenario.tf = 16.67\n"
        "launch.elevationDeg = -9.8\nlaunch.azimuthDeg = -8.2\nsim.logStride = 1\n"
    ),
    # 0.5 km at 2.3 s under each planar law, every step logged: the proposed
    # law times out (exit 2), the comparison law intercepts (exit 0).
    "planar-0.5km-stride1": (
        "scenario.mode = planar\nscenario.tf = 2.3\ngeometry.initialXKm = -0.5\n"
        "sim.logStride = 1\n"
    ),
    "baseline-0.5km-stride1": (
        "scenario.mode = planar\nscenario.law = baseline\nscenario.tf = 2.3\n"
        "geometry.initialXKm = -0.5\nsim.logStride = 1\n"
    ),
    # exit 3: a stage of the first step drives an error coordinate past
    # ERROR_MAX: one row, then the overflow trip.
    "3d-tiny-speed": "scenario.speed = 1e-300\nscenario.tf = 3\ngeometry.initialXKm = -0.5\n",
    # exit 3: the comparison law at k2 = 1e4 trips the overflow guard at
    # t = 0.059 s, where an RK4 stage's acceleration demand passes ERROR_MAX
    # (the bound in its rates), with a finite effort of about 1.27e300,
    # which the summary line prints in exponent form.
    "baseline-k2-overflow-stride1": (
        "scenario.mode = planar\nscenario.law = baseline\ngains.k2 = 10000\n"
        "sim.logStride = 1\n"
    ),
    # exit 3: the same run logging every 7th step ends at the same step, at
    # t = 0.059 s as `overflow`, with 10 rows, the last one at 0.059 s.
    "baseline-k2-overflow-stride7": (
        "scenario.mode = planar\nscenario.law = baseline\ngains.k2 = 10000\n"
        "sim.logStride = 7\n"
    ),
    # exit 2: a 3D start 1e100 km down-range times out; its unreachable
    # impact-time warning prints the range in exponent form.
    "huge-range-warning": "geometry.initialXKm = -1e100\n",
    # exit 0: a 3D start off the x axis, so theta0 and psi0 are not zero;
    # it intercepts at 49.996 s.
    "3d-off-axis": "geometry.initialYKm = 2\ngeometry.initialZKm = -1.5\n",
    # exit 0: fig6's tf50-angle10 comparison law with time scaled by 1e15;
    # it intercepts at 4.9996e16 s, and its clamp warning prints
    # t=4.7866e+16 s in exponent form.
    "huge-time-clamp-warning": (
        "scenario.mode = planar\nscenario.law = baseline\nscenario.speed = 2.5e-13\n"
        "scenario.tf = 5e16\nlaunch.azimuthDeg = 10\ngains.k2 = 1e-15\nsim.dt = 1e12\n"
    ),
    # exit 3: the planar law's range-floor guard, raised by name in an RK4
    # stage of the step from t = 1.999 s, since the hit radius lies below
    # the floor; the metrics JSON has "guard": "range-floor".
    "range-floor-trip": (
        "scenario.mode = planar\nscenario.tf = 2.0\ngeometry.initialXKm = -0.5\n"
        "launch.elevationDeg = 0\nlaunch.azimuthDeg = 0\nsim.hitRadius = 1e-9\n"
    ),
    # exit 0: fig6's tf50-angle10 shaped-law row under the wing-tail
    # schedule; the planar law has one axis and reads the constant bound.
    "planar-wingtail": "scenario.mode = planar\nsaturation.boundMode = wing-tail\n",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_args(name: str, out: Path, command: str | None) -> list[str]:
    """The CLI arguments of the preset ``name`` run with ``command`` ("run"
    or "batch"), or, when ``command`` is None, of the ``CONFIGS`` entry."""
    if command == "batch":
        return ["batch", "--preset", name, "--out-dir", str(out), "--jobs", "2"]
    if command == "run":
        source = ["--preset", name]
    else:
        cfg = out.parent / f"{name}.cfg"
        cfg.write_text(CONFIGS[name])
        source = ["--config", str(cfg)]
    return ["run", *source, "--out-traj", str(out / f"{name}.traj.csv"),
            "--out-metrics", str(out / f"{name}.metrics.json")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="itcsim source directory to run")
    args = parser.parse_args()

    src = str(Path(args.src).resolve())
    sys.path.insert(0, src)
    from itcsim.presets import PRESET_NAMES, preset_scenarios

    commands = {
        name: "run" if len(preset_scenarios(name)) == 1 else "batch" for name in PRESET_NAMES
    }
    env = {k: v for k, v in os.environ.items() if not k.startswith("ITCSIM_")}
    env["PYTHONPATH"] = src
    with tempfile.TemporaryDirectory() as tmp:
        for name in (*commands, *CONFIGS):
            out = Path(tmp) / name
            out.mkdir()
            proc = subprocess.run(
                [sys.executable, "-m", "itcsim.cli", *run_args(name, out, commands.get(name))],
                capture_output=True, env=env, cwd=tmp,
            )
            for path in sorted(out.iterdir()):
                print(f"{_sha256(path.read_bytes())}  {name}/{path.name}")
            print(f"{_sha256(proc.stdout)}  {name}/stdout")
            print(f"{_sha256(proc.stderr)}  {name}/stderr")
            print(f"exit {proc.returncode}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
