"""Print a digest of every output of the six study presets.

Usage:

    python3 tools/preset_digests.py [--src DIR] > digests.txt

Each preset runs through the itcsim CLI in a fresh temporary directory: the
three single-run presets with ``itcsim run``, the others with
``itcsim batch --jobs 2``.  The output lists ``sha256  path`` for every file
a preset wrote and for its stdout, then ``exit N  preset``.  Paths are
relative to the temporary directory, so two checkouts that behave the same
print the same text and ``diff`` of the two outputs is the byte-identity
check.  ``--src`` points at the ``src`` directory of another checkout
(default: this checkout's).  Every ``ITCSIM_*`` variable is removed from the
environment of the runs.  stderr is left out: it holds warning text, not
results.
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

SINGLE_RUN = ("table1-nominal", "fig4-rollcoupled", "fig5-wingtail")
BATCH = ("fig2-tf-sweep", "fig3-heading-sweep", "fig6-planar-compare")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def preset_args(preset: str, out: Path) -> list[str]:
    if preset in SINGLE_RUN:
        return ["run", "--preset", preset, "--out-traj", str(out / f"{preset}.traj.csv"),
                "--out-metrics", str(out / f"{preset}.metrics.json")]
    return ["batch", "--preset", preset, "--out-dir", str(out), "--jobs", "2"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="itcsim source directory to run")
    args = parser.parse_args()

    env = {k: v for k, v in os.environ.items() if not k.startswith("ITCSIM_")}
    env["PYTHONPATH"] = str(Path(args.src).resolve())
    with tempfile.TemporaryDirectory() as tmp:
        for preset in SINGLE_RUN + BATCH:
            out = Path(tmp) / preset
            out.mkdir()
            proc = subprocess.run(
                [sys.executable, "-m", "itcsim.cli", *preset_args(preset, out)],
                capture_output=True, env=env, cwd=tmp,
            )
            for path in sorted(out.iterdir()):
                print(f"{_sha256(path.read_bytes())}  {preset}/{path.name}")
            print(f"{_sha256(proc.stdout)}  {preset}/stdout")
            print(f"exit {proc.returncode}  {preset}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
