"""Append one entry to the committed benchmark trajectory, BENCH_steps.json.

Usage:

    python3 tools/bench_record.py --commit SHA [--tier1-s S] RECORD [RECORD ...]
    python3 tools/bench_record.py --parent SHA [--tier1-s S] RECORD [RECORD ...]

``perfbench/run.py`` writes one ``record-<workload>-seed<N>-trace<T>.json``
per run into ``.perfbench_work/``.  This tool folds the records named on its
command line into one entry; there is no default set, because that directory
keeps records of earlier code and a record does not say which code it
measured.  The entry holds, per workload, the median and quartiles over the
runs of ``steps_per_s``, ``wall_s``, ``setup_s`` and ``peak_rss_mb`` (each
run's own value is the median of its passes), the run and pass counts and
the seeds; for the whole entry, the commit, the Python version, the CPU
count, the ``src/`` line count and the Tier-1 wall time in seconds
(``--tier1-s``, measured separately; null when not given).

``--commit SHA`` names the measured commit; its ``src/`` lines are counted
from git.  ``--parent SHA`` records a change measured before it was
committed: the entry carries ``"commit": null`` and ``"parent": SHA``, and
the ``src/`` lines of this checkout.  Traced records (``trace 1``) and runs
that were not ``correct`` are refused, as are records that disagree on the
Python version or CPU count.  Old entries are never rewritten: the new entry
is appended, and a commit already in the file is refused.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "BENCH_steps.json"
METRICS = ("steps_per_s", "wall_s", "setup_s", "peak_rss_mb")


def summary(values: list[float]) -> dict[str, float]:
    """Median and quartiles (both quartiles equal the value for one run)."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3}


def fold(records: list[dict]) -> dict[str, dict]:
    """Per-workload summaries of a set of untraced perfbench records."""
    by_workload: dict[str, list[dict]] = {}
    for rec in records:
        if rec["trace"] or not rec["result"]["correct"]:
            raise SystemExit(f"bench_record: {rec['workload']} seed {rec['seed']}: "
                             "traced or incorrect run")
        by_workload.setdefault(rec["workload"], []).append(rec)
    out = {}
    for workload, recs in sorted(by_workload.items()):
        recs.sort(key=lambda rec: rec["seed"])
        entry = {
            "runs": len(recs),
            "passes": sum(rec["repeat_count"] for rec in recs),
            "seeds": [rec["seed"] for rec in recs],
        }
        for name in METRICS:
            entry[name] = summary([rec["result"]["metrics"][name]["value"] for rec in recs])
        out[workload] = entry
    return out


def src_lines(commit: str | None) -> int:
    """Lines of the ``src/`` Python files at ``commit``, or in this checkout."""
    if commit is None:
        return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))

    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout

    names = [n for n in git("ls-tree", "-r", "--name-only", commit, "src/").split() if n.endswith(".py")]
    return sum(len(git("show", f"{commit}:{name}").splitlines()) for name in names)


def append_entry(entry: dict, path: Path = BENCH) -> None:
    """Append ``entry``; earlier entries are written back unchanged."""
    entries = json.loads(path.read_text()) if path.exists() else []
    if entry["commit"] is not None and any(e["commit"] == entry["commit"] for e in entries):
        raise SystemExit(f"bench_record: {path.name} already has commit {entry['commit']}")
    entries.append(entry)
    path.write_text(json.dumps(entries, indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--commit", help="the measured commit")
    which.add_argument("--parent", help="parent of the measured, uncommitted change")
    parser.add_argument("--tier1-s", type=float, help="Tier-1 wall time, s")
    parser.add_argument("records", nargs="+", type=Path,
                        help="untraced record files of the measured code, named one by one")
    args = parser.parse_args()

    records = [json.loads(p.read_text()) for p in args.records]
    hosts = {(rec["python"], rec["cpu_count"]) for rec in records}
    if len(hosts) != 1:
        raise SystemExit(f"bench_record: records from different hosts: {sorted(hosts)}")
    ((python, cpu_count),) = hosts

    entry: dict[str, object] = {"commit": args.commit}
    if args.parent is not None:
        entry["parent"] = args.parent
    entry.update(
        source="perfbench records",
        python=python,
        cpu_count=cpu_count,
        src_lines=src_lines(args.commit),
        tier1_s=args.tier1_s,
        workloads=fold(records),
    )
    append_entry(entry)
    print(json.dumps(entry, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
