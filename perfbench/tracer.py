"""Run ``itcsim.cli.main`` with per-module timing wrappers installed from outside.

Usage (the benchmark starts this; it is not meant to be run by hand):

    python3 perfbench/tracer.py --out TRACE.json --run-id ID -- <itcsim cli args>

Nothing under ``src/`` is changed.  Before the CLI runs, each public function
is replaced *on the name its caller binds*: ``itcsim.guidance3d.shaping_rates``
rather than ``itcsim.shaping.shaping_rates``, ``Guidance3D.evaluate`` on the
class.  Hot per-stage calls (about 1.5 M per nominal run) are aggregated in
memory as call count, self time and total time; only the coarse boundaries
(CLI command, config, ``simulate``, writes, metrics) record full spans of
(name, start, end, parent, run id).

Batch pool workers inherit the wrappers through ``fork``.  Each worker task
dumps its own numbers to ``<out>.workers/<label>.json`` and this process
merges them; the benchmark fails the traced run when a task's numbers are
missing, for example because the pool stopped forking.

The exit code is the CLI's own, so the benchmark checks it exactly as for an
untraced run.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import json
import os
import sys
import time
from pathlib import Path

perf = time.perf_counter

# name -> [calls, self seconds, total seconds]; wrappers hold the lists, so a
# reset zeroes them in place.
RECORDS: dict[str, list] = {}
COUNTERS: dict[str, float] = {}
SPANS: list[list] = []  # [name, start, end, parent index, run id]

_child_time = [0.0]  # per open wrapped call: time spent in wrapped callees
_open_spans: list[int] = []
_state = {"run_id": "", "parent_pid": os.getpid(), "workers_dir": ""}


def _reset() -> None:
    for rec in RECORDS.values():
        rec[:] = [0, 0.0, 0.0]
    for key in COUNTERS:
        COUNTERS[key] = 0
    SPANS.clear()
    _open_spans.clear()
    _child_time[:] = [0.0]


def _count(key: str, n: float = 1) -> None:
    COUNTERS[key] = COUNTERS.get(key, 0) + n


def timed(name: str, fn, observe=None, span: bool = False):
    """Wrap ``fn`` so its calls add to RECORDS[name]; optionally record a span.

    ``observe(args, result)`` runs outside the timed region and feeds the
    ratio counters.  Wrapper entry/exit cost lands in the caller's self time.
    """
    rec = RECORDS.setdefault(name, [0, 0.0, 0.0])

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if span:
            SPANS.append([name, 0.0, 0.0, _open_spans[-1] if _open_spans else -1, _state["run_id"]])
            idx = len(SPANS) - 1
            _open_spans.append(idx)
        _child_time.append(0.0)
        t0 = perf()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = perf()
            dt = t1 - t0
            child = _child_time.pop()
            _child_time[-1] += dt
            rec[0] += 1
            rec[1] += dt - child
            rec[2] += dt
            if span:
                _open_spans.pop()
                SPANS[idx][1] = t0
                SPANS[idx][2] = t1
        if observe is not None:
            observe(args, out)
        return out

    return wrapper


def patch(owner, attr: str, name: str, observe=None, span: bool = False) -> None:
    setattr(owner, attr, timed(name, getattr(owner, attr), observe, span))


# --- observers feeding the ratio counters -----------------------------------------


def _obs_eval3d(args, ev) -> None:
    if ev.capped:
        _count("guidance3d.capped")


def _obs_shaping(args, out) -> None:
    z1, params = args[0], args[3]
    if 0.0 <= z1 <= params.phi:
        _count("shaping.in_layer")


def _obs_clip(args, out) -> None:
    if out != args[0]:
        _count("saturation.clipped")


def _obs_traj(args, out) -> None:
    _count("logio.rows", len(args[0].rows))
    _count("logio.bytes", os.path.getsize(args[1]))


def _obs_metrics_json(args, out) -> None:
    _count("logio.bytes", os.path.getsize(args[1]))


def _obs_report(args, out) -> None:
    _count("logio.bytes", os.path.getsize(args[0]))


def _obs_interception(args, mets) -> None:
    if mets.fov_violations > 0:
        _count("metrics.fov_violation_runs")


class _TimedPool(concurrent.futures.ProcessPoolExecutor):
    """Process pool that records how long its owner waits on it."""

    def __init__(self, *args, **kwargs) -> None:
        self._t_open = perf()
        super().__init__(*args, **kwargs)
        _count("cli.pool_workers", self._max_workers)

    def __exit__(self, *exc):
        out = super().__exit__(*exc)
        _count("cli.pool_wait_s", perf() - self._t_open)
        return out


def _dump(path: Path, extra: dict) -> None:
    payload = {"records": RECORDS, "counters": COUNTERS, "spans": SPANS}
    payload.update(extra)
    path.write_text(json.dumps(payload))


def install() -> None:
    """Install every wrapper on the names the program's callers bind."""
    import itcsim.cli as cli
    import itcsim.config as config
    import itcsim.engine as engine
    import itcsim.guidance3d as g3
    import itcsim.guidance_planar as gp

    # engine: simulate is called through config's binding, rk4_step through engine's.
    patch(config, "simulate", "engine.simulate", span=True)
    patch(engine, "rk4_step", "engine.rk4_step")

    # guidance laws, on the classes.
    patch(g3.Guidance3D, "evaluate", "guidance3d.evaluate", observe=_obs_eval3d)
    patch(g3.Guidance3D, "log_row", "guidance3d.log_row")
    patch(gp.GuidancePlanar, "evaluate", "guidance_planar.proposed.evaluate")
    patch(gp.GuidancePlanar, "log_row", "guidance_planar.proposed.log_row")
    patch(gp.BaselinePlanar, "evaluate", "guidance_planar.baseline.evaluate")
    patch(gp.BaselinePlanar, "log_row", "guidance_planar.baseline.log_row")

    # kinematics, shaping and saturation as bound inside each law module.
    for mod in (g3, gp):
        for attr in ("los_rates_3d", "heading_rates_3d", "inertial_position",
                     "los_rates_planar", "lead_rate_planar"):
            if hasattr(mod, attr):
                patch(mod, attr, f"kinematics.{attr}")
        patch(mod, "shaping_rates", "shaping.shaping_rates", observe=_obs_shaping)
        patch(mod, "axis_brackets", "saturation.axis_brackets")
        patch(mod, "clip_command", "saturation.clip_command", observe=_obs_clip)

    # config, metrics and logio as the CLI and run_scenario bind them.
    patch(cli, "load_config", "config.load_config", span=True)
    patch(config.ScenarioConfig, "validate", "config.validate")
    patch(config.ScenarioConfig, "make_law", "config.make_law")
    patch(cli, "run_scenario", "config.run_scenario", span=True)
    patch(config, "interception_metrics", "metrics.interception_metrics",
          observe=_obs_interception, span=True)
    patch(cli, "compare_report", "metrics.compare_report", span=True)
    patch(cli, "write_trajectory_csv", "logio.write_trajectory_csv", observe=_obs_traj, span=True)
    patch(cli, "write_metrics_json", "logio.write_metrics_json", observe=_obs_metrics_json, span=True)
    patch(cli, "write_report_csv", "logio.write_report_csv", observe=_obs_report, span=True)

    # cli: commands as main binds them, the pool as _cmd_batch looks it up.
    patch(cli, "_cmd_run", "cli.run", span=True)
    patch(cli, "_cmd_batch", "cli.batch", span=True)
    concurrent.futures.ProcessPoolExecutor = _TimedPool

    worker = timed("cli.batch_worker", cli._batch_worker, span=True)

    @functools.wraps(cli._batch_worker)
    def batch_worker(item):
        if os.getpid() == _state["parent_pid"]:
            return worker(item)
        # A pool worker: count only this task, then hand the numbers back.
        _reset()
        _state["run_id"] = item[0]
        out = worker(item)
        _dump(Path(_state["workers_dir"]) / f"{item[0]}.json", {"label": item[0], "pid": os.getpid()})
        return out

    # Pickle finds the function by module and qualified name; both still
    # resolve to this wrapper, in the parent and in forked workers.
    cli._batch_worker = batch_worker


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="trace JSON to write")
    parser.add_argument("--run-id", required=True, help="identifier shared by this run's spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    out = Path(args.out)
    workers_dir = out.with_name(out.name + ".workers")
    workers_dir.mkdir(parents=True, exist_ok=True)
    _state["run_id"] = args.run_id
    _state["workers_dir"] = str(workers_dir)

    install()
    import itcsim.cli as cli

    main_span = timed("cli.main", cli.main, span=True)
    code = main_span(cli_args)

    # Merge the pool workers' numbers into this process's totals.
    batch_span = next((i for i, s in enumerate(SPANS) if s[0] == "cli.batch"), -1)
    workers = []
    for path in sorted(workers_dir.glob("*.json")):
        data = json.loads(path.read_text())
        workers.append({"label": data["label"], "pid": data["pid"],
                        "busy_s": data["records"]["cli.batch_worker"][2]})
        for name, rec in data["records"].items():
            mine = RECORDS.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                mine[i] += rec[i]
        for key, val in data["counters"].items():
            _count(key, val)
        # A worker's root span hangs under the parent's batch command span.
        offset = len(SPANS)
        SPANS.extend(
            [s[0], s[1], s[2], s[3] + offset if s[3] >= 0 else batch_span, s[4]]
            for s in data["spans"]
        )
        path.unlink()
    workers_dir.rmdir()
    _dump(out, {"workers": workers, "exit_code": code})
    return code


if __name__ == "__main__":
    sys.exit(main())
