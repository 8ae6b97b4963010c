"""Command-line interface: run one scenario, run a preset batch, or validate config.

Exit codes: 0 interception, 1 usage/config/I-O error (and any failed batch
scenario), 2 timeout, 3 numerical guard trip.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from .config import ScenarioConfig, load_config, run_scenario
from .engine import RunOutcome, RunStatus, fixed_or_exponent
from .errors import ConfigError
# The commands stream each run into a TrajectoryWriter; perfbench/tracer.py
# still wraps write_trajectory_csv under this module's name.
from .logio import TrajectoryWriter, write_metrics_json, write_report_csv
from .logio import write_trajectory_csv  # noqa: F401
from .metrics import REPORT_HEADER, Metrics, compare_report
from .presets import PRESET_NAMES, preset_scenarios

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_TIMEOUT = 2
EXIT_GUARD = 3

_STATUS_EXIT = {
    RunStatus.INTERCEPTED: EXIT_OK,
    RunStatus.TIMEOUT: EXIT_TIMEOUT,
    RunStatus.GUARD_TRIPPED: EXIT_GUARD,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors, which collides with the
    timeout exit code; route usage errors to 1 instead."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="itcsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one scenario", description="Simulate one scenario and write its trajectory CSV and metrics JSON.")
    run.add_argument("--config", help="config file (flat key = value lines)")
    run.add_argument("--preset", choices=PRESET_NAMES, help="single-scenario preset to start from")
    run.add_argument("--out-traj", required=True, help="output trajectory CSV path")
    run.add_argument("--out-metrics", required=True, help="output metrics JSON path")

    batch = sub.add_parser("batch", help="run every scenario of a preset", description="Run all scenarios of a preset and write per-run outputs plus a comparison report.")
    batch.add_argument("--preset", required=True, choices=PRESET_NAMES)
    batch.add_argument("--out-dir", required=True, help="directory for per-run outputs and report.csv")
    batch.add_argument("--jobs", type=int, default=1, help="parallel worker processes")

    val = sub.add_parser("validate", help="load and validate a config file", description="Parse, apply environment overrides, and validate a config file.")
    val.add_argument("--config", required=True, help="config file to validate")
    return parser


def _run_and_write(
    label: str, cfg: ScenarioConfig, traj_path: str, metrics_path: str
) -> tuple[RunOutcome, Metrics]:
    """Simulate one scenario, writing its trajectory CSV row by row as it
    integrates, then its metrics JSON.  Both files are opened before the
    run starts, the CSV first, so an unwritable path fails before any step."""
    with TrajectoryWriter(traj_path) as sink:
        open(metrics_path, "w").close()
        _, outcome, mets = run_scenario(cfg, sink)
    payload: dict[str, object] = {"label": label, "status": outcome.status.value}
    if outcome.status is RunStatus.GUARD_TRIPPED:
        payload["guard"] = outcome.guard
    payload.update(mets.to_dict())
    payload["warnings"] = outcome.warnings
    write_metrics_json(payload, metrics_path)
    return outcome, mets


def _report(label: str, result: tuple[RunOutcome, Metrics] | str) -> None:
    """The one way a command reports a scenario: its warnings, labelled, on
    stderr, then its summary line (or its error, for a batch scenario that
    raised) on stdout."""
    if isinstance(result, str):
        print(f"{label}: error: {result}")
        return
    outcome, metrics = result
    for msg in outcome.warnings:
        print(f"{label}: warning: {msg}", file=sys.stderr)

    def show(value: float | None, spec: str, unit: str) -> str:
        if value is None:
            return "-"
        return f"{fixed_or_exponent(value, spec)} {unit}"

    print(
        f"{label}: {outcome.status.value}  impact={show(metrics.impact_time, '.4f', 's')}  "
        f"miss={show(metrics.miss_distance, '.3f', 'm')}  "
        f"effort={show(metrics.control_effort, '.1f', 'm^2/s^3')}"
    )


def _scenarios(args: argparse.Namespace) -> list[tuple[str, ScenarioConfig]]:
    """A command's labelled scenarios (the preset's, or the defaults labelled
    ``run``), each layered preset < file < environment and validated."""
    scenarios = preset_scenarios(args.preset) if args.preset else [("run", ScenarioConfig())]
    if args.command == "run" and len(scenarios) != 1:
        raise ConfigError(
            f"preset '{args.preset}' defines {len(scenarios)} scenarios; use `itcsim batch`"
        )
    path = getattr(args, "config", None)
    return [(label, load_config(path, base=cfg)) for label, cfg in scenarios]


# --- run ------------------------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    ((label, cfg),) = _scenarios(args)
    outcome, mets = _run_and_write(label, cfg, args.out_traj, args.out_metrics)
    _report(label, (outcome, mets))
    return _STATUS_EXIT[outcome.status]


# --- batch ----------------------------------------------------------------------


def _batch_worker(item: tuple[str, ScenarioConfig, str]) -> tuple[RunOutcome, Metrics] | str:
    """Run one batch scenario; its result (or the message of what it raised)
    comes back whole, so the parent reports it in scenario order whatever
    process ran it."""
    label, cfg, out_dir = item
    try:
        return _run_and_write(
            label,
            cfg,
            os.path.join(out_dir, f"{label}.traj.csv"),
            os.path.join(out_dir, f"{label}.metrics.json"),
        )
    except Exception as exc:  # per-scenario isolation: record and continue
        return str(exc)


def _cmd_batch(args: argparse.Namespace) -> int:
    scenarios = _scenarios(args)
    os.makedirs(args.out_dir, exist_ok=True)
    items = [(label, cfg, args.out_dir) for label, cfg in scenarios]

    # A pool forks all its workers up front; never start more than there is work.
    # Both paths return the results in scenario order.
    jobs = min(args.jobs, len(items))
    if jobs > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_batch_worker, items))
    else:
        results = [_batch_worker(item) for item in items]

    runs = []
    failed = False
    for (label, cfg), result in zip(scenarios, results):
        _report(label, result)
        if isinstance(result, str):
            failed = True
        else:
            outcome, mets = result
            failed = failed or outcome.status is not RunStatus.INTERCEPTED
            runs.append((label, cfg.azimuth_deg, mets))
    if runs:
        write_report_csv(
            os.path.join(args.out_dir, "report.csv"), REPORT_HEADER, compare_report(runs)
        )
    return EXIT_ERROR if failed else EXIT_OK


# --- validate ---------------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    print(f"{args.config}: OK ({cfg.mode} mode, {cfg.law} law, tf={cfg.tf} s)")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "batch" and args.jobs < 1:
        parser.error(f"argument --jobs: must be >= 1, got {args.jobs}")
    if args.command == "run":
        paths = [os.path.realpath(p) for p in (args.out_traj, args.out_metrics, args.config) if p]
        if len(set(paths)) < len(paths):
            parser.error("--out-traj, --out-metrics and --config must each name a different file")
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "batch":
            return _cmd_batch(args)
        return _cmd_validate(args)
    except ConfigError as exc:
        print(f"itcsim: config error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"itcsim: i/o error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
