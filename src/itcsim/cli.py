"""Command-line interface: run one scenario, run a preset batch, or validate config.

Exit codes: 0 interception, 1 usage/config/I-O error (and any failed batch
scenario), 2 timeout, 3 numerical guard trip.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import Sequence

from .config import ScenarioConfig, load_config, run_scenario
from .engine import RunStatus
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

    run = sub.add_parser("run", help="simulate one scenario", parents=[], description="Simulate one scenario and write its trajectory CSV and metrics JSON.")
    run.add_argument("--config", help="config file (flat key = value lines)")
    run.add_argument("--preset", choices=PRESET_NAMES, help="single-scenario preset to start from")
    run.add_argument("--out-traj", required=True, help="output trajectory CSV path")
    run.add_argument("--out-metrics", required=True, help="output metrics JSON path")
    run.add_argument("--dt", type=float, help="override integration step, s")

    batch = sub.add_parser("batch", help="run every scenario of a preset", description="Run all scenarios of a preset and write per-run outputs plus a comparison report.")
    batch.add_argument("--preset", required=True, choices=PRESET_NAMES)
    batch.add_argument("--out-dir", required=True, help="directory for per-run outputs and report.csv")
    batch.add_argument("--jobs", type=int, default=1, help="parallel worker processes")

    val = sub.add_parser("validate", help="load and validate a config file", description="Parse, apply environment overrides, and validate a config file.")
    val.add_argument("--config", required=True, help="config file to validate")
    return parser


def _summary_line(label: str, status: str, metrics: Metrics | None, error: str | None) -> str:
    if error is not None:
        return f"{label}: error: {error}"
    assert metrics is not None
    impact = "-" if metrics.impact_time is None else f"{metrics.impact_time:.4f} s"
    return (
        f"{label}: {status}  impact={impact}  miss={metrics.miss_distance:.3f} m  "
        f"effort={metrics.control_effort:.1f} m^2/s^3"
    )


def _run_and_write(
    label: str, cfg: ScenarioConfig, traj_path: str, metrics_path: str, caught: list[str]
) -> tuple[RunStatus, Metrics]:
    """Simulate one scenario, writing its trajectory CSV row by row as it
    integrates, then its metrics JSON; the run's warnings go to ``caught``
    before the metrics JSON is written.  The CSV is opened first, so an
    unwritable path fails before the run starts."""
    with TrajectoryWriter(traj_path) as sink:
        log, outcome, mets = run_scenario(cfg, sink)
    caught.extend(log.warnings)
    payload: dict[str, object] = {"label": label, "status": outcome.status.value}
    if outcome.status is RunStatus.GUARD_TRIPPED:
        payload["guard"] = outcome.guard
    payload.update(mets.to_dict())
    payload["warnings"] = list(log.warnings)
    write_metrics_json(payload, metrics_path)
    return outcome.status, mets


def _print_warnings(label: str, messages: list[str]) -> None:
    """The one way a command reports a run's warnings: labelled, on stderr."""
    for msg in messages:
        print(f"{label}: warning: {msg}", file=sys.stderr)


# --- run ------------------------------------------------------------------------


def _compose_config(args: argparse.Namespace) -> tuple[str, ScenarioConfig]:
    base = ScenarioConfig()
    label = "run"
    if args.preset:
        scenarios = preset_scenarios(args.preset)
        if len(scenarios) != 1:
            raise ConfigError(
                f"preset '{args.preset}' defines {len(scenarios)} scenarios; use `itcsim batch`"
            )
        label, base = scenarios[0]
    cfg = load_config(args.config, base=base)
    if args.dt is not None:
        cfg = replace(cfg, dt=args.dt)
        cfg.validate()
    return label, cfg


def _cmd_run(args: argparse.Namespace) -> int:
    label, cfg = _compose_config(args)
    messages: list[str] = []
    try:
        status, mets = _run_and_write(label, cfg, args.out_traj, args.out_metrics, messages)
    finally:
        _print_warnings(label, messages)
    print(_summary_line(label, status.value, mets, None))
    return _STATUS_EXIT[status]


# --- batch ----------------------------------------------------------------------


def _batch_worker(
    item: tuple[str, ScenarioConfig, str],
) -> tuple[str, Metrics | None, str | None, list[str]]:
    """Run one batch scenario; its warnings come back as messages, so the
    parent reports them in scenario order whatever process ran it."""
    label, cfg, out_dir = item
    messages: list[str] = []
    try:
        status, mets = _run_and_write(
            label,
            cfg,
            os.path.join(out_dir, f"{label}.traj.csv"),
            os.path.join(out_dir, f"{label}.metrics.json"),
            messages,
        )
        return status.value, mets, None, messages
    except Exception as exc:  # per-scenario isolation: record and continue
        return "error", None, str(exc), messages


def _cmd_batch(args: argparse.Namespace) -> int:
    scenarios = preset_scenarios(args.preset)
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
    for (label, cfg), (status, mets, error, messages) in zip(scenarios, results):
        _print_warnings(label, messages)
        print(_summary_line(label, status, mets, error))
        if status != RunStatus.INTERCEPTED.value:
            failed = True
        if mets is not None:
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
