"""Shared fixtures: cached scenario runs and the acceptance summary hook.

The full-length engagements (50+ second flights at millisecond steps) are
expensive, so each one is run exactly once per pytest session and shared by
every test that inspects it.  The preset sweeps are independent engagements
and run on a process pool with one worker per CPU; single runs stay
in-process, where C1 times the nominal run.  A run's warnings are the
messages in its ``log.warnings``; tests that assert warning behaviour build
their own small scenarios.

Acceptance tests register one line per criterion through the
``criterion_recorder`` fixture; the collected lines are printed in a
dedicated section of the terminal summary so a full run always shows one
pass/fail line per acceptance criterion.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import pytest

from itcsim.config import ScenarioConfig, run_scenario
from itcsim.engine import RunOutcome
from itcsim.logio import TrajectoryLog
from itcsim.metrics import Metrics
from itcsim.presets import preset_scenarios


@dataclass
class RunBundle:
    """One completed scenario run plus everything tests ask about it."""

    label: str
    cfg: ScenarioConfig
    log: TrajectoryLog
    outcome: RunOutcome
    metrics: Metrics
    elapsed: float


def run_bundle(label: str, cfg: ScenarioConfig) -> RunBundle:
    start = time.perf_counter()
    log, outcome, mets = run_scenario(cfg)
    elapsed = time.perf_counter() - start
    return RunBundle(label, cfg, log, outcome, mets, elapsed)


def run_bundles(pairs: list[tuple[str, ScenarioConfig]]) -> list[RunBundle]:
    """``run_bundle`` for each (label, cfg) pair on a process pool, in order."""
    workers = min(os.cpu_count() or 1, len(pairs))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(run_bundle, *zip(*pairs)))


@pytest.fixture(scope="session")
def nominal_run() -> RunBundle:
    """Head-on 10 km engagement, 50 s impact time, constant bounds."""
    ((label, cfg),) = preset_scenarios("table1-nominal")
    return run_bundle(label, cfg)


@pytest.fixture(scope="session")
def nominal_half_dt_run(nominal_run: RunBundle) -> RunBundle:
    cfg = replace(nominal_run.cfg, dt=nominal_run.cfg.dt / 2.0)
    return run_bundle(nominal_run.label + "-halfdt", cfg)


@pytest.fixture(scope="session")
def tf_sweep_runs() -> list[RunBundle]:
    return run_bundles(preset_scenarios("fig2-tf-sweep"))


@pytest.fixture(scope="session")
def heading_sweep_runs() -> list[RunBundle]:
    return run_bundles(preset_scenarios("fig3-heading-sweep"))


@pytest.fixture(scope="session")
def rollcoupled_run() -> RunBundle:
    ((label, cfg),) = preset_scenarios("fig4-rollcoupled")
    return run_bundle(label, cfg)


@pytest.fixture(scope="session")
def wingtail_run() -> RunBundle:
    ((label, cfg),) = preset_scenarios("fig5-wingtail")
    return run_bundle(label, cfg)


@pytest.fixture(scope="session")
def planar_compare_runs() -> list[RunBundle]:
    """Twelve planar runs: six impact-time/heading rows, shaped and baseline."""
    return run_bundles(preset_scenarios("fig6-planar-compare"))


# --- acceptance criterion bookkeeping -------------------------------------

_CRITERIA: dict[str, tuple[bool, str]] = {}


def _record(name: str, passed: bool, detail: str) -> None:
    _CRITERIA[name] = (passed, detail)
    print(f"[C{name}] {'PASS' if passed else 'FAIL'} - {detail}")


@pytest.fixture
def criterion_recorder():
    """Callable ``(name, passed, detail)`` that logs one acceptance line."""
    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_CRITERIA):
        passed, detail = _CRITERIA[name]
        terminalreporter.write_line(f"[C{name}] {'PASS' if passed else 'FAIL'} - {detail}")
