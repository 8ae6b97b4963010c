"""Shared fixtures: cached scenario runs and the acceptance summary hook.

The full-length engagements (50+ second flights at millisecond steps) are
expensive, so each one is run exactly once per pytest session and shared by
every test that inspects it.  They are independent, so one session fixture,
``study_runs``, submits every distinct study config to one process pool with
one worker per CPU, and the per-preset fixtures select from it.  Each run is
timed inside its worker, which is where C1 times the nominal run.  A run's
warnings are the messages in its ``RunOutcome.warnings``; tests that assert
warning behaviour build their own small scenarios.

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
from itcsim.logio import LogRow
from itcsim.metrics import Metrics
from itcsim.presets import PRESET_NAMES, preset_scenarios


@dataclass
class RunBundle:
    """One completed scenario run plus everything tests ask about it."""

    label: str
    cfg: ScenarioConfig
    rows: list[LogRow]
    outcome: RunOutcome
    metrics: Metrics
    elapsed: float


def run_bundle(label: str, cfg: ScenarioConfig) -> RunBundle:
    start = time.perf_counter()
    rows, outcome, mets = run_scenario(cfg)
    elapsed = time.perf_counter() - start
    return RunBundle(label, cfg, rows, outcome, mets, elapsed)


def _studies() -> dict[str, list[tuple[str, ScenarioConfig]]]:
    """The (label, cfg) pairs of every preset, plus the nominal engagement at
    half its step under ``table1-nominal-halfdt``."""
    studies = {name: preset_scenarios(name) for name in PRESET_NAMES}
    ((label, cfg),) = studies["table1-nominal"]
    studies["table1-nominal-halfdt"] = [(label + "-halfdt", replace(cfg, dt=cfg.dt / 2.0))]
    return studies


@pytest.fixture(scope="session")
def study_runs() -> dict[str, list[RunBundle]]:
    """The runs of ``_studies()``, by study name and in scenario order.

    Each distinct config runs once, on one process pool; equal configs
    (fig2-tf-sweep's tf50 is table1-nominal) share that run, each under its
    own label.
    """
    studies = _studies()
    labels: dict[ScenarioConfig, str] = {}
    for pairs in studies.values():
        for label, cfg in pairs:
            labels.setdefault(cfg, label)
    workers = min(os.cpu_count() or 1, len(labels))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        runs = dict(zip(labels, pool.map(run_bundle, labels.values(), labels)))
    return {
        name: [replace(runs[cfg], label=label) for label, cfg in pairs]
        for name, pairs in studies.items()
    }


@pytest.fixture(scope="session")
def nominal_run(study_runs) -> RunBundle:
    """Head-on 10 km engagement, 50 s impact time, constant bounds."""
    return study_runs["table1-nominal"][0]


@pytest.fixture(scope="session")
def nominal_half_dt_run(study_runs) -> RunBundle:
    return study_runs["table1-nominal-halfdt"][0]


@pytest.fixture(scope="session")
def tf_sweep_runs(study_runs) -> list[RunBundle]:
    return study_runs["fig2-tf-sweep"]


@pytest.fixture(scope="session")
def heading_sweep_runs(study_runs) -> list[RunBundle]:
    return study_runs["fig3-heading-sweep"]


@pytest.fixture(scope="session")
def rollcoupled_run(study_runs) -> RunBundle:
    return study_runs["fig4-rollcoupled"][0]


@pytest.fixture(scope="session")
def wingtail_run(study_runs) -> RunBundle:
    return study_runs["fig5-wingtail"][0]


@pytest.fixture(scope="session")
def planar_compare_runs(study_runs) -> list[RunBundle]:
    """Twelve planar runs: six impact-time/heading rows, shaped and baseline."""
    return study_runs["fig6-planar-compare"]


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
