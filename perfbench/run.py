"""itcsim benchmark: whole engagements through the public CLI, every output checked.

    python3 perfbench/run.py --workload nominal-3d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere; the repository root is the parent of this directory.
Workloads (see README.md in this directory for why each exists):

    nominal-3d    itcsim run --preset table1-nominal
    planar-batch  itcsim batch --preset fig6-planar-compare --jobs 2
    sweep-dense   seeded short-range 3D engagements at logStride 1, each
                  one ``itcsim run --config <generated file>``

``--trace 0`` times untraced passes for ``--seconds`` and reports the
end-to-end metrics as medians over the run: set-up time, wall time and
steps/s at a reference CPU speed (``HostSpeed``), and peak RSS.  ``--trace 1`` runs one untraced and two traced passes and
reports the per-layer metrics plus the tracing overhead.  The last line of
standard output is one JSON object; earlier lines are for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("nominal-3d", "planar-batch", "sweep-dense")

SWEEP_ENGAGEMENTS = 4  # engagements per sweep-dense pass
SETUP_PROBES_PER_PASS = 2  # set-up probes before each timed pass; setup_s is their median
SPEED_PERIOD_S = 0.1  # how often the host-speed monitor times its loop chunk
SPEED_CHUNK_ITERS = 8000  # iterations per chunk: about 1.5 ms of CPU
# Chunk CPU time that defines the reference CPU speed: what one chunk takes
# on a quiet 2-CPU Xeon host at 2.1 GHz under CPython 3.11.
REFERENCE_CHUNK_S = 1.5e-3
RSS_SAMPLE_S = 0.01  # process-tree RSS sampling period
REL_TOL = 1e-9  # allowed relative drift of preset outcomes from reference.json
EXIT_FOR_STATUS = {"intercepted": 0, "timeout": 2, "guard-tripped": 3}
BOUND_MODES = ("constant", "roll-coupled", "wing-tail")

# Per-layer counts that must repeat exactly across the two traced passes.
DETERMINISTIC = (
    "engine.steps",
    "engine.evals_per_step",
    "guidance3d.evaluate.calls",
    "guidance3d.capped_share",
    "guidance3d.diag_use_ratio",
    "guidance_planar.proposed.calls",
    "guidance_planar.baseline.calls",
    "kinematics.calls",
    "shaping.calls",
    "shaping.in_layer_share",
    "saturation.calls",
    "saturation.clip_share",
    "logio.rows",
    "logio.bytes",
    "metrics.fov_violation_runs",
    "config.validate.calls",
)


# --- workload plans -----------------------------------------------------------------


@dataclass
class Engagement:
    label: str  # names the output files
    cfg: object  # itcsim.config.ScenarioConfig
    reference: dict | None = None  # seed-commit outcome, for presets
    cli_label: str | None = None  # the metrics JSON label, when not ``label``


@dataclass
class Job:
    """One CLI invocation; ``args(pass_dir)`` builds its argument list."""

    engagements: list[Engagement]
    batch: bool
    args: Callable[[Path], list[str]]
    processes: int = 1  # busy processes while it runs


@dataclass
class Plan:
    jobs: list[Job]
    setup_args: list[str]  # arguments of setup_probe.py


def _run_args(label: str, source: list[str]):
    return lambda d: ["run", *source, "--out-traj", f"{d}/{label}.traj.csv",
                      "--out-metrics", f"{d}/{label}.metrics.json"]


def sweep_configs(seed: int, n: int) -> list[dict[str, str]]:
    """Seeded short-range 3D engagements; every draw comes from ``seed``.

    Engagement i draws its range from the i-th of n equal strata of 3-5 km and
    its commanded impact time from the (n-1-i)-th stratum of 5-35 % above the
    straight-flight time, so the shortest range carries the largest relative
    detour.  Every seed thus spans the whole band from easy to hard, and a
    pass's total work and its longest run (which sets peak memory) stay nearly
    the same from seed to seed: the seed-to-seed spread measures the program
    rather than the draw.  Launch lead (up to 30 deg per axis) is drawn
    freely; the bound schedules are dealt out in a seeded order so that all
    three run whenever n >= 3.  Every step is logged.
    """
    rng = random.Random(seed)
    modes = [BOUND_MODES[i % len(BOUND_MODES)] for i in range(n)]
    rng.shuffle(modes)
    out = []
    for i in range(n):
        range_km = 3.0 + 2.0 * (i + rng.random()) / n
        tf_factor = 1.05 + 0.30 * (n - 1 - i + rng.random()) / n
        out.append({
            "geometry.initialXKm": f"{-range_km:.4f}",
            "scenario.tf": f"{range_km * 4.0 * tf_factor:.4f}",
            "launch.elevationDeg": f"{rng.uniform(-30.0, 30.0):.3f}",
            "launch.azimuthDeg": f"{rng.uniform(-30.0, 30.0):.3f}",
            "saturation.boundMode": modes[i],
            "sim.logStride": "1",
        })
    return out


def make_plan(workload: str, seed: int, itc) -> Plan:
    reference = json.loads((HERE / "reference.json").read_text())
    if workload == "nominal-3d":
        (label, cfg), = itc.preset_scenarios("table1-nominal")
        eng = Engagement(label, cfg, reference[label])
        return Plan([Job([eng], False, _run_args(label, ["--preset", "table1-nominal"]))],
                    ["preset", "table1-nominal"])
    if workload == "planar-batch":
        engs = [Engagement(label, cfg, reference[label])
                for label, cfg in itc.preset_scenarios("fig6-planar-compare")]
        args = lambda d: ["batch", "--preset", "fig6-planar-compare", "--out-dir", str(d), "--jobs", "2"]
        return Plan([Job(engs, True, args, processes=2)], ["preset", "fig6-planar-compare"])
    # sweep-dense: the program receives only the generated config files.
    cfg_dir = WORK / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    jobs, paths = [], []
    for i, kv in enumerate(sweep_configs(seed, SWEEP_ENGAGEMENTS)):
        label = f"sweep{seed}-{i}"
        path = cfg_dir / f"{label}.cfg"
        path.write_text(f"# sweep-dense seed {seed} engagement {i}\n"
                        + "".join(f"{k} = {v}\n" for k, v in kv.items()))
        cfg = itc.load_config(str(path), environ={})
        jobs.append(Job([Engagement(label, cfg, cli_label="run")], False, _run_args(label, ["--config", str(path)])))
        paths.append(str(path))
    return Plan(jobs, ["configs", *paths])


# --- processes ------------------------------------------------------------------------


def clean_env() -> dict[str, str]:
    """The environment of every pass: no ITCSIM_* overrides, itcsim from src/."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ITCSIM_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _sample_tree_hwm(pid: int, hwm_kb: dict[int, int]) -> None:
    """Update ``hwm_kb`` with the VmHWM of ``pid`` and all its descendants."""
    todo = [pid]
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        hwm_kb[p] = max(hwm_kb.get(p, 0), int(line.split()[1]))
                        break
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except (OSError, ValueError):
            continue  # the process ended between listing and reading


@dataclass
class ProcResult:
    code: int
    wall_s: float
    peak_kb: int


def run_process(argv: list[str], log_prefix: Path) -> ProcResult:
    """Run one command to completion; time it and sample its tree's peak RSS.

    The peak is the sum over the command's process tree of each process's
    own high-water RSS (VmHWM), sampled every RSS_SAMPLE_S.  The kernel's
    ru_maxrss is no use here: it keeps the forking parent's high-water mark.
    """
    with open(f"{log_prefix}.out", "wb") as out, open(f"{log_prefix}.err", "wb") as err:
        t0 = time.perf_counter()
        # Its own session, so an aborted run can kill pool workers along with it.
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=clean_env(), cwd=ROOT,
                                start_new_session=True)
        hwm_kb: dict[int, int] = {}
        done = threading.Event()

        def sample() -> None:
            while not done.wait(RSS_SAMPLE_S):
                _sample_tree_hwm(proc.pid, hwm_kb)

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        try:
            proc.wait()
            wall = time.perf_counter() - t0
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:  # wait for orphaned pool workers too
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.01)
            raise
        finally:
            done.set()
            sampler.join()
    return ProcResult(proc.returncode, wall, sum(hwm_kb.values()))


def probe_setup(plan: Plan, reps: int) -> list[float]:
    """Fresh-interpreter set-up times of ``reps`` probes."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), *plan.setup_args]
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=clean_env(), cwd=ROOT, capture_output=True)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.decode()[-2000:]}")
    return times


def _speed_chunk() -> float:
    """CPU seconds this thread spends on a fixed pure-Python float loop."""
    x, acc = 0.1, 0.0
    t0 = time.thread_time()
    for _ in range(SPEED_CHUNK_ITERS):
        s, c = math.sin(x), math.cos(x)
        t = (s * c, s + c, x * 0.5)
        acc += t[0] - t[1] * t[2]
        x += 1e-4
    return time.thread_time() - t0


class HostSpeed:
    """Tracks the host's CPU speed while a run goes on.

    The speed of this shared host drifts by up to 1.8x within minutes, and
    the program is pure-Python arithmetic that slows with it, so wall times
    from different minutes are not comparable.  A background thread times a
    fixed loop chunk every SPEED_PERIOD_S in thread CPU time (immune to
    being descheduled), using about 2 % of one CPU.  ``scale`` turns a wall
    time measured over a window into seconds at the reference speed.

    A chunk measures the host only when a CPU is free for it: while a job
    keeps every CPU busy the chunk measures its contention with the job
    instead, so such a job keeps its wall time as measured (scale 1).
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter, chunk CPU s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(SPEED_PERIOD_S):
            self.samples.append((time.perf_counter(), _speed_chunk()))

    def __enter__(self) -> "HostSpeed":
        self.samples.append((time.perf_counter(), _speed_chunk()))
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, t0: float, t1: float) -> float:
        """Reference over actual speed for the window [t0, t1].

        The median chunk, not the mean, so that a chunk slowed by a context
        switch does not count as a slow host; the whole run's chunks if none
        fell inside the window.
        """
        inside = [c for t, c in self.samples if t0 <= t <= t1] or [c for _, c in self.samples]
        return REFERENCE_CHUNK_S / statistics.median(inside)

    def pass_scale(self, windows: list[tuple[float, float, bool]]) -> float:
        """Scale of a pass: its jobs' scales weighted by their wall times."""
        ref = sum((b - a) * (1.0 if busy else self.scale(a, b)) for a, b, busy in windows)
        return ref / sum(b - a for a, b, _ in windows)


# --- output checks ----------------------------------------------------------------------


def _rel_diff(a: float | None, b: float | None) -> float:
    if a is None or b is None:
        return 0.0 if a is b else math.inf
    return abs(a - b) / max(abs(b), 1e-300)


def _clean(value):
    return None if isinstance(value, float) and not math.isfinite(value) else value


@dataclass
class Checked:
    label: str
    status: str | None = None
    steps: int = 0
    digest: str = ""
    reasons: list[str] = field(default_factory=list)


def check_engagement(eng: Engagement, pass_dir: Path, itc) -> Checked:
    """Every per-engagement failure rule except those on the exit code."""
    res = Checked(eng.label)
    traj = pass_dir / f"{eng.label}.traj.csv"
    mets = pass_dir / f"{eng.label}.metrics.json"
    try:
        payload = json.loads(mets.read_text())
        log = itc.read_trajectory_csv(str(traj))
        res.digest = hashlib.sha256(traj.read_bytes() + mets.read_bytes()).hexdigest()
    except (OSError, ValueError, TypeError) as exc:
        res.reasons.append(f"outputs unreadable: {exc}")
        return res
    res.status = payload.get("status")
    if res.status not in EXIT_FOR_STATUS:
        res.reasons.append(f"status {res.status!r}")
    if not log.rows:
        res.reasons.append("empty trajectory")
        return res
    res.steps = round(log.rows[-1].t / eng.cfg.dt)
    # The unclipped comparison law logs its configured bound, +inf, in aYMax;
    # that is the setting, not a computed value.  NaN is never allowed.
    infinite_bound = math.inf if eng.cfg.law == "baseline" and math.isinf(eng.cfg.a_clip_g) else None
    if not all(math.isfinite(v) or v == infinite_bound for row in log.rows for v in row.values()):
        res.reasons.append("non-finite logged value")
    recomputed = itc.interception_metrics(
        log, t_final=eng.cfg.tf, sigma_max=math.radians(eng.cfg.sigma_max_deg),
        hit_radius=eng.cfg.hit_radius,
    ).to_dict()
    differ = [k for k, v in recomputed.items() if _clean(v) != payload.get(k, "missing")]
    if differ or payload.get("label") != (eng.cli_label or eng.label):
        res.reasons.append(f"metrics JSON differs from the re-read CSV: {differ or ['label']}")
    if payload.get("accelViolations", 0) > 0:
        res.reasons.append(f"accelViolations = {payload['accelViolations']}")
    ref = eng.reference
    if ref is not None:
        if res.status != ref["status"]:
            res.reasons.append(f"status {res.status} != reference {ref['status']}")
        for key in ("impactTime", "controlEffort"):
            if _rel_diff(payload.get(key), ref[key]) > REL_TOL:
                res.reasons.append(f"{key} {payload.get(key)!r} != reference {ref[key]!r}")
    return res


def check_job(job: Job, code: int, pass_dir: Path, itc) -> list[Checked]:
    results = [check_engagement(eng, pass_dir, itc) for eng in job.engagements]
    if not job.batch:
        res = results[0]
        if res.status in EXIT_FOR_STATUS and code != EXIT_FOR_STATUS[res.status]:
            res.reasons.append(f"exit code {code} disagrees with status {res.status}")
        elif res.status not in EXIT_FOR_STATUS:
            res.reasons.append(f"exit code {code}")
        return results
    expected = 0 if all(r.status == "intercepted" for r in results) else 1
    if code != expected:
        for res in results:
            res.reasons.append(f"batch exit code {code}, statuses imply {expected}")
    # The batch report must carry each run's impact time and effort.
    try:
        with open(pass_dir / "report.csv") as fh:
            rows = {line.split(",")[0]: line.rstrip("\n").split(",") for line in fh}
    except OSError:
        rows = {}
    for res in results:
        try:
            payload = json.loads((pass_dir / f"{res.label}.metrics.json").read_text())
        except (OSError, ValueError):
            continue  # already failed as unreadable
        impact = payload["impactTime"]
        want = [res.label, "nan" if impact is None else f"{impact:.17g}",
                f"{payload['controlEffort']:.17g}"]
        row = rows.get(res.label)
        if row is None or [row[0], row[1], row[3]] != want:
            res.reasons.append("batch report row missing or differs from the metrics JSON")
    return results


# --- passes -----------------------------------------------------------------------------


@dataclass
class PassResult:
    wall_s: float  # as measured
    steps: int
    peak_kb: int
    checked: list[Checked]
    traces: list[dict]
    windows: list[tuple[float, float, bool]]  # each job's (start, end, used every CPU)


def run_pass(plan: Plan, name: str, itc, traced: bool, speed: HostSpeed) -> PassResult:
    pass_dir = WORK / "passes" / name
    pass_dir.mkdir(parents=True)
    wall, peak, checked, traces, windows = 0.0, 0, [], [], []
    for i, job in enumerate(plan.jobs):
        cli_args = job.args(pass_dir)
        if traced:
            trace_path = pass_dir / f"job{i}.trace.json"
            argv = [sys.executable, str(HERE / "tracer.py"), "--out", str(trace_path),
                    "--run-id", f"{name}/job{i}", "--", *cli_args]
        else:
            argv = [sys.executable, "-m", "itcsim.cli", *cli_args]
        t0 = time.perf_counter()
        proc = run_process(argv, pass_dir / f"job{i}")
        windows.append((t0, time.perf_counter(), job.processes >= (os.cpu_count() or 1)))
        wall += proc.wall_s
        peak = max(peak, proc.peak_kb)
        results = check_job(job, proc.code, pass_dir, itc)
        if any(r.reasons for r in results):
            err = (pass_dir / f"job{i}.err").read_text()[-1500:]
            print(f"  {name} job {i} stderr tail:\n{err}", file=sys.stderr)
        checked.extend(results)
        if traced:
            try:
                traces.append(json.loads(trace_path.read_text()))
            except (OSError, ValueError):
                traces.append({})
    shutil.rmtree(pass_dir)
    return PassResult(wall, sum(c.steps for c in checked), peak, checked, traces, windows)


def count_failures(passes: list[PassResult]) -> tuple[int, int]:
    """(attempted, failed) engagements; outputs must also repeat pass to pass."""
    first = {c.label: c.digest for c in passes[0].checked}
    attempted = failed = 0
    for i, p in enumerate(passes):
        for c in p.checked:
            if c.digest and c.digest != first[c.label]:
                c.reasons.append("outputs differ from the first pass")
            attempted += 1
            if c.reasons:
                failed += 1
                print(f"  FAILED pass {i} {c.label}: {'; '.join(c.reasons)}", file=sys.stderr)
    return attempted, failed


# --- per-layer metrics from traces ---------------------------------------------------------


def layer_metrics(traces: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced pass, summed over its jobs."""
    rec: dict[str, list[float]] = {}
    cnt: dict[str, float] = {}
    problems = []
    for tr in traces:
        if not tr:
            problems.append("a traced job wrote no trace")
            continue
        for name, r in tr["records"].items():
            mine = rec.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                mine[i] += r[i]
        for key, val in tr["counters"].items():
            cnt[key] = cnt.get(key, 0) + val

    def calls(*names):
        return sum(rec.get(n, [0, 0, 0])[0] for n in names)

    def self_s(*names):
        return sum(rec.get(n, [0, 0, 0])[1] for n in names)

    def total_s(*names):
        return sum(rec.get(n, [0, 0, 0])[2] for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    kin = [n for n in rec if n.startswith("kinematics.")]
    evals = calls("guidance3d.evaluate", "guidance_planar.proposed.evaluate",
                  "guidance_planar.baseline.evaluate")
    steps = calls("engine.rk4_step")
    pool_wait = cnt.get("cli.pool_wait_s", 0.0)
    busy = total_s("cli.batch_worker") if pool_wait else 0.0
    writes = ("logio.write_trajectory_csv", "logio.write_metrics_json", "logio.write_report_csv")
    m = {
        "guidance3d.evaluate.calls": calls("guidance3d.evaluate"),
        "guidance3d.evaluate.self_s": self_s("guidance3d.evaluate"),
        "guidance3d.log_row.self_s": self_s("guidance3d.log_row"),
        "guidance3d.capped_share": ratio(cnt.get("guidance3d.capped", 0), calls("guidance3d.evaluate")),
        "guidance3d.diag_use_ratio": ratio(calls("guidance3d.log_row"), calls("guidance3d.evaluate")),
        "guidance_planar.proposed.calls": calls("guidance_planar.proposed.evaluate"),
        "guidance_planar.proposed.self_s": self_s("guidance_planar.proposed.evaluate",
                                                  "guidance_planar.proposed.log_row"),
        "guidance_planar.baseline.calls": calls("guidance_planar.baseline.evaluate"),
        "guidance_planar.baseline.self_s": self_s("guidance_planar.baseline.evaluate",
                                                  "guidance_planar.baseline.log_row"),
        "kinematics.calls": calls(*kin),
        "kinematics.self_s": self_s(*kin),
        "shaping.calls": calls("shaping.shaping_rates"),
        "shaping.self_s": self_s("shaping.shaping_rates"),
        "shaping.in_layer_share": ratio(cnt.get("shaping.in_layer", 0), calls("shaping.shaping_rates")),
        "saturation.calls": calls("saturation.axis_brackets", "saturation.clip_command"),
        "saturation.self_s": self_s("saturation.axis_brackets", "saturation.clip_command"),
        "saturation.clip_share": ratio(cnt.get("saturation.clipped", 0), calls("saturation.clip_command")),
        "engine.steps": steps,
        "engine.evals_per_step": ratio(evals, steps),
        "engine.self_s": self_s("engine.simulate", "engine.rk4_step"),
        "logio.rows": cnt.get("logio.rows", 0),
        "logio.bytes": cnt.get("logio.bytes", 0),
        "logio.write_s": total_s(*writes),
        "metrics.self_s": self_s("metrics.interception_metrics", "metrics.compare_report"),
        "metrics.fov_violation_runs": cnt.get("metrics.fov_violation_runs", 0),
        "config.load_s": total_s("config.load_config"),
        "config.validate.calls": calls("config.validate"),
        "cli.pool_wait_s": pool_wait,
        "cli.worker_busy_s": busy,
        "cli.pool_efficiency": ratio(busy, cnt.get("cli.pool_workers", 0) * pool_wait),
    }
    return m, problems


def lost_worker_numbers(plan: Plan, traces: list[dict]) -> list[str]:
    """Labels of batch tasks whose worker numbers never reached the parent."""
    lost = []
    for job, tr in zip(plan.jobs, traces):
        if job.batch:
            got = {w["label"] for w in tr.get("workers", [])}
            lost += [e.label for e in job.engagements if e.label not in got]
    return lost


# --- reporting ---------------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


UNITS = {"setup_s": "s", "wall_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio", "_efficiency", "per_step")):
        return "ratio"
    return "bytes" if name.endswith("bytes") else "count"


def timed_run(plan: Plan, seconds: float, itc, record: dict):
    """Untraced passes for ``seconds``; the end-to-end metrics at reference speed."""
    probe_setup(plan, 1)  # untimed: fills the .pyc cache
    probes: list[tuple[float, float, list[float]]] = []
    passes: list[PassResult] = []
    with HostSpeed() as speed:
        t_start = time.perf_counter()
        # Set-up probes are spread between passes so that their median, like
        # the passes', covers the whole run.
        while not passes or time.perf_counter() - t_start < seconds:
            t0 = time.perf_counter()
            times = probe_setup(plan, SETUP_PROBES_PER_PASS)
            probes.append((t0, time.perf_counter(), times))
            passes.append(run_pass(plan, f"pass{len(passes)}", itc, False, speed))
    # The probes take a fraction of a second: a window widened by a second
    # gives a steadier speed estimate.
    setup = [t * speed.scale(t0 - 1.0, t1) for t0, t1, times in probes for t in times]
    scales = [speed.pass_scale(p.windows) for p in passes]
    walls = [p.wall_s * k for p, k in zip(passes, scales)]
    rates = [p.steps / w for p, w in zip(passes, walls)]
    peaks = [p.peak_kb / 1024.0 for p in passes]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "steps_per_s": statistics.median(rates),
        "peak_rss_mb": statistics.median(peaks),
    }
    record.update(setup_reps=len(setup), setup_ref_s=setup, repeat_count=len(passes),
                  pass_wall_s=[p.wall_s for p in passes], pass_speed_scale=scales,
                  pass_steps=[p.steps for p in passes], pass_peak_mb=peaks)
    print(f"  repeat count: {len(passes)} passes of {len(passes[0].checked)} engagements, "
          f"{passes[0].steps} RK4 steps each; set-up probed {len(setup)} times")
    print(f"  wall time as measured: median {statistics.median(p.wall_s for p in passes):.4f} s; "
          f"host speed scale {min(scales):.3f} .. {max(scales):.3f}")
    for name, vals in (("setup_s", setup), ("wall_s", walls), ("steps_per_s", rates),
                       ("peak_rss_mb", peaks)):
        q1, med, q3 = quartiles(vals)
        print(f"  {name:<12} {med:>14.6g} {UNITS[name]:<4} (median; quartiles {q1:.6g} .. {q3:.6g})")
    return values, passes


def traced_run(plan: Plan, workload: str, seed: int, itc, record: dict):
    """One untraced and two traced passes; the per-layer metrics and tracing overhead."""
    with HostSpeed() as speed:
        untraced = run_pass(plan, "untraced", itc, False, speed)
        traced = [run_pass(plan, f"traced{i}", itc, True, speed) for i in range(2)]
    scales = [speed.pass_scale(p.windows) for p in (untraced, *traced)]
    per_pass, problems = [], []
    for p, k in zip(traced, scales[1:]):
        m, probs = layer_metrics(p.traces)
        # Layer times, like wall times, at the reference CPU speed.
        per_pass.append({n: v * k if n.endswith("_s") else v for n, v in m.items()})
        problems += probs
        lost = lost_worker_numbers(plan, p.traces)
        if lost:
            problems.append(f"worker numbers lost for {lost}")
    unrepeated = [n for n in DETERMINISTIC if per_pass[0][n] != per_pass[1][n]]
    problems += [f"{n} differs across traced passes: {per_pass[0][n]} vs {per_pass[1][n]}"
                 for n in unrepeated]
    values = {k: (v if k in DETERMINISTIC else statistics.mean(m[k] for m in per_pass))
              for k, v in per_pass[0].items()}
    ref_wall = [p.wall_s * k for p, k in zip((untraced, *traced), scales)]
    values["trace.overhead_s"] = statistics.mean(ref_wall[1:]) - ref_wall[0]
    spans = [s for p in traced for tr in p.traces for s in tr.get("spans", [])]
    span_path = WORK / f"spans-{workload}-seed{seed}.json"
    span_path.write_text(json.dumps(spans))
    record.update(repeat_count=len(traced), pass_wall_s=[p.wall_s for p in (untraced, *traced)],
                  pass_speed_scale=scales, problems=problems)
    for msg in problems:
        print(f"  TRACE PROBLEM: {msg}", file=sys.stderr)
    print(f"  traced run at reference speed: untraced pass {ref_wall[0]:.3f} s, traced passes "
          f"{ref_wall[1]:.3f} s / {ref_wall[2]:.3f} s; {len(spans)} spans in {span_path.name}")
    print(f"  deterministic counts repeat across traced passes: {not unrepeated}")
    for name, val in values.items():
        print(f"  {name:<34} {val:>16.8g} {layer_unit(name)}")
    return values, [untraced, *traced]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, itc) -> dict:
    load_start = os.getloadavg()
    shutil.rmtree(WORK / "passes", ignore_errors=True)
    plan = make_plan(workload, seed, itc)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(), "loadavg_start": load_start,
    }
    print(f"{workload} seed {seed}: python {record['python']}, {record['cpu_count']} CPUs, "
          f"load average at start {' '.join(f'{x:.2f}' for x in load_start)}")

    if trace:
        values, passes = traced_run(plan, workload, seed, itc, record)
    else:
        values, passes = timed_run(plan, seconds, itc, record)
    attempted, failed = count_failures(passes)
    correct = failed == 0 and not record.get("problems")

    if workload == "sweep-dense":
        mix = {s: sum(c.status == s for c in passes[0].checked) for s in EXIT_FOR_STATUS}
        print(f"  sweep-dense seed {seed} status mix: "
              + ", ".join(f"{n} {s}" for s, n in mix.items()))
    print(f"  fail_share {failed / attempted:.4g} ({failed} of {attempted} engagements attempted)")
    shutil.rmtree(WORK / "passes", ignore_errors=True)

    units = {k: (UNITS.get(k) or layer_unit(k)) for k in values}
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    record.update(loadavg_end=os.getloadavg(), result=result)
    (WORK / f"record-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like Ctrl-C, so the running pass's processes are killed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "itcsim" / "cli.py").is_file():
        print(f"perfbench: no itcsim sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import itcsim

    WORK.mkdir(exist_ok=True)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace), itcsim)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
