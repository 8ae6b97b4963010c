"""Every config drawn across the whole key space runs, or fails to build by name.

A seeded stdlib ``random.Random`` makes a fixed number of draws, so every
session checks the same configs.  In most draws each ``ScenarioConfig``
field, with probability 1/2, takes a value from a pool of its default and
extremes far outside the engagement envelope; the rest are short planar
engagements inside it, so the interception checks run too.  A draw whose
build raises ``ConfigError`` has failed by name, which passes.  Each other
draw runs at log strides 1 and 7, streamed through a ``TrajectoryWriter``,
and must:

- raise nothing;
- log only finite values, except the unclipped comparison law's +inf aYMax;
- end with a message and warnings of at most 200 characters;
- carry an impact time if it intercepted;
- score the same ``Metrics`` from its re-read CSV as it streamed;
- break no acceleration bound under a shaped law;
- end with the same status, guard, final time, message and last row at
  both strides.

The field-of-view property is not checked: known engagements break it in
the terminal phase.  Of the 160 draws of seed 3, 107 fail to build and 19
are skipped as too long; the 34 runs end as 9 overflow and 9
denominator-singular guard trips, 7 timeouts, 8 interceptions (7 of the
10 engagements) and 1 range-floor trip, in about 3 s on a 2-CPU host.
Seeds 2, 4 and 5 also pass, in 4-7 s.
"""

from __future__ import annotations

import math
import random
from dataclasses import fields, replace

from itcsim.config import LAWS, MODES, ScenarioConfig, run_scenario
from itcsim.engine import T_MAX_FACTOR, RunStatus
from itcsim.errors import ConfigError
from itcsim.logio import TrajectoryWriter, read_trajectory_csv
from itcsim.metrics import interception_metrics
from itcsim.saturation import BoundMode

SEED = 3
DRAWS = 160
# Every this-many-th draw is a short planar engagement.
ENGAGEMENT_EVERY = 16
# Draws that run longer than this are skipped, which bounds the test's time.
MAX_STEPS = 10_000
MAX_TEXT = 200

# Each field's default first, then its extremes.  log_stride is drawn so
# the build checks it; every run then overrides it with STRIDES.
POOLS: dict[str, tuple] = {
    "mode": MODES,
    "law": LAWS,
    "speed": (250.0, 2.5e-15, 1e-3, 30.0, 1e4, 1e154),
    "tf": (50.0, 1e-3, 0.5, 2.0, 6.0, 1e15),
    "initial_x_km": (-10.0, -1e-3, -0.5, -2.0, 3.0, -1e100),
    "initial_y_km": (0.0, 1e-3, -0.4, 2.0, -1e100),
    "initial_z_km": (0.0, 1e-3, 0.3, -1.5),
    "elevation_deg": (-10.0, 0.0, 45.0, -89.0, 90.0, 180.0),
    "azimuth_deg": (10.0, 0.0, -30.0, 89.9, 179.0, -360.0),
    "k1": ("auto", 1e-12, 0.2, 0.49, 1.0, 1e300),
    "k2": (1.0, 1e-12, 0.1, 1e4, 1e300),
    "k3": (1.0, 1e-12, 0.1, 1e4, 1e300),
    "k4": (1.0, 1e-12, 0.1, 1e4, 1e300),
    "ky": (7.0, 1e-12, 0.5, 1e4, 1e300),
    "kz": (7.0, 1e-12, 0.5, 1e4, 1e300),
    "a_clip_g": (math.inf, 1e-12, 1.5, 1e300),
    "phi": (300.0, 1e-12, 1.0, 50.0, 1e300),
    "sigma_max_deg": (60.0, 1e-6, 10.0, 89.0, 90.0, 179.0),
    "n": (2, 1, 3, 10, 1000),
    "rho": (0.1, 1e-12, 0.5, 1.0, 1e300),
    "bound_mode": tuple(m.value for m in BoundMode),
    "a_max_g": (10.0, 1e-12, 1.0, 5.0, 1e150),
    "a_max_l_g": (1.0, 1e-12, 5.0, 1e150),
    "dt": (1e-3, 1e-4, 1e-2, 0.1, 1.0),
    "hit_radius": (1.0, 1e-9, 0.01, 50.0),
    "log_stride": (10, 1, 7, 13),
}
STRIDES = (1, 7)


def draw(rng: random.Random, engagement: bool) -> dict[str, object]:
    """One draw's overrides of the nominal ``ScenarioConfig``."""
    if engagement:
        # 0.5-1 km, a launch lead within 30 deg, t_f 5-35 % above straight flight.
        x_km = rng.uniform(0.5, 1.0)
        return {
            "mode": "planar",
            "law": rng.choice(LAWS),
            "initial_x_km": -x_km,
            "azimuth_deg": rng.uniform(-30.0, 30.0),
            "tf": x_km * 1e3 / ScenarioConfig.speed * rng.uniform(1.05, 1.35),
        }
    return {name: rng.choice(pool) for name, pool in POOLS.items() if rng.random() < 0.5}


def check_run(cfg: ScenarioConfig, tmp_path) -> None:
    """Run ``cfg`` at each of ``STRIDES`` and check every property above."""
    sigma_max = cfg.shaping_params().sigma_max
    shaped = cfg.law == "proposed"
    unclipped = cfg.law == "baseline" and cfg.a_clip_g == math.inf
    endings = []
    for stride in STRIDES:
        path = str(tmp_path / f"stride{stride}.csv")
        with TrajectoryWriter(path) as sink:
            _, outcome, streamed = run_scenario(replace(cfg, log_stride=stride), sink)
        log = read_trajectory_csv(path)
        rows = log.rows
        for row in rows:
            if unclipped and row.a_y_max == math.inf:
                row = row._replace(a_y_max=0.0)
            assert all(map(math.isfinite, row)), (stride, row)
        for text in (outcome.message, *outcome.warnings):
            assert len(text) <= MAX_TEXT, text
        if outcome.status is RunStatus.INTERCEPTED:
            assert streamed.impact_time is not None, outcome
        reread = interception_metrics(log, cfg.tf, sigma_max, cfg.hit_radius)
        assert repr(reread) == repr(streamed), stride
        if shaped:
            assert streamed.accel_violations == 0, (stride, streamed)
        endings.append(
            (outcome.status, outcome.guard, outcome.final_time, outcome.message, rows[-1:])
        )
    assert endings[0] == endings[1]


def test_every_drawn_config_runs_or_fails_by_name(tmp_path):
    assert list(POOLS) == [f.name for f in fields(ScenarioConfig)]
    rng = random.Random(SEED)
    for i in range(DRAWS):
        overrides = draw(rng, i % ENGAGEMENT_EVERY == 0)
        try:
            cfg = ScenarioConfig(**overrides)
        except ConfigError:
            continue
        if T_MAX_FACTOR * cfg.tf / cfg.dt > MAX_STEPS:
            continue
        try:
            check_run(cfg, tmp_path)
        except Exception as exc:
            raise AssertionError(f"draw {i}: {overrides}") from exc
