"""Scenario configuration: flat key-value files, env overrides, validation.

The on-disk format is one `section.key = value` pair per line (`#` comments,
blank lines ignored), chosen so configs stay trivially parseable and
diff-friendly.  Angles and acceleration limits are human units here (degrees,
g); everything is converted to radians and m/s^2 when the scenario is built.
Any key can also be overridden from the environment as
``ITCSIM_<SECTION>_<KEY>`` (case-insensitive, e.g. ``ITCSIM_SATURATION_RHO``).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Mapping

from .engine import RunOutcome, SimSettings, simulate
from .errors import ConfigError, ParseError, ValidationError
from .guidance3d import Guidance3D
from .guidance_planar import BaselinePlanar, GuidancePlanar
from .kinematics import EPS_COS
from .logio import LogRow, RowSink, TrajectoryLog

# run_scenario scores its rows with a MetricsFold as they come, and calls no
# interception_metrics; perfbench/tracer.py still wraps that name here.
from .metrics import Metrics, MetricsFold, interception_metrics  # noqa: F401
from .saturation import BoundMode, SaturationParams
from .shaping import ShapingParams

ENV_PREFIX = "ITCSIM_"

MODES = ("3d", "planar")
LAWS = ("proposed", "baseline")
# Longest run and largest log a config may ask for.
MAX_STEPS = 10_000_000
MAX_LOG_ROWS = 1_000_000


def _parse_k1(text: str) -> float | str:
    return "auto" if text == "auto" else float(text)


def _key(key: str, default: object, parse: Callable[[str], object] | None = None):
    """A ``ScenarioConfig`` field with its config-file key and value parser
    (the type of the default unless given)."""
    return field(default=default, metadata={"key": key, "parse": parse or type(default)})


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario in raw config units (degrees, g, km).

    Field defaults are the nominal 3D engagement: a 250 m/s interceptor
    10 km down-range of a fixed target, commanded to hit at 50 s, launched
    with (-10 deg, 10 deg) heading offsets, 60 deg field of view, 10 g
    acceleration limit.  ``k1 = "auto"`` resolves to 1 - cos(sigma_max) - 0.01.
    """

    mode: str = _key("scenario.mode", "3d")
    law: str = _key("scenario.law", "proposed")
    speed: float = _key("scenario.speed", 250.0)
    tf: float = _key("scenario.tf", 50.0)
    initial_x_km: float = _key("geometry.initialXKm", -10.0)
    initial_y_km: float = _key("geometry.initialYKm", 0.0)
    initial_z_km: float = _key("geometry.initialZKm", 0.0)
    target_x_km: float = _key("geometry.targetXKm", 0.0)
    target_y_km: float = _key("geometry.targetYKm", 0.0)
    target_z_km: float = _key("geometry.targetZKm", 0.0)
    elevation_deg: float = _key("launch.elevationDeg", -10.0)
    azimuth_deg: float = _key("launch.azimuthDeg", 10.0)
    k1: float | str = _key("gains.k1", "auto", _parse_k1)
    k2: float = _key("gains.k2", 1.0)
    k3: float = _key("gains.k3", 1.0)
    k4: float = _key("gains.k4", 1.0)
    ky: float = _key("gains.ky", 7.0)
    kz: float = _key("gains.kz", 7.0)
    a_clip_g: float = _key("baseline.aClipG", math.inf)
    phi: float = _key("shaping.phi", 300.0)
    sigma_max_deg: float = _key("shaping.sigmaMaxDeg", 60.0)
    eps_sin: float = _key("shaping.epsSin", 1e-3)
    n: int = _key("saturation.n", 2)
    rho: float = _key("saturation.rho", 0.1)
    bound_mode: str = _key("saturation.boundMode", "constant")
    a_max_g: float = _key("saturation.aMaxG", 10.0)
    a_max_l_g: float = _key("saturation.aMaxLG", 1.0)
    g: float = _key("saturation.g", 9.81)
    b_cap: float = _key("saturation.bCap", 5000.0)
    dt: float = _key("sim.dt", 1e-3)
    hit_radius: float = _key("sim.hitRadius", 1.0)
    t_max_factor: float = _key("sim.tMaxFactor", 1.5)
    log_stride: int = _key("sim.logStride", 10)

    # --- Resolved views -------------------------------------------------

    def resolved_k1(self) -> float:
        if self.k1 == "auto":
            return 1.0 - math.cos(math.radians(self.sigma_max_deg)) - 0.01
        return float(self.k1)

    def shaping_params(self) -> ShapingParams:
        return ShapingParams(
            k1=self.resolved_k1(),
            phi=self.phi,
            sigma_max=math.radians(self.sigma_max_deg),
            eps_sin=self.eps_sin,
        )

    def saturation_params(self) -> SaturationParams:
        return SaturationParams(
            n=self.n,
            rho=self.rho,
            a_max=self.a_max_g * self.g,
            a_max_l=self.a_max_l_g * self.g,
            mode=BoundMode(self.bound_mode),
            b_cap=self.b_cap,
        )

    def sim_settings(self) -> SimSettings:
        return SimSettings(
            dt=self.dt,
            hit_radius=self.hit_radius,
            t_max_factor=self.t_max_factor,
            log_stride=self.log_stride,
        )

    def target_m(self) -> tuple[float, float, float]:
        return (self.target_x_km * 1e3, self.target_y_km * 1e3, self.target_z_km * 1e3)

    def _line_of_sight(self) -> tuple[float, float, float, float]:
        """Offsets dx, dy, dz from interceptor to target and the initial
        range r0, m; a planar range lies in the x-y plane."""
        dx = (self.target_x_km - self.initial_x_km) * 1e3
        dy = (self.target_y_km - self.initial_y_km) * 1e3
        dz = (self.target_z_km - self.initial_z_km) * 1e3
        if self.mode == "planar":
            return dx, dy, dz, math.hypot(dx, dy)
        return dx, dy, dz, math.sqrt(dx * dx + dy * dy + dz * dz)

    def initial_state(self) -> tuple[float, ...]:
        dx, dy, dz, r0 = self._line_of_sight()
        if self.mode == "planar":
            theta0 = math.atan2(dy, dx)
            sigma0 = math.radians(self.azimuth_deg)
            if self.law == "baseline":
                return (r0, theta0, sigma0)
            return (r0, theta0, sigma0, 0.0)
        theta0 = math.asin(dz / r0)
        psi0 = math.atan2(dy, dx)
        return (
            r0,
            theta0,
            psi0,
            math.radians(self.elevation_deg),
            math.radians(self.azimuth_deg),
            0.0,
            0.0,
        )

    def make_law(self) -> Guidance3D | GuidancePlanar | BaselinePlanar:
        shaping = self.shaping_params()
        if self.mode == "3d":
            return Guidance3D(
                speed=self.speed,
                t_final=self.tf,
                shaping=shaping,
                sat=self.saturation_params(),
                k3=self.k3,
                k4=self.k4,
                ky=self.ky,
                kz=self.kz,
                target=self.target_m(),
            )
        if self.law == "baseline":
            return BaselinePlanar(
                speed=self.speed,
                t_final=self.tf,
                shaping=shaping,
                k2=self.k2,
                a_clip=self.a_clip_g * self.g,
                target=self.target_m(),
            )
        return GuidancePlanar(
            speed=self.speed,
            t_final=self.tf,
            shaping=shaping,
            sat=self.saturation_params(),
            k2=self.k2,
            ky=self.ky,
            target=self.target_m(),
        )

    # --- Validation --------------------------------------------------------

    def validate(self) -> None:
        """Check every value; errors name the config key.

        Rules on the shaping, saturation and integration parameters belong to
        their parameter objects; only the rules no such object owns live here.
        """
        for key, (name, _) in KEYS.items():
            value = getattr(self, name)
            if not isinstance(value, float) or math.isfinite(value):
                continue
            if name != "a_clip_g" or math.isnan(value):  # aClipG = inf means no clip
                raise ValidationError(f"{key} must be finite, got {value}")
        if self.mode not in MODES:
            raise ValidationError(f"scenario.mode must be one of {MODES}, got '{self.mode}'")
        if self.law not in LAWS:
            raise ValidationError(f"scenario.law must be one of {LAWS}, got '{self.law}'")
        if self.law == "baseline" and self.mode != "planar":
            raise ValidationError("scenario.law = baseline requires scenario.mode = planar")
        for name in ("speed", "tf", "k2", "k3", "k4", "ky", "kz", "g"):
            value = getattr(self, name)
            if value <= 0.0:
                raise ValidationError(f"{_FIELD_TO_KEY[name]} must be > 0, got {value}")
        bound_modes = tuple(m.value for m in BoundMode)
        if self.bound_mode not in bound_modes:
            raise ValidationError(
                f"saturation.boundMode must be one of {bound_modes}, got '{self.bound_mode}'"
            )
        if self.a_clip_g <= 0.0:
            raise ValidationError(f"baseline.aClipG must be > 0 (inf for no clip), got {self.a_clip_g}")
        if self.mode == "planar" and self.initial_z_km != self.target_z_km:
            raise ValidationError(
                "geometry.initialZKm must equal geometry.targetZKm in planar mode"
            )
        # The range of the state initial_state builds, checked before its
        # asin(dz / r0) can divide by zero.
        r0 = self._line_of_sight()[3]
        if not 1.0 <= r0 < math.inf:
            raise ValidationError(
                f"geometry.initial*/target*: initial range must be >= 1 m and finite, got {r0:g} m"
            )
        if self.hit_radius >= r0:
            raise ValidationError(
                f"sim.hitRadius = {self.hit_radius}: must be below the initial range {r0:.1f} m"
            )
        # The 3D law's polar guard would trip on the first row of a vertical
        # line of sight; the same test here names the keys instead.
        if self.mode == "3d" and abs(math.cos(self.initial_state()[1])) < EPS_COS:
            raise ValidationError(
                f"geometry.initial*/target*: line of sight is vertical "
                f"(|cos(theta0)| < {EPS_COS:g})"
            )
        for params in (self.shaping_params(), self.saturation_params(), self.sim_settings()):
            try:
                params.validate()
            except ConfigError as exc:
                name = _OWNER_FIELD.get(exc.field, exc.field)
                culprit = f"{_FIELD_TO_KEY[name]} = {getattr(self, name)}"
                if name in ("a_max_g", "a_max_l_g") and self._g_breaks(exc.field):
                    culprit = (
                        f"{_FIELD_TO_KEY[name]} × saturation.g = "
                        f"{getattr(self, name)} × {self.g}"
                    )
                raise ValidationError(f"{culprit}: {exc}") from None
        # Bound a run's length and its log (a 3D CSV row is about 470 B) at
        # the timeout; ceil(steps) > N exactly when steps > N for a whole N.
        steps = self.t_max_factor * self.tf / self.dt
        if steps > MAX_STEPS:
            raise ValidationError(
                f"sim.dt = {self.dt}: a run of up to {steps:.3g} steps "
                f"(sim.tMaxFactor * scenario.tf / sim.dt) exceeds the {MAX_STEPS:g}-step limit"
            )
        if steps / self.log_stride > MAX_LOG_ROWS:
            raise ValidationError(
                f"sim.logStride = {self.log_stride}: a log of up to {steps / self.log_stride:.3g} "
                f"rows exceeds the {MAX_LOG_ROWS:g}-row limit"
            )

    def _g_breaks(self, param: str) -> bool:
        """Whether the bound ``param`` (``a_max`` or ``a_max_l``), which is
        a g-unit key times ``saturation.g``, fails only because of g: with
        the default g it passes."""
        try:
            replace(self, g=ScenarioConfig.g).saturation_params().validate()
        except ConfigError as exc:
            return exc.field != param
        return True


# --- Key table -----------------------------------------------------------------

# canonical key -> (ScenarioConfig field, parser), in field order
KEYS: dict[str, tuple[str, Callable[[str], object]]] = {
    f.metadata["key"]: (f.name, f.metadata["parse"]) for f in fields(ScenarioConfig)
}
_LOWER_TO_KEY = {k.lower(): k for k in KEYS}
_FIELD_TO_KEY = {f: k for k, (f, _) in KEYS.items()}
# Parameter-object fields whose config field carries a unit suffix.
_OWNER_FIELD = {"sigma_max": "sigma_max_deg", "a_max": "a_max_g", "a_max_l": "a_max_l_g"}


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse `key = value` lines into a raw mapping (keys canonicalized)."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{source}:{lineno}: expected 'key = value', got '{raw.strip()}'")
        key, value = (part.strip() for part in line.split("=", 1))
        canonical = _LOWER_TO_KEY.get(key.lower())
        if canonical is None:
            raise ValidationError(f"{source}:{lineno}: unknown config key '{key}'")
        out[canonical] = value
    return out


def env_overrides(environ: Mapping[str, str] = os.environ) -> dict[str, str]:
    """Config overrides drawn from ITCSIM_<SECTION>_<KEY> variables."""
    out: dict[str, str] = {}
    for name, value in environ.items():
        if not name.startswith(ENV_PREFIX):
            continue
        rest = name[len(ENV_PREFIX) :]
        if "_" not in rest:
            raise ValidationError(f"environment variable {name}: expected ITCSIM_SECTION_KEY")
        section, leaf = rest.split("_", 1)
        canonical = _LOWER_TO_KEY.get(f"{section}.{leaf}".lower())
        if canonical is None:
            raise ValidationError(f"environment variable {name} matches no config key")
        out[canonical] = value
    return out


def apply_kv(base: ScenarioConfig, kv: Mapping[str, str]) -> ScenarioConfig:
    """Overlay raw key-value pairs onto a config, parsing each value."""
    updates: dict[str, object] = {}
    for key, raw in kv.items():
        field_name, parser = KEYS[key]
        try:
            updates[field_name] = parser(raw)
        except ValueError as exc:
            raise ValidationError(f"config key {key}: cannot parse '{raw}' ({exc})") from None
    return replace(base, **updates)


def load_config(
    path: str | None,
    environ: Mapping[str, str] = os.environ,
    base: ScenarioConfig | None = None,
) -> ScenarioConfig:
    """Build a validated config from defaults, an optional file, and the env.

    Precedence (lowest to highest): built-in defaults or ``base``, file
    contents, environment overrides.
    """
    cfg = base if base is not None else ScenarioConfig()
    if path is not None:
        with open(path) as fh:
            cfg = apply_kv(cfg, parse_config_text(fh.read(), source=path))
    cfg = apply_kv(cfg, env_overrides(environ))
    cfg.validate()
    return cfg


def serialize_config(cfg: ScenarioConfig) -> str:
    """Render every key explicitly; parsing the result reproduces ``cfg``."""
    lines = []
    for key, (name, _) in KEYS.items():
        value = getattr(cfg, name)
        lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
    return "\n".join(lines) + "\n"


# --- Running -----------------------------------------------------------------


class _Tee:
    """A row sink that passes each row to two sinks, in order, ``CHUNK_ROWS``
    rows at a time.  Holding one bounded chunk keeps memory flat however
    long the run, and handing rows on in bursts keeps the scoring and
    writing out of the integrator's loop, where it measured slower."""

    CHUNK_ROWS = 1024

    def __init__(self, first: RowSink, second: RowSink) -> None:
        self._first, self._second = first.append, second.append
        self._held: list[LogRow] = []

    def append(self, row: LogRow) -> None:
        held = self._held
        held.append(row)
        if len(held) == self.CHUNK_ROWS:
            self.flush()

    def flush(self) -> None:
        first, second = self._first, self._second
        for row in self._held:
            first(row)
            second(row)
        self._held.clear()


def run_scenario(
    cfg: ScenarioConfig, sink: RowSink | None = None
) -> tuple[TrajectoryLog, RunOutcome, Metrics]:
    """Validate, simulate, and score one scenario.

    While the run integrates, each row is scored by a ``MetricsFold`` and
    then appended to ``sink`` (a new list by default), in chunks of at most
    ``_Tee.CHUNK_ROWS`` rows.  Returns (log, outcome, metrics);
    ``log.rows`` is the sink.
    """
    cfg.validate()
    law = cfg.make_law()
    rows = [] if sink is None else sink
    fold = MetricsFold(
        t_final=cfg.tf, sigma_max=math.radians(cfg.sigma_max_deg), hit_radius=cfg.hit_radius
    )
    tee = _Tee(fold, rows)
    log, outcome = simulate(law, cfg.initial_state(), cfg.sim_settings(), tee)
    tee.flush()
    return replace(log, rows=rows), outcome, fold.metrics()

