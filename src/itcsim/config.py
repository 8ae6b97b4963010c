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
from dataclasses import dataclass, fields, replace
from typing import Callable, Mapping

from .engine import SimSettings, simulate
from .errors import ConfigError, ParseError, ValidationError
from .guidance3d import Guidance3D
from .guidance_planar import BaselinePlanar, GuidancePlanar
from .logio import TrajectoryLog
from .metrics import Metrics, interception_metrics
from .saturation import BoundMode, SaturationParams
from .shaping import ShapingParams

ENV_PREFIX = "ITCSIM_"

MODES = ("3d", "planar")
LAWS = ("proposed", "baseline")


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario in raw config units (degrees, g, km).

    Field defaults are the nominal 3D engagement: a 250 m/s interceptor
    10 km down-range of a fixed target, commanded to hit at 50 s, launched
    with (-10 deg, 10 deg) heading offsets, 60 deg field of view, 10 g
    acceleration limit.  ``k1 = "auto"`` resolves to 1 - cos(sigma_max) - 0.01.
    """

    mode: str = "3d"
    law: str = "proposed"
    speed: float = 250.0
    tf: float = 50.0
    initial_x_km: float = -10.0
    initial_y_km: float = 0.0
    initial_z_km: float = 0.0
    target_x_km: float = 0.0
    target_y_km: float = 0.0
    target_z_km: float = 0.0
    elevation_deg: float = -10.0
    azimuth_deg: float = 10.0
    k1: float | str = "auto"
    k2: float = 1.0
    k3: float = 1.0
    k4: float = 1.0
    ky: float = 7.0
    kz: float = 7.0
    phi: float = 300.0
    sigma_max_deg: float = 60.0
    eps_sin: float = 1e-3
    n: int = 2
    rho: float = 0.1
    bound_mode: str = "constant"
    a_max_g: float = 10.0
    a_max_l_g: float = 1.0
    g: float = 9.81
    b_cap: float = 5000.0
    dt: float = 1e-3
    hit_radius: float = 1.0
    t_max_factor: float = 1.5
    log_stride: int = 10
    a_clip_g: float = math.inf

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

    def initial_state(self) -> tuple[float, ...]:
        dx = (self.target_x_km - self.initial_x_km) * 1e3
        dy = (self.target_y_km - self.initial_y_km) * 1e3
        dz = (self.target_z_km - self.initial_z_km) * 1e3
        if self.mode == "planar":
            r0 = math.hypot(dx, dy)
            theta0 = math.atan2(dy, dx)
            sigma0 = math.radians(self.azimuth_deg)
            if self.law == "baseline":
                return (r0, theta0, sigma0)
            return (r0, theta0, sigma0, 0.0)
        r0 = math.sqrt(dx * dx + dy * dy + dz * dz)
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
        if self.speed <= 0.0:
            raise ValidationError(f"scenario.speed must be > 0, got {self.speed}")
        if self.tf <= 0.0:
            raise ValidationError(f"scenario.tf must be > 0, got {self.tf}")
        for key, val in (
            ("gains.k2", self.k2),
            ("gains.k3", self.k3),
            ("gains.k4", self.k4),
            ("gains.ky", self.ky),
            ("gains.kz", self.kz),
        ):
            if val <= 0.0:
                raise ValidationError(f"{key} must be > 0, got {val}")
        if self.g <= 0.0:
            raise ValidationError(f"saturation.g must be > 0, got {self.g}")
        if self.bound_mode not in tuple(m.value for m in BoundMode):
            raise ValidationError(
                f"saturation.boundMode must be one of "
                f"{tuple(m.value for m in BoundMode)}, got '{self.bound_mode}'"
            )
        if self.a_clip_g <= 0.0:
            raise ValidationError(f"baseline.aClipG must be > 0 (inf for no clip), got {self.a_clip_g}")
        if self.mode == "planar" and self.initial_z_km != self.target_z_km:
            raise ValidationError(
                "geometry.initialZKm must equal geometry.targetZKm in planar mode"
            )
        dx = (self.target_x_km - self.initial_x_km) * 1e3
        dy = (self.target_y_km - self.initial_y_km) * 1e3
        dz = (self.target_z_km - self.initial_z_km) * 1e3
        if math.sqrt(dx * dx + dy * dy + dz * dz) < 1.0:
            raise ValidationError("geometry.initial*/target*: initial range is below 1 m")
        for params in (self.shaping_params(), self.saturation_params(), self.sim_settings()):
            try:
                params.validate()
            except ConfigError as exc:
                name = _OWNER_FIELD.get(exc.field, exc.field)
                raise ValidationError(
                    f"{_FIELD_TO_KEY[name]} = {getattr(self, name)}: {exc}"
                ) from None


# --- Key table -----------------------------------------------------------------


def _parse_k1(text: str) -> float | str:
    return "auto" if text == "auto" else float(text)


# canonical key -> (ScenarioConfig field, parser)
KEYS: dict[str, tuple[str, Callable[[str], object]]] = {
    "scenario.mode": ("mode", str),
    "scenario.law": ("law", str),
    "scenario.speed": ("speed", float),
    "scenario.tf": ("tf", float),
    "geometry.initialXKm": ("initial_x_km", float),
    "geometry.initialYKm": ("initial_y_km", float),
    "geometry.initialZKm": ("initial_z_km", float),
    "geometry.targetXKm": ("target_x_km", float),
    "geometry.targetYKm": ("target_y_km", float),
    "geometry.targetZKm": ("target_z_km", float),
    "launch.elevationDeg": ("elevation_deg", float),
    "launch.azimuthDeg": ("azimuth_deg", float),
    "gains.k1": ("k1", _parse_k1),
    "gains.k2": ("k2", float),
    "gains.k3": ("k3", float),
    "gains.k4": ("k4", float),
    "gains.ky": ("ky", float),
    "gains.kz": ("kz", float),
    "baseline.aClipG": ("a_clip_g", float),
    "shaping.phi": ("phi", float),
    "shaping.sigmaMaxDeg": ("sigma_max_deg", float),
    "shaping.epsSin": ("eps_sin", float),
    "saturation.n": ("n", int),
    "saturation.rho": ("rho", float),
    "saturation.boundMode": ("bound_mode", str),
    "saturation.aMaxG": ("a_max_g", float),
    "saturation.aMaxLG": ("a_max_l_g", float),
    "saturation.g": ("g", float),
    "saturation.bCap": ("b_cap", float),
    "sim.dt": ("dt", float),
    "sim.hitRadius": ("hit_radius", float),
    "sim.tMaxFactor": ("t_max_factor", float),
    "sim.logStride": ("log_stride", int),
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
    by_field = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    lines = []
    for key, (field_name, _) in KEYS.items():
        value = by_field[field_name]
        if isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


# --- Running -----------------------------------------------------------------


def run_scenario(cfg: ScenarioConfig):
    """Validate, simulate, and score one scenario.

    Returns (log, outcome, metrics).
    """
    cfg.validate()
    law = cfg.make_law()
    log, outcome = simulate(law, cfg.initial_state(), cfg.sim_settings())
    mets = interception_metrics(
        log,
        t_final=cfg.tf,
        sigma_max=math.radians(cfg.sigma_max_deg),
        hit_radius=cfg.hit_radius,
    )
    return log, outcome, mets


__all__ = [
    "ScenarioConfig",
    "Metrics",
    "TrajectoryLog",
    "load_config",
    "serialize_config",
    "parse_config_text",
    "env_overrides",
    "apply_kv",
    "run_scenario",
    "ENV_PREFIX",
    "KEYS",
]
