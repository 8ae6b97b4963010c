"""Scenario configuration: parsing, env overrides, validation, presets."""

from __future__ import annotations

import math
import random
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from itcsim.config import (
    G,
    KEYS,
    ScenarioConfig,
    env_overrides,
    load_config,
    parse_config_text,
    run_scenario,
    serialize_config,
)
from itcsim.engine import SimSettings
from itcsim.errors import ConfigError
from itcsim.guidance3d import Guidance3D
from itcsim.guidance_planar import BaselinePlanar, GuidancePlanar
from itcsim.presets import PLANAR_COMPARE_ROWS, PRESET_NAMES, preset_scenarios
from itcsim.saturation import BoundMode, SaturationParams
from itcsim.shaping import ShapingParams
from test_cli import _REMOVED_KEYS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_defaults_describe_the_nominal_engagement():
    cfg = ScenarioConfig()
    assert cfg.mode == "3d" and cfg.law == "proposed"
    assert cfg.speed == 250.0 and cfg.tf == 50.0
    assert (cfg.initial_x_km, cfg.initial_y_km, cfg.initial_z_km) == (-10.0, 0.0, 0.0)
    assert (cfg.elevation_deg, cfg.azimuth_deg) == (-10.0, 10.0)
    assert cfg.sigma_max_deg == 60.0 and cfg.a_max_g == 10.0
    assert (cfg.k2, cfg.k3, cfg.k4, cfg.ky, cfg.kz) == (1.0, 1.0, 1.0, 7.0, 7.0)
    assert cfg.phi == 300.0 and cfg.rho == 0.1 and cfg.n == 2
    assert cfg.dt == 1e-3 and cfg.hit_radius == 1.0 and cfg.log_stride == 10
    # k1 = "auto" resolves to 1 - cos(sigma_max) - 0.01 = 0.49 for 60 deg.
    assert cfg.k1 == "auto"
    assert cfg.resolved_k1() == pytest.approx(0.49, rel=1e-12)


def test_keys_cover_every_field_exactly_once():
    mapped = [field_name for field_name, _ in KEYS.values()]
    assert sorted(mapped) == sorted(f.name for f in fields(ScenarioConfig))
    assert len(mapped) == len(set(mapped)) == 26


def test_parse_config_text():
    text = """
    # comment line
    scenario.tf = 45.0        # trailing comment
    SCENARIO.MODE = planar

    launch.azimuthDeg = 20
    """
    kv = parse_config_text(text)
    assert kv == {
        "scenario.tf": "45.0",
        "scenario.mode": "planar",
        "launch.azimuthDeg": "20",
    }
    # Later lines win over earlier duplicates.
    kv = parse_config_text("scenario.tf = 1\nscenario.tf = 2\n")
    assert kv == {"scenario.tf": "2"}


def test_parse_errors_carry_source_and_line():
    with pytest.raises(ConfigError, match=r"myfile:2"):
        parse_config_text("scenario.tf = 50\nnot a pair\n", source="myfile")
    with pytest.raises(ConfigError, match=r"myfile:1.*scenario\.bogus"):
        parse_config_text("scenario.bogus = 1\n", source="myfile")


def _load_text(tmp_path, text: str, base: ScenarioConfig | None = None) -> ScenarioConfig:
    """``text`` written as a config file and loaded as every command loads
    one, with no environment."""
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    return load_config(str(path), environ={}, base=base)


def test_load_config_parses_types(tmp_path):
    cfg = _load_text(
        tmp_path,
        "scenario.tf = 45.5\nsaturation.n = 4\ngains.k1 = 0.3\nscenario.mode = planar\n",
    )
    assert cfg.tf == 45.5
    assert cfg.n == 4 and isinstance(cfg.n, int)
    assert cfg.k1 == 0.3
    assert cfg.mode == "planar"
    # k1 accepts the literal "auto".
    assert _load_text(tmp_path, "gains.k1 = auto\n", base=cfg).k1 == "auto"
    with pytest.raises(ConfigError, match="cannot parse"):
        _load_text(tmp_path, "scenario.tf = fifty\n", base=cfg)


def test_env_overrides():
    env = {
        "ITCSIM_SATURATION_RHO": "0.2",
        "ITCSIM_SHAPING_SIGMAMAXDEG": "70",
        "itcsim_scenario_tf": "55",  # wrong case prefix: ignored
        "PATH": "/usr/bin",
    }
    kv = env_overrides(env)
    assert kv == {"saturation.rho": "0.2", "shaping.sigmaMaxDeg": "70"}
    with pytest.raises(ConfigError, match="matches no config key"):
        env_overrides({"ITCSIM_NOPE_X": "1"})
    with pytest.raises(ConfigError, match="ITCSIM_SECTION_KEY"):
        env_overrides({"ITCSIM_X": "1"})


# Keys whose valid values depend on each other (a baseline law needs planar
# mode, and a planar start needs initialZKm == 0): each layer sets all of
# them or none, so every composed config comes from valid draws.
_COUPLED_KEYS = ("scenario.mode", "scenario.law", "geometry.initialZKm")


def test_load_config_precedence(tmp_path):
    path = tmp_path / "s.cfg"
    path.write_text("scenario.tf = 45\nsaturation.rho = 0.25\n")
    # File beats defaults; env beats file.
    cfg = load_config(str(path), environ={"ITCSIM_SCENARIO_TF": "55"})
    assert cfg.tf == 55.0
    assert cfg.rho == 0.25
    # No file: defaults plus env.
    cfg = load_config(None, environ={})
    assert cfg == ScenarioConfig()

    # Every key: in each trial a base, a file and an environment are drawn,
    # and the file and the environment each set a random share of the keys.
    # Every key ends with the value of the highest layer that set it.
    rng = random.Random(20)
    won = {layer: set() for layer in ("base", "file", "env")}
    beaten = set()  # (key, lower layer) where the winner's value differed
    for trial in range(30):
        # Consecutive trial numbers give the layers different mode/law pairs.
        base, file_cfg, env_cfg = (_drawn_config(rng, trial + i) for i in range(3))
        file_raw = parse_config_text(serialize_config(file_cfg))
        env_raw = parse_config_text(serialize_config(env_cfg))
        in_file = {key for key in KEYS if rng.random() < 0.5}
        in_env = {key for key in KEYS if rng.random() < 0.5}
        for layer in (in_file, in_env):
            layer.difference_update(_COUPLED_KEYS)
            if rng.random() < 0.5:
                layer.update(_COUPLED_KEYS)
        path.write_text("".join(f"{key} = {file_raw[key]}\n" for key in in_file))
        environ = {
            "ITCSIM_" + key.replace(".", "_").upper(): env_raw[key] for key in in_env
        }
        cfg = load_config(str(path), environ=environ, base=base)
        for key, (name, _) in KEYS.items():
            layers = [("base", base)]
            if key in in_file:
                layers.append(("file", file_cfg))
            if key in in_env:
                layers.append(("env", env_cfg))
            layer, top = layers[-1]
            assert getattr(cfg, name) == getattr(top, name), (trial, key, layer)
            won[layer].add(key)
            beaten |= {
                (key, low) for low, lower in layers[:-1] if getattr(lower, name) != getattr(top, name)
            }
        assert in_file - in_env and in_env and set(KEYS) - in_file - in_env, trial
    assert all(keys == set(KEYS) for keys in won.values())
    assert beaten == {(key, low) for key in KEYS for low in ("base", "file")}


def test_load_config_builds_its_result_once(tmp_path, monkeypatch):
    """Both layers are parsed before the config is built, and so validated,
    once: a config that is valid only with both layers applied loads."""
    path = tmp_path / "s.cfg"
    path.write_text("scenario.law = baseline\n")  # valid only in planar mode
    base = ScenarioConfig()
    calls = []
    validate = ScenarioConfig.validate
    monkeypatch.setattr(ScenarioConfig, "validate", lambda cfg: calls.append(cfg) or validate(cfg))
    cfg = load_config(str(path), environ={"ITCSIM_SCENARIO_MODE": "planar"}, base=base)
    assert (cfg.mode, cfg.law) == ("planar", "baseline")
    assert len(calls) == 1 and calls[0] is cfg


def test_load_config_error_precedence(tmp_path):
    """With a fault in each place, the first error is the file's keys, then
    its values, the ITCSIM_* names, their values and the validation rules;
    each case drops the faults before it."""
    path = tmp_path / "s.cfg"
    faults = [
        ("scenario.bogus = 1\n", {}, "unknown config key 'scenario.bogus'"),
        ("sim.dt = abc\n", {}, "config key sim.dt: cannot parse 'abc'"),
        ("", {"ITCSIM_NOPE_X": "1"}, "ITCSIM_NOPE_X matches no config key"),
        ("", {"ITCSIM_SIM_DT": "fast"}, "config key sim.dt: cannot parse 'fast'"),
        ("", {"ITCSIM_SCENARIO_TF": "-1"}, "scenario.tf must be > 0"),
    ]
    for first, (_, _, message) in enumerate(faults):
        path.write_text("".join(text for text, _, _ in faults[first:]))
        environ = {name: v for _, env, _ in faults[first:] for name, v in env.items()}
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(str(path), environ=environ)
    # A bad file value fails even where the environment overrides its key.
    path.write_text("sim.dt = abc\n")
    with pytest.raises(ConfigError, match="cannot parse 'abc'"):
        load_config(str(path), environ={"ITCSIM_SIM_DT": "0.002"})


def _drawn_config(rng: random.Random, trial: int) -> ScenarioConfig:
    """A valid config whose every key is drawn from ``rng``: floats away
    from their defaults (so the text carries full-precision reprs), each
    mode/law pair, ``k1`` as ``auto`` or a number and ``aClipG`` as ``inf``
    or a number in turn."""
    u = rng.uniform
    mode, law = (("3d", "proposed"), ("planar", "proposed"), ("planar", "baseline"))[trial % 3]
    values = {
        "scenario.mode": mode,
        "scenario.law": law,
        "scenario.speed": u(200.0, 300.0),
        "scenario.tf": u(40.0, 60.0),
        "geometry.initialXKm": u(-12.0, -8.0),
        "geometry.initialYKm": u(-2.0, 2.0),
        "geometry.initialZKm": 0.0 if mode == "planar" else u(-2.0, 2.0),
        "launch.elevationDeg": u(-20.0, 0.0),
        "launch.azimuthDeg": u(0.0, 20.0),
        "gains.k1": "auto" if trial % 2 else u(0.05, 0.2),
        "gains.k2": u(0.5, 2.0),
        "gains.k3": u(0.5, 2.0),
        "gains.k4": u(0.5, 2.0),
        "gains.ky": u(3.0, 6.0),
        "gains.kz": u(8.0, 12.0),
        "baseline.aClipG": math.inf if trial % 2 else u(5.0, 20.0),
        "shaping.phi": u(100.0, 250.0),
        "shaping.sigmaMaxDeg": u(40.0, 55.0),
        "saturation.n": rng.choice((4, 6, 8)),
        "saturation.rho": u(0.01, 0.09),
        "saturation.boundMode": rng.choice(("roll-coupled", "wing-tail")),
        "saturation.aMaxG": u(11.0, 20.0),
        "saturation.aMaxLG": u(0.1, 0.9),
        "sim.dt": u(5e-4, 9e-4),
        "sim.hitRadius": u(0.5, 0.9),
        "sim.logStride": rng.randrange(11, 50),
    }
    assert set(values) == set(KEYS)  # a new key needs a draw here
    return replace(ScenarioConfig(), **{KEYS[key][0]: value for key, value in values.items()})


def test_serialize_round_trip(tmp_path):
    """Every key survives serialize_config -> a config file -> load_config
    with a valid non-default value."""
    rng = random.Random(19)
    defaults = ScenarioConfig()
    changed = set()
    for trial in range(12):
        cfg = _drawn_config(rng, trial)
        changed |= {
            key for key, (name, _) in KEYS.items() if getattr(cfg, name) != getattr(defaults, name)
        }
        back = _load_text(tmp_path, serialize_config(cfg))
        assert back == cfg
        assert isinstance(back.n, int) and isinstance(back.log_stride, int)
    assert changed == set(KEYS)
    # The defaults, with k1 = auto and aClipG = inf, survive too, over a
    # drawn base.
    assert _load_text(tmp_path, serialize_config(defaults), base=cfg) == defaults


def test_validation_messages_name_the_key():
    cases = [
        (dict(mode="2d"), "scenario.mode"),
        (dict(law="pn"), "scenario.law"),
        (dict(law="baseline"), "baseline requires"),
        (dict(speed=0.0), "scenario.speed"),
        (dict(tf=-1.0), "scenario.tf"),
        (dict(tf=math.nan), "scenario.tf"),
        (dict(sigma_max_deg=95.0), "sigmaMaxDeg"),
        (dict(k1=0.6), "0.500000"),
        (dict(k1=0.0), "gains.k1"),
        (dict(k2=0.0), "gains.k2"),
        (dict(ky=-1.0), "gains.ky"),
        (dict(phi=0.0), "shaping.phi"),
        (dict(n=3), "even"),
        (dict(rho=0.0), "saturation.rho"),
        (dict(bound_mode="gimbal"), "boundMode"),
        (dict(a_max_g=0.0), "aMaxG"),
        (dict(bound_mode="wing-tail", a_max_l_g=20.0), "aMaxLG"),
        (dict(dt=0.0), "sim.dt"),
        (dict(hit_radius=0.0), "hitRadius"),
        (dict(hit_radius=math.inf), "hitRadius"),
        (dict(hit_radius=20000.0), r"sim\.hitRadius = 20000\.0: must be below the initial range"),
        (
            dict(initial_x_km=-1e100, hit_radius=1e104),
            r"^sim\.hitRadius = 1e\+104: must be below the initial range 1e\+103 m$",
        ),
        (dict(log_stride=0), "logStride"),
        (dict(a_clip_g=0.0), "aClipG"),
        (dict(a_clip_g=math.nan), "aClipG"),
        (dict(mode="planar", initial_z_km=1.0), "initialZKm"),
        (dict(initial_x_km=0.0), "initial range"),
        (dict(initial_x_km=-1e160), r"geometry\.initial\*: initial range"),
        (dict(initial_x_km=0.0, initial_z_km=-10.0), r"geometry\.initial\*: line of"),
        (dict(initial_x_km=1e-13, initial_z_km=-10.0), r"geometry\.initial\*: line of"),
        # A value of the wrong type, as a config built in Python can hold,
        # is checked against its key's parsed type before any other rule.
        (dict(k1="abc"), r"gains\.k1 must be a number or 'auto', got str"),
        (dict(k1=True), r"gains\.k1 must be a number or 'auto', got bool"),
        (dict(tf="50"), r"scenario\.tf must be a number, got str"),
        (dict(speed=None), r"scenario\.speed must be a number, got NoneType"),
        (dict(speed=True), r"scenario\.speed must be a number, got bool"),
        (dict(log_stride=2.5), r"sim\.logStride must be an integer, got float"),
        (dict(n=4.0), r"saturation\.n must be an integer, got float"),
        (dict(mode=None), r"scenario\.mode must be a string, got NoneType"),
        (dict(tf="50", speed=0.0), r"scenario\.tf must be a number"),
        (dict(speed=10**400), r"scenario\.speed must be finite, got an int beyond"),
        (dict(log_stride=10**400), r"sim\.logStride must be finite, got an int beyond"),
    ]
    for overrides, fragment in cases:
        with pytest.raises(ConfigError, match=fragment):
            replace(ScenarioConfig(), **overrides)
    # An int stays a valid float value, and k1 takes a number or "auto".
    assert replace(ScenarioConfig(), tf=50, speed=250, k1=0.3).tf == 50.0
    assert replace(ScenarioConfig(), k1=0.3).resolved_k1() == 0.3


@pytest.mark.parametrize(
    "cls, values, field",
    [(ShapingParams, dict(k1=0.9), "k1"), (SaturationParams, dict(n=3), "n"),
     (SimSettings, dict(dt=0.0), "dt")],
    ids=["ShapingParams", "SaturationParams", "SimSettings"],
)
def test_parameter_objects_check_themselves_when_built(cls, values, field):
    """A parameter object that exists is valid: building one with a value
    that breaks a rule raises, naming the field, and there is no separate
    check to call."""
    with pytest.raises(ConfigError, match=rf"\b{field}\b") as info:
        cls(**values)
    assert info.value.field == field
    assert not hasattr(cls, "validate")


def test_owner_rule_errors_name_the_config_key():
    # Rules owned by ShapingParams, SaturationParams and SimSettings surface
    # as "<config key> = <value as written>: <owner message>".
    cases = [
        (dict(sigma_max_deg=95.0), "shaping.sigmaMaxDeg = 95.0"),
        (dict(k1=0.6), "gains.k1 = 0.6"),
        (dict(sigma_max_deg=0.5), "gains.k1 = auto"),
        (dict(phi=0.0), "shaping.phi = 0.0"),
        (dict(phi=1e103), "shaping.phi = 1e+103"),
        (dict(phi=1e-110), "shaping.phi = 1e-110"),
        (dict(n=3), "saturation.n = 3"),
        (dict(rho=0.0), "saturation.rho = 0.0"),
        # aMaxG and aMaxLG: test_g_unit_bound_errors_name_the_product.
        (dict(dt=0.0), "sim.dt = 0.0"),
        (dict(hit_radius=0.0), "sim.hitRadius = 0.0"),
        (dict(log_stride=0), "sim.logStride = 0"),
    ]
    for overrides, prefix in cases:
        with pytest.raises(ConfigError, match="^" + re.escape(prefix + ": ")):
            replace(ScenarioConfig(), **overrides)
    # The unclipped comparison law's "no clip" value stays valid.
    replace(ScenarioConfig(), mode="planar", law="baseline", a_clip_g=math.inf)


@pytest.mark.parametrize(
    "overrides, key",
    [
        # aMaxG × 9.81 is below the 1e-12 m/s^2 floor though aMaxG is not.
        (dict(a_max_g=1e-14), "saturation.aMaxG"),
        (dict(bound_mode="wing-tail", a_max_l_g=20.0), "saturation.aMaxLG"),
        (dict(a_max_g=0.0), "saturation.aMaxG"),
        (dict(a_max_g=1e308), "saturation.aMaxG"),  # the product overflows
        # 1e153 × 9.81 is past logio.ERROR_MAX = 9e153 though aMaxG is not.
        (dict(a_max_g=1e153), "saturation.aMaxG"),
    ],
    ids=["aMaxG-product", "aMaxLG-product", "aMaxG-alone", "aMaxG-overflow", "aMaxG-error-max"],
)
def test_g_unit_bound_errors_name_the_product(overrides, key):
    """A g-unit bound is checked in m/s^2, as the key's value times 9.81:
    the error names the one key with its value as written, and the product."""
    value = overrides[KEYS[key][0]]
    with pytest.raises(ConfigError) as info:
        replace(ScenarioConfig(), **overrides)
    message = str(info.value)
    assert message.startswith(f"{key} = {value}: ")
    assert message.endswith(f"got {value * G}")


@pytest.mark.parametrize(
    "overrides",
    [
        # hypot(dx, dy) and sqrt(dx*dx + dy*dy) differ in the last bit here.
        dict(mode="planar", initial_x_km=-6.663, initial_y_km=16.124),
        dict(initial_x_km=-3.0, initial_y_km=2.5, initial_z_km=-4.0),
    ],
    ids=["planar", "3d"],
)
def test_validate_checks_the_range_of_the_initial_state(overrides):
    """The initial range that validate bounds is ``initial_state()[0]`` bit
    for bit: a hit radius equal to it is rejected, the next float below it
    is not."""
    cfg = replace(ScenarioConfig(), **overrides)
    r0 = cfg.initial_state()[0]
    with pytest.raises(ConfigError, match="must be below the initial range"):
        replace(cfg, hit_radius=r0)
    replace(cfg, hit_radius=math.nextafter(r0, 0.0))

def test_readme_config_docs_match_keys(tmp_path):
    text = README.read_text()
    example = re.search(r"```ini\n(.*?)```", text, re.S).group(1)
    _load_text(tmp_path, example)

    rows = [line.split("|") for line in text.splitlines() if line.startswith("| `")]
    documented = {
        key for row in rows for key in re.findall(r"`(\w+\.\w+)`", row[1])
    }
    assert documented and documented <= set(KEYS)
    (bound_row,) = [row for row in rows if "`saturation.boundMode`" in row[1]]
    assert set(re.findall(r"`([\w-]+)`", bound_row[3])) == {m.value for m in BoundMode}


def test_readme_presets_match_preset_names():
    section = README.read_text().split("### Presets", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|") for line in section.splitlines() if line.startswith("| `")]
    assert tuple(re.fullmatch(r" `([\w-]+)` ", row[1]).group(1) for row in rows) == PRESET_NAMES


def test_readme_removed_keys_match_the_cli_tests():
    """README's "Removed keys and options" list names exactly the keys whose
    refusal the CLI tests check (its ``run --dt`` item is an option, not a
    key), and none of them is a config key."""
    section = README.read_text().split("Removed keys and options", 1)[1].split("\n## ", 1)[0]
    heads = [line.split(":", 1)[0] for line in section.splitlines() if line.startswith("- `")]
    removed = {key for head in heads for key in re.findall(r"`(\w+\.\w+)`", head)}
    assert removed == set(_REMOVED_KEYS)
    assert not removed & set(KEYS)


def test_initial_state_geometry():
    # Nominal 3D: 10 km down-range, launch offsets in radians.
    y0 = ScenarioConfig().initial_state()
    assert len(y0) == 7
    assert y0[0] == pytest.approx(10000.0, rel=1e-12)
    # The target is the origin; the start's zero offsets give LOS angles of
    # +0.0, not -0.0 (the CSV would print "-0").
    assert repr(y0[1:3]) == repr((0.0, 0.0))
    assert y0[3] == pytest.approx(math.radians(-10.0), rel=1e-12)
    assert y0[4] == pytest.approx(math.radians(10.0), rel=1e-12)
    assert y0[5] == y0[6] == 0.0

    # 3-4-5 triangle with altitude offset: range 5 km, elevation asin(0.8).
    cfg = replace(ScenarioConfig(), initial_x_km=-3.0, initial_z_km=-4.0)
    y0 = cfg.initial_state()
    assert y0[0] == pytest.approx(5000.0, rel=1e-12)
    assert y0[1] == pytest.approx(math.asin(0.8), rel=1e-12)

    # Off the x axis: the line of sight from the start to the origin.
    cfg = replace(ScenarioConfig(), initial_y_km=2.0, initial_z_km=-1.5)
    r0, theta0, psi0 = cfg.initial_state()[:3]
    assert r0 == pytest.approx(math.sqrt(10000.0**2 + 2000.0**2 + 1500.0**2), rel=1e-12)
    assert theta0 == pytest.approx(math.asin(1500.0 / r0), rel=1e-12)
    assert psi0 == pytest.approx(math.atan2(-2000.0, 10000.0), rel=1e-12)

    # Planar shaped law: 4 states, lead from the launch azimuth.
    planar = replace(ScenarioConfig(), mode="planar", azimuth_deg=20.0)
    y0 = planar.initial_state()
    assert repr(y0) == repr((10000.0, 0.0, math.radians(20.0), 0.0))
    # Baseline law: acceleration is not a state.
    base = replace(planar, law="baseline")
    assert base.initial_state() == (10000.0, 0.0, math.radians(20.0))


def test_make_law_dispatch():
    assert isinstance(ScenarioConfig().make_law(), Guidance3D)
    planar = replace(ScenarioConfig(), mode="planar")
    assert isinstance(planar.make_law(), GuidancePlanar)
    baseline = replace(planar, law="baseline")
    law = baseline.make_law()
    assert isinstance(law, BaselinePlanar)
    assert law.a_clip == math.inf
    capped = replace(baseline, a_clip_g=10.0)
    assert capped.make_law().a_clip == pytest.approx(98.1, rel=1e-12)


@pytest.mark.parametrize("bound_mode", ["roll-coupled", "wing-tail"])
def test_planar_law_reads_no_bound_schedule(bound_mode):
    """A schedule splits the bound between two axes, and the planar law has
    one: under either schedule the shaped planar law logs the constant-bound
    run's rows and scores its metrics bit for bit (at t = 0, a_my = 0 has no
    direction, which a schedule would read as the even split).  The aMaxLG
    range rule is a wing-tail one, so a planar scenario does not check it."""
    constant = ScenarioConfig(mode="planar", tf=2.3, initial_x_km=-0.5, log_stride=1)
    scheduled = replace(constant, bound_mode=bound_mode, a_max_l_g=20.0)
    assert scheduled.saturation_params().mode is BoundMode.CONSTANT
    rows, outcome, mets = run_scenario(constant)
    assert len(rows) > 2000
    assert repr(run_scenario(scheduled)) == repr((rows, outcome, mets))


def test_law_parameters_are_converted_units():
    cfg = ScenarioConfig()
    law = cfg.make_law()
    assert law.speed == 250.0
    assert law.t_final == 50.0
    assert law.shaping.sigma_max == pytest.approx(math.radians(60.0), rel=1e-12)
    assert law.shaping.k1 == pytest.approx(0.49, rel=1e-12)
    assert law.sat.a_max == pytest.approx(98.1, rel=1e-12)


def test_presets():
    assert PRESET_NAMES == (
        "table1-nominal",
        "fig2-tf-sweep",
        "fig3-heading-sweep",
        "fig4-rollcoupled",
        "fig5-wingtail",
        "fig6-planar-compare",
    )
    (label, cfg), = preset_scenarios("table1-nominal")
    assert label == "table1-nominal"
    assert cfg == ScenarioConfig()

    sweep = preset_scenarios("fig2-tf-sweep")
    assert [label for label, _ in sweep] == ["tf45", "tf50", "tf55"]
    assert [cfg.tf for _, cfg in sweep] == [45.0, 50.0, 55.0]

    heading = preset_scenarios("fig3-heading-sweep")
    assert [label for label, _ in heading] == [
        "elev0-azim0", "elev0-azim30", "elev-30-azim0", "elev-30-azim30",
    ]
    assert [(c.elevation_deg, c.azimuth_deg) for _, c in heading] == [
        (0.0, 0.0), (0.0, 30.0), (-30.0, 0.0), (-30.0, 30.0),
    ]

    (label, cfg), = preset_scenarios("fig4-rollcoupled")
    assert cfg.bound_mode == "roll-coupled"

    (label, cfg), = preset_scenarios("fig5-wingtail")
    assert cfg.bound_mode == "wing-tail"
    assert (cfg.a_max_g, cfg.a_max_l_g) == (5.0, 1.0)

    compare = preset_scenarios("fig6-planar-compare")
    assert len(compare) == 2 * len(PLANAR_COMPARE_ROWS)
    assert all(cfg.mode == "planar" for _, cfg in compare)
    assert [label for label, _ in compare[:4]] == [
        "tf50-angle10-proposed", "tf50-angle10-baseline",
        "tf50-angle20-proposed", "tf50-angle20-baseline",
    ]
    assert compare[1][1].law == "baseline"
    for i, (tf, angle) in enumerate(PLANAR_COMPARE_ROWS):
        for j in (0, 1):
            _, cfg = compare[2 * i + j]
            assert (cfg.tf, cfg.azimuth_deg) == (tf, angle)

    with pytest.raises(ConfigError, match="unknown preset"):
        preset_scenarios("fig7")
