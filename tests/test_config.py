"""Scenario configuration: parsing, env overrides, validation, presets."""

from __future__ import annotations

import math
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from itcsim.config import (
    KEYS,
    ScenarioConfig,
    apply_kv,
    env_overrides,
    load_config,
    parse_config_text,
    serialize_config,
)
from itcsim.errors import ConfigError, ParseError, ValidationError
from itcsim.guidance3d import Guidance3D
from itcsim.guidance_planar import BaselinePlanar, GuidancePlanar
from itcsim.presets import PLANAR_COMPARE_ROWS, PRESET_NAMES, preset_scenarios
from itcsim.saturation import BoundMode

README = Path(__file__).resolve().parents[1] / "README.md"


def test_defaults_describe_the_nominal_engagement():
    cfg = ScenarioConfig()
    cfg.validate()
    assert cfg.mode == "3d" and cfg.law == "proposed"
    assert cfg.speed == 250.0 and cfg.tf == 50.0
    assert cfg.initial_x_km == -10.0 and cfg.target_x_km == 0.0
    assert (cfg.elevation_deg, cfg.azimuth_deg) == (-10.0, 10.0)
    assert cfg.sigma_max_deg == 60.0 and cfg.a_max_g == 10.0 and cfg.g == 9.81
    assert (cfg.k2, cfg.k3, cfg.k4, cfg.ky, cfg.kz) == (1.0, 1.0, 1.0, 7.0, 7.0)
    assert cfg.phi == 300.0 and cfg.rho == 0.1 and cfg.n == 2
    assert cfg.dt == 1e-3 and cfg.hit_radius == 1.0 and cfg.log_stride == 10
    # k1 = "auto" resolves to 1 - cos(sigma_max) - 0.01 = 0.49 for 60 deg.
    assert cfg.k1 == "auto"
    assert cfg.resolved_k1() == pytest.approx(0.49, rel=1e-12)


def test_keys_cover_every_field_exactly_once():
    mapped = [field_name for field_name, _ in KEYS.values()]
    assert sorted(mapped) == sorted(f.name for f in fields(ScenarioConfig))
    assert len(mapped) == len(set(mapped)) == 33


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
    with pytest.raises(ParseError, match=r"myfile:2"):
        parse_config_text("scenario.tf = 50\nnot a pair\n", source="myfile")
    with pytest.raises(ValidationError, match=r"myfile:1.*scenario\.bogus"):
        parse_config_text("scenario.bogus = 1\n", source="myfile")


def test_apply_kv_parses_types():
    cfg = apply_kv(ScenarioConfig(), {
        "scenario.tf": "45.5",
        "saturation.n": "4",
        "gains.k1": "0.3",
        "scenario.mode": "planar",
    })
    assert cfg.tf == 45.5
    assert cfg.n == 4 and isinstance(cfg.n, int)
    assert cfg.k1 == 0.3
    assert cfg.mode == "planar"
    # k1 accepts the literal "auto".
    assert apply_kv(cfg, {"gains.k1": "auto"}).k1 == "auto"
    with pytest.raises(ValidationError, match="cannot parse"):
        apply_kv(cfg, {"scenario.tf": "fifty"})


def test_env_overrides():
    env = {
        "ITCSIM_SATURATION_RHO": "0.2",
        "ITCSIM_SHAPING_SIGMAMAXDEG": "70",
        "itcsim_scenario_tf": "55",  # wrong case prefix: ignored
        "PATH": "/usr/bin",
    }
    kv = env_overrides(env)
    assert kv == {"saturation.rho": "0.2", "shaping.sigmaMaxDeg": "70"}
    with pytest.raises(ValidationError, match="matches no config key"):
        env_overrides({"ITCSIM_NOPE_X": "1"})
    with pytest.raises(ValidationError, match="ITCSIM_SECTION_KEY"):
        env_overrides({"ITCSIM_X": "1"})


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


def test_serialize_round_trip():
    cfg = replace(
        ScenarioConfig(),
        mode="planar",
        tf=47.25,
        rho=0.125,
        k1=0.3,
        azimuth_deg=-12.5,
        log_stride=7,
    )
    text = serialize_config(cfg)
    back = apply_kv(ScenarioConfig(), parse_config_text(text))
    assert back == cfg
    # And the auto marker survives a round trip too.
    auto = ScenarioConfig()
    assert apply_kv(ScenarioConfig(), parse_config_text(serialize_config(auto))) == auto


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
        (dict(eps_sin=0.5), "epsSin"),
        (dict(n=3), "even"),
        (dict(rho=0.0), "saturation.rho"),
        (dict(bound_mode="gimbal"), "boundMode"),
        (dict(a_max_g=0.0), "aMaxG"),
        (dict(bound_mode="wing-tail", a_max_l_g=20.0), "aMaxLG"),
        (dict(b_cap=0.0), "bCap"),
        (dict(dt=0.0), "sim.dt"),
        (dict(hit_radius=0.0), "hitRadius"),
        (dict(hit_radius=math.inf), "hitRadius"),
        (dict(hit_radius=20000.0), r"sim\.hitRadius = 20000\.0: must be below the initial range"),
        (dict(t_max_factor=1.0), "tMaxFactor"),
        (dict(log_stride=0), "logStride"),
        (dict(a_clip_g=0.0), "aClipG"),
        (dict(a_clip_g=math.nan), "aClipG"),
        (dict(mode="planar", initial_z_km=1.0), "initialZKm"),
        (dict(initial_x_km=0.0), "initial range"),
        (dict(target_x_km=1e160), r"geometry\.initial\*/target\*: initial range"),
        (dict(initial_x_km=0.0, initial_z_km=-10.0), r"geometry\.initial\*/target\*: line of"),
        (dict(initial_x_km=1e-13, initial_z_km=-10.0), r"geometry\.initial\*/target\*: line of"),
    ]
    for overrides, fragment in cases:
        cfg = replace(ScenarioConfig(), **overrides)
        with pytest.raises(ValidationError, match=fragment):
            cfg.validate()


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
        (dict(eps_sin=0.5), "shaping.epsSin = 0.5"),
        (dict(n=3), "saturation.n = 3"),
        (dict(rho=0.0), "saturation.rho = 0.0"),
        (dict(a_max_g=0.0), "saturation.aMaxG = 0.0"),
        (dict(a_max_g=1e-14), "saturation.aMaxG = 1e-14"),
        (dict(bound_mode="wing-tail", a_max_l_g=20.0), "saturation.aMaxLG = 20.0"),
        (dict(b_cap=0.0), "saturation.bCap = 0.0"),
        (dict(dt=0.0), "sim.dt = 0.0"),
        (dict(hit_radius=0.0), "sim.hitRadius = 0.0"),
        (dict(t_max_factor=1.0), "sim.tMaxFactor = 1.0"),
        (dict(log_stride=0), "sim.logStride = 0"),
    ]
    for overrides, prefix in cases:
        cfg = replace(ScenarioConfig(), **overrides)
        with pytest.raises(ValidationError, match="^" + re.escape(prefix + ": ")):
            cfg.validate()
    # The unclipped comparison law's "no clip" value stays valid.
    replace(ScenarioConfig(), mode="planar", law="baseline", a_clip_g=math.inf).validate()


@pytest.mark.parametrize(
    "overrides, prefix",
    [
        (dict(g=1e-320), "saturation.aMaxG × saturation.g = 10.0 × 1e-320"),
        (
            dict(bound_mode="wing-tail", a_max_g=1e20, g=1e-30, a_max_l_g=1e-300),
            "saturation.aMaxLG × saturation.g = 1e-300 × 1e-30",
        ),
        # A g-unit value that fails with the default g is blamed alone.
        (dict(a_max_g=0.0, g=5.0), "saturation.aMaxG = 0.0"),
    ],
    ids=["aMaxG-product", "aMaxLG-product", "aMaxG-alone"],
)
def test_g_unit_bound_errors_name_the_product(overrides, prefix):
    """A bound that fails only because of ``saturation.g`` names both keys
    and both values, not just the g-unit key, whose value is fine."""
    cfg = replace(ScenarioConfig(), **overrides)
    with pytest.raises(ValidationError, match="^" + re.escape(prefix + ": ")):
        cfg.validate()


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
    with pytest.raises(ValidationError, match="must be below the initial range"):
        replace(cfg, hit_radius=r0).validate()
    replace(cfg, hit_radius=math.nextafter(r0, 0.0)).validate()

def test_readme_config_docs_match_keys():
    text = README.read_text()
    example = re.search(r"```ini\n(.*?)```", text, re.S).group(1)
    apply_kv(ScenarioConfig(), parse_config_text(example, source="README")).validate()

    rows = [line.split("|") for line in text.splitlines() if line.startswith("| `")]
    documented = {
        key for row in rows for key in re.findall(r"`(\w+\.\w+)`", row[1])
    }
    assert documented and documented <= set(KEYS)
    (bound_row,) = [row for row in rows if "`saturation.boundMode`" in row[1]]
    assert set(re.findall(r"`([\w-]+)`", bound_row[3])) == {m.value for m in BoundMode}


def test_initial_state_geometry():
    # Nominal 3D: 10 km down-range, launch offsets in radians.
    y0 = ScenarioConfig().initial_state()
    assert len(y0) == 7
    assert y0[0] == pytest.approx(10000.0, rel=1e-12)
    assert y0[1] == 0.0 and y0[2] == 0.0
    assert y0[3] == pytest.approx(math.radians(-10.0), rel=1e-12)
    assert y0[4] == pytest.approx(math.radians(10.0), rel=1e-12)
    assert y0[5] == y0[6] == 0.0

    # 3-4-5 triangle with altitude offset: range 5 km, elevation asin(0.8).
    cfg = replace(ScenarioConfig(), initial_x_km=-3.0, initial_z_km=-4.0)
    y0 = cfg.initial_state()
    assert y0[0] == pytest.approx(5000.0, rel=1e-12)
    assert y0[1] == pytest.approx(math.asin(0.8), rel=1e-12)

    # Planar shaped law: 4 states, lead from the launch azimuth.
    planar = replace(ScenarioConfig(), mode="planar", azimuth_deg=20.0)
    y0 = planar.initial_state()
    assert y0 == (10000.0, 0.0, math.radians(20.0), 0.0)
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


def test_law_parameters_are_converted_units():
    cfg = ScenarioConfig()
    law = cfg.make_law()
    assert law.speed == 250.0
    assert law.t_final == 50.0
    assert law.shaping.sigma_max == pytest.approx(math.radians(60.0), rel=1e-12)
    assert law.shaping.k1 == pytest.approx(0.49, rel=1e-12)
    assert law.sat.a_max == pytest.approx(98.1, rel=1e-12)
    assert law.target == (0.0, 0.0, 0.0)


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
