"""Built-in scenario presets for the standard study cases.

Each preset is an ordered list of (label, overrides) pairs: the
``ScenarioConfig`` fields in which that scenario differs from the nominal
engagement.  Single-run presets have one pair.  Labels are stable and
filesystem-safe, so batch outputs can be named after them.
"""

from __future__ import annotations

from .config import ScenarioConfig
from .errors import ConfigError

# (t_final s, initial lead deg) rows of the planar effort-comparison study.
PLANAR_COMPARE_ROWS = ((50.0, 10.0), (50.0, 20.0), (50.0, 30.0), (55.0, 10.0), (60.0, 10.0), (65.0, 10.0))

_PRESETS: dict[str, list[tuple[str, dict[str, object]]]] = {
    "table1-nominal": [("table1-nominal", {})],
    "fig2-tf-sweep": [(f"tf{int(tf)}", {"tf": tf}) for tf in (45.0, 50.0, 55.0)],
    "fig3-heading-sweep": [
        (f"elev{int(elev)}-azim{int(azim)}", {"elevation_deg": elev, "azimuth_deg": azim})
        for elev, azim in ((0.0, 0.0), (0.0, 30.0), (-30.0, 0.0), (-30.0, 30.0))
    ],
    "fig4-rollcoupled": [("rollcoupled", {"bound_mode": "roll-coupled"})],
    "fig5-wingtail": [("wingtail", {"bound_mode": "wing-tail", "a_max_g": 5.0, "a_max_l_g": 1.0})],
    "fig6-planar-compare": [
        (f"tf{int(tf)}-angle{int(angle)}-{law}",
         {"mode": "planar", "tf": tf, "azimuth_deg": angle, "law": law})
        for tf, angle in PLANAR_COMPARE_ROWS
        for law in ("proposed", "baseline")
    ],
}

PRESET_NAMES = tuple(_PRESETS)


def preset_scenarios(name: str) -> list[tuple[str, ScenarioConfig]]:
    """Expand a preset name into labelled scenario configs."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset '{name}'; available: {', '.join(PRESET_NAMES)}")
    return [(label, ScenarioConfig(**overrides)) for label, overrides in _PRESETS[name]]
