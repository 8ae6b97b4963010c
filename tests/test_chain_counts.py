"""The work of each law's control chain, pinned as a deterministic count.

Wall times of the chain are too noisy to gate, but the bytecode
instructions that one ``rates`` call executes in its own frame are fixed by
the code and the state.  Each law is counted on three fixed states: its
default start, outside the blend layer (z1 = 2500 m); a state inside it
(z1 = 100 m); and a state whose command is capped.  Sub-calls (``math``,
``shaping_rates``, ``axis_brackets``, ``clip_command``) are not counted, and
a branch taken changes the count, so each pin belongs to its state.

A change to a chain updates the pins here and says why in CHANGES.md.
The counts are CPython 3.11's: another minor version compiles other
bytecode, so the test skips there.
"""

from __future__ import annotations

import sys

import pytest

from itcsim.config import ScenarioConfig

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="bytecode counts are pinned for CPython 3.11; other versions compile other bytecode",
)

NOMINAL = ScenarioConfig()
PLANAR = ScenarioConfig(mode="planar")
BASELINE = ScenarioConfig(mode="planar", law="baseline")
BASELINE_CLIPPED = ScenarioConfig(mode="planar", law="baseline", a_clip_g=1.5)

# (config, t, state or None for the config's start, capped, count).  The 3D
# in-layer state is tests/test_guidance3d.py's Y_REF; its capped twin holds
# a_my near the 98.1 m/s^2 bound, which caps b_y.  The planar states are
# tests/test_guidance_planar.py's reference and command-cap states.
CASES = {
    "3d-start": (NOMINAL, 0.0, None, False, 564),
    "3d-in-layer": (NOMINAL, 10.0, (9900.0, 0.05, -0.08, -0.12, 0.2, -20.0, 15.0), False, 564),
    "3d-capped": (NOMINAL, 10.0, (9900.0, 0.05, -0.08, -0.12, 0.2, 97.0, 15.0), True, 561),
    "planar-start": (PLANAR, 0.0, None, False, 213),
    "planar-in-layer": (PLANAR, 10.0, (9900.0, 0.3, 0.25, -5.0), False, 213),
    "planar-capped": (PLANAR, 10.0, (9900.0, 0.3, -0.9, 95.0), True, 213),
    "baseline-start": (BASELINE, 0.0, None, False, 118),
    "baseline-in-layer": (BASELINE, 10.0, (9900.0, 0.3, 0.25), False, 118),
    "baseline-capped": (BASELINE_CLIPPED, 10.0, (9900.0, 0.3, 0.25), True, 118),
}


def own_frame_opcodes(fn, *args) -> tuple[int, object]:
    """(instructions executed in ``fn``'s own frame, ``fn(*args)``)."""
    code = fn.__code__
    count = 0

    def count_opcodes(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return count_opcodes

    def on_call(frame, event, arg):
        if frame.f_code is not code:
            return None
        frame.f_trace_opcodes = True
        return count_opcodes

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        out = fn(*args)
    finally:
        sys.settrace(previous)
    return count, out


@pytest.mark.parametrize("case", CASES)
def test_rates_executes_the_pinned_instruction_count(case):
    cfg, t, y, capped, pinned = CASES[case]
    law = cfg.make_law()
    y = cfg.initial_state() if y is None else y
    count, out = own_frame_opcodes(law.rates, t, y)
    # The state is what its name says: only a start has z1 (item 3) outside
    # the blend layer, and only a capped state sets the flag (item 1).
    assert (abs(out[3]) > cfg.phi) is case.endswith("start")
    assert out[1] is capped
    assert count == pinned
