"""Actuator saturation model: bound schedules, channel dynamics, invariance.

The channel obeys a_dot = [1 - (a/A)^n] * b - rho * a, which keeps |a| < A
for any bounded command history.  Frozen reference values come from an
independent exact-arithmetic evaluation.
"""

from __future__ import annotations

import math
import random

import pytest

from itcsim.config import _FIELD_TO_KEY, _OWNER_FIELD
from itcsim.errors import ConfigError
from itcsim.logio import ERROR_MAX
from itcsim.saturation import (
    B_CAP,
    EPS_RESULTANT,
    BoundMode,
    SaturationParams,
    axis_brackets,
    clip_command,
)

REL = 1e-12

# Frozen oracle values.
SATRATE_HALF = 70.095                 # a=49.05, b=100, A=98.1, n=2, rho=0.1
RC_EVEN = 69.3671752344003            # 98.1 / sqrt(2)
WT_EVEN = 37.556870093760125          # 9.81 + (49.05 - 9.81) / sqrt(2)


def _channel_rate(a, b, p):
    """One channel's rate as the laws compute it, bracket * b - rho * a; the
    other axis idles at zero, so its constant-bound bracket is the axis's own."""
    return axis_brackets(a, 0.0, p)[0] * b - p.rho * a


# The bound schedules and the per-axis bracket as separate functions, the
# form ``axis_brackets`` folded into one dispatch; the fold keeps their bits.


def _split_bounds(a_my, a_mz, p):
    if p.mode is BoundMode.CONSTANT:
        return p.a_max, p.a_max
    mag = math.hypot(a_my, a_mz)
    if p.mode is BoundMode.ROLL_COUPLED:
        if mag < EPS_RESULTANT:
            even = p.a_max / math.sqrt(2.0)
            return even, even
        return p.a_max * abs(a_my) / mag, p.a_max * abs(a_mz) / mag
    if mag < EPS_RESULTANT:
        even = p.a_max_l + (p.a_max - p.a_max_l) / math.sqrt(2.0)
        return even, even
    span = p.a_max - p.a_max_l
    return p.a_max_l + span * abs(a_my) / mag, p.a_max_l + span * abs(a_mz) / mag


def _bracket(a, a_axis_max, n):
    return 1.0 - (a / a_axis_max) ** n


def _split_brackets(a_my, a_mz, p):
    a_y_max, a_z_max = _split_bounds(a_my, a_mz, p)
    if p.mode is BoundMode.CONSTANT:
        return _bracket(a_my, a_y_max, p.n), _bracket(a_mz, a_z_max, p.n), a_y_max, a_z_max
    if p.mode is BoundMode.ROLL_COUPLED:
        c = math.hypot(a_my, a_mz) / p.a_max
    else:
        c_y = abs(a_my) / a_y_max
        c_z = abs(a_mz) / a_z_max
        c = c_z if c_z > c_y else c_y
    bracket = 1.0 - c**p.n
    return bracket, bracket, a_y_max, a_z_max


def test_params_validation_rejects_bad_values():
    with pytest.raises(ConfigError, match="even"):
        SaturationParams(n=3)
    with pytest.raises(ConfigError, match="even"):
        SaturationParams(n=0)
    with pytest.raises(ConfigError, match="rho"):
        SaturationParams(rho=0.0)
    with pytest.raises(ConfigError, match="a_max"):
        SaturationParams(a_max=-1.0)
    with pytest.raises(ConfigError, match="a_max_l"):
        SaturationParams(mode=BoundMode.WING_TAIL, a_max_l=0.0)
    with pytest.raises(ConfigError, match="a_max_l"):
        SaturationParams(mode=BoundMode.WING_TAIL, a_max_l=99.0, a_max=98.1)
    # True is the number 1 to a comparison; each bound refuses it by name.
    for kw in ({"rho": True}, {"a_max": True}, {"a_max_l": True, "mode": BoundMode.WING_TAIL}):
        with pytest.raises(ConfigError) as err:
            SaturationParams(**kw)
        assert err.value.field == next(iter(kw)), kw
    # a_max_l is ignored outside the wing-tail schedule.
    SaturationParams(mode=BoundMode.CONSTANT, a_max_l=-5.0)


def test_params_reject_a_bound_at_error_max():
    """A bound below ERROR_MAX keeps every acceleration a shaped law logs
    below it: ERROR_MAX itself is refused, the float below it accepted."""
    with pytest.raises(ConfigError, match=r"in \[1e-12, 9e\+153\) m/s\^2, got 9e\+153$") as err:
        SaturationParams(a_max=ERROR_MAX)
    assert err.value.field == "a_max"
    below = math.nextafter(ERROR_MAX, 0.0)
    assert SaturationParams(a_max=below).a_max == below


def test_params_reject_a_bound_mode_that_is_not_a_member():
    """``axis_brackets`` dispatches on the members by identity, so an equal
    string would run the wing-tail schedule; building rejects it, with a
    field that the config maps to its key."""
    with pytest.raises(ConfigError, match="BoundMode, got 'constant'") as err:
        SaturationParams(mode="constant")
    assert _FIELD_TO_KEY[_OWNER_FIELD[err.value.field]] == "saturation.boundMode"


@pytest.mark.parametrize("name", ["rho", "a_max"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_validation_rejects_non_finite_values(name, value):
    with pytest.raises(ConfigError, match="finite") as err:
        SaturationParams(**{name: value})
    assert err.value.field == name


def test_saturation_rate_frozen_and_limits():
    p = SaturationParams()
    assert _channel_rate(49.05, 100.0, p) == pytest.approx(SATRATE_HALF, rel=REL)
    # At rest with no command nothing moves.
    assert _channel_rate(0.0, 0.0, p) == 0.0
    # On the bound the bracket vanishes: only the leak acts, pulling inward.
    assert _channel_rate(98.1, 1.0e6, p) == -(0.1 * 98.1)
    assert _channel_rate(-98.1, -1.0e6, p) == 0.1 * 98.1


def test_saturation_rate_odd_symmetry():
    p = SaturationParams()
    rng = random.Random(3)
    for _ in range(100):
        a = rng.uniform(-98.0, 98.0)
        b = rng.uniform(-5000.0, 5000.0)
        assert _channel_rate(-a, -b, p) == pytest.approx(
            -_channel_rate(a, b, p), rel=1e-9, abs=1e-12
        )


def test_bracket_and_ratio_guard():
    p = SaturationParams()
    by, bz = axis_brackets(0.0, 98.1, p)[:2]
    assert by == 1.0
    assert bz == pytest.approx(0.0, abs=1e-15)
    # Ratio 0.25; a negative acceleration with an even exponent gives the same.
    assert axis_brackets(49.05, -49.05, p)[:2] == pytest.approx((0.75, 0.75), rel=REL)


def test_roll_coupled_bounds_split():
    rc = SaturationParams(mode=BoundMode.ROLL_COUPLED)
    # One axis carrying everything gets the whole resultant bound.
    ay, az = axis_brackets(50.0, 0.0, rc)[2:]
    assert ay == pytest.approx(98.1, rel=REL)
    assert az == 0.0
    ay, az = axis_brackets(0.0, -30.0, rc)[2:]
    assert ay == 0.0
    assert az == pytest.approx(98.1, rel=REL)
    # Degenerate resultant splits evenly.
    ay, az = axis_brackets(0.0, 0.0, rc)[2:]
    assert ay == az == pytest.approx(RC_EVEN, rel=REL)
    # The split preserves the resultant bound: A_y^2 + A_z^2 = a_max^2.
    rng = random.Random(5)
    for _ in range(100):
        a_my = rng.uniform(-98.0, 98.0)
        a_mz = rng.uniform(-98.0, 98.0)
        if math.hypot(a_my, a_mz) < 1.0:
            continue
        ay, az = axis_brackets(a_my, a_mz, rc)[2:]
        assert ay >= 0.0 and az >= 0.0
        assert math.hypot(ay, az) == pytest.approx(98.1, rel=REL)


def test_wing_tail_bounds_interpolation():
    wt = SaturationParams(mode=BoundMode.WING_TAIL, a_max_l=9.81)
    # Whole resultant on one axis: full bound there, lower bound on the idle axis.
    ay, az = axis_brackets(42.0, 0.0, wt)[2:]
    assert ay == pytest.approx(98.1, rel=REL)
    assert az == pytest.approx(9.81, rel=REL)
    # Degenerate resultant: even interpolation (5g upper, 1g lower bound).
    wt_5g = SaturationParams(mode=BoundMode.WING_TAIL, a_max_l=9.81, a_max=49.05)
    ay, az = axis_brackets(0.0, 0.0, wt_5g)[2:]
    assert ay == az == pytest.approx(WT_EVEN, rel=REL)
    # Bounds always stay inside [a_max_l, a_max].
    rng = random.Random(6)
    for _ in range(100):
        ay, az = axis_brackets(rng.uniform(-98, 98), rng.uniform(-98, 98), wt)[2:]
        assert 9.81 - 1e-12 <= ay <= 98.1 + 1e-12
        assert 9.81 - 1e-12 <= az <= 98.1 + 1e-12


def test_axis_brackets_match_the_split_schedules():
    """One dispatch gives the bits of the separate bound schedules and
    per-axis bracket, for every mode, on the even-split threshold, on
    signed zeros, at +-inf and for NaN."""
    schedules = [
        SaturationParams(n=n, mode=mode, a_max_l=9.81) for n in (2, 4) for mode in BoundMode
    ]
    values = (0.0, -0.0, 1e-7, -1e-7, 30.0, -30.0, 97.0, math.inf, -math.inf, math.nan)
    rng = random.Random(17)
    points = [(a, b) for a in values for b in values] + [
        (rng.uniform(-120.0, 120.0), rng.uniform(-120.0, 120.0)) for _ in range(2000)
    ]
    for p in schedules:
        for a_my, a_mz in points:
            got = repr(axis_brackets(a_my, a_mz, p))
            assert got == repr(_split_brackets(a_my, a_mz, p)), (p, a_my, a_mz)


def test_axis_brackets_constant_mode_is_per_axis():
    p = SaturationParams()
    by, bz, ay, az = axis_brackets(49.05, -98.1, p)
    assert ay == az == 98.1
    assert by == pytest.approx(0.75, rel=REL)
    assert bz == pytest.approx(0.0, abs=1e-15)


def test_axis_brackets_shared_fraction_under_scheduled_bounds():
    """Direction-dependent schedules share the most-binding saturation
    fraction across both channels; that is what makes the moving bounds
    forward invariant."""
    rc = SaturationParams(mode=BoundMode.ROLL_COUPLED)
    wt = SaturationParams(mode=BoundMode.WING_TAIL, a_max_l=9.81)
    rng = random.Random(9)
    for _ in range(200):
        a_my = rng.uniform(-97.0, 97.0)
        a_mz = rng.uniform(-97.0, 97.0)
        if math.hypot(a_my, a_mz) < 1.0:
            continue

        by, bz, ay, az = axis_brackets(a_my, a_mz, rc)
        assert by == bz
        # Roll-coupled: the shared fraction is the resultant ratio, which
        # equals the per-axis ratio whenever the axis is non-degenerate.
        expect = 1.0 - (math.hypot(a_my, a_mz) / 98.1) ** 2
        assert by == pytest.approx(expect, rel=1e-9, abs=1e-12)
        if abs(a_my) > 1.0:
            assert by == pytest.approx(_bracket(a_my, ay, 2), rel=1e-9)

        by, bz, ay, az = axis_brackets(a_my, a_mz, wt)
        assert by == bz
        # Wing-tail: shared bracket equals the smaller per-axis bracket.
        per_axis = min(_bracket(a_my, ay, 2), _bracket(a_mz, az, 2))
        assert by == pytest.approx(per_axis, rel=1e-9, abs=1e-12)
        assert by <= _bracket(a_my, ay, 2) + 1e-12
        assert by <= _bracket(a_mz, az, 2) + 1e-12


def test_wing_tail_brackets_match_builtin_max():
    """The wing-tail shared fraction gives the bits of the builtin
    max(|a_my|/A_y, |a_mz|/A_z) on equal fractions, at +-inf and for NaN."""
    p = SaturationParams(mode=BoundMode.WING_TAIL, a_max_l=9.81)

    def old(a_my, a_mz):
        a_y_max, a_z_max = _split_bounds(a_my, a_mz, p)
        c = max(abs(a_my) / a_y_max, abs(a_mz) / a_z_max)
        bracket = 1.0 - c**p.n
        return bracket, bracket, a_y_max, a_z_max

    values = (0.0, -0.0, 30.0, -30.0, 97.0, math.inf, -math.inf, math.nan)
    for a_my in values:
        for a_mz in values:
            assert repr(axis_brackets(a_my, a_mz, p)) == repr(old(a_my, a_mz)), (a_my, a_mz)
    # Equal fractions; and a_my = inf makes A_y, so the first fraction, NaN
    # while the second is 0, where max keeps its first argument.
    by, _, ay, _ = axis_brackets(30.0, -30.0, p)
    assert by == _bracket(30.0, ay, p.n)
    assert math.isnan(axis_brackets(math.inf, 0.0, p)[0])
    assert axis_brackets(0.0, math.inf, p)[0] == 1.0


def test_clip_command():
    assert B_CAP == 5000.0
    assert clip_command(123.0) == 123.0
    assert clip_command(1.0e7) == 5000.0
    assert clip_command(-1.0e7) == -5000.0
    assert clip_command(-5000.0) == -5000.0
    assert clip_command(math.inf) == 5000.0
    assert clip_command(-math.inf) == -5000.0
    # A NaN command (inf - inf in the chain) is the engine's overflow guard.
    with pytest.raises(OverflowError):
        clip_command(math.nan)


def test_forward_invariance_smoke():
    """|a(0)| < A stays strictly inside A under wild bounded commands.

    A quick 20-sequence version of the full randomized check in the
    acceptance suite.
    """
    p = SaturationParams()
    a_bound = p.a_max
    rng = random.Random(12)
    for _ in range(20):
        a = rng.uniform(-0.995, 0.995) * a_bound
        for _segment in range(6):
            b = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0.0, 6.0)
            lam = p.rho + p.n * abs(b) / a_bound
            dt = 0.2 / lam
            for _ in range(20):
                k1 = _channel_rate(a, b, p)
                k2 = _channel_rate(a + 0.5 * dt * k1, b, p)
                k3 = _channel_rate(a + 0.5 * dt * k2, b, p)
                k4 = _channel_rate(a + dt * k3, b, p)
                a = a + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
                assert abs(a) < a_bound
