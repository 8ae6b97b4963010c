"""Actuator saturation model: bound schedules, channel dynamics, invariance.

The channel obeys a_dot = [1 - (a/A)^n] * b - rho * a, which keeps |a| < A
for any bounded command history.  Frozen reference values come from an
independent exact-arithmetic evaluation.
"""

from __future__ import annotations

import math
import random

import pytest

from itcsim.errors import ConfigError
from itcsim.saturation import (
    BoundMode,
    SaturationParams,
    axis_bounds,
    axis_brackets,
    bound_ratio_power,
    clip_command,
    roll_coupled_bounds,
    saturation_bracket,
    saturation_rate,
    wing_tail_bounds,
)

REL = 1e-12

# Frozen oracle values.
SATRATE_HALF = 70.095                 # a=49.05, b=100, A=98.1, n=2, rho=0.1
RC_EVEN = 69.3671752344003            # 98.1 / sqrt(2)
WT_EVEN = 37.556870093760125          # 9.81 + (49.05 - 9.81) / sqrt(2)


def _params(**kw) -> SaturationParams:
    p = SaturationParams(**kw)
    p.validate()
    return p


def test_params_validation_rejects_bad_values():
    with pytest.raises(ConfigError, match="even"):
        _params(n=3)
    with pytest.raises(ConfigError, match="even"):
        _params(n=0)
    with pytest.raises(ConfigError, match="rho"):
        _params(rho=0.0)
    with pytest.raises(ConfigError, match="a_max"):
        _params(a_max=-1.0)
    with pytest.raises(ConfigError, match="a_max_l"):
        _params(mode=BoundMode.WING_TAIL, a_max_l=0.0)
    with pytest.raises(ConfigError, match="a_max_l"):
        _params(mode=BoundMode.WING_TAIL, a_max_l=99.0, a_max=98.1)
    with pytest.raises(ConfigError, match="b_cap"):
        _params(b_cap=0.0)
    # a_max_l is ignored outside the wing-tail schedule.
    _params(mode=BoundMode.CONSTANT, a_max_l=-5.0)


def test_saturation_rate_frozen_and_limits():
    p = _params()
    assert saturation_rate(49.05, 100.0, 98.1, p) == pytest.approx(SATRATE_HALF, rel=REL)
    # At rest with no command nothing moves.
    assert saturation_rate(0.0, 0.0, 98.1, p) == 0.0
    # On the bound the bracket vanishes: only the leak acts, pulling inward.
    assert saturation_rate(98.1, 1.0e6, 98.1, p) == -(0.1 * 98.1)
    assert saturation_rate(-98.1, -1.0e6, 98.1, p) == 0.1 * 98.1


def test_saturation_rate_odd_symmetry():
    p = _params()
    rng = random.Random(3)
    for _ in range(100):
        a = rng.uniform(-98.0, 98.0)
        b = rng.uniform(-5000.0, 5000.0)
        assert saturation_rate(-a, -b, 98.1, p) == pytest.approx(
            -saturation_rate(a, b, 98.1, p), rel=1e-9, abs=1e-12
        )


def test_bracket_and_ratio_guard():
    assert saturation_bracket(0.0, 98.1, 2) == 1.0
    assert saturation_bracket(98.1, 98.1, 2) == pytest.approx(0.0, abs=1e-15)
    assert bound_ratio_power(49.05, 98.1, 2) == pytest.approx(0.25, rel=REL)
    # Negative acceleration, even exponent: same ratio.
    assert bound_ratio_power(-49.05, 98.1, 2) == pytest.approx(0.25, rel=REL)
    # Degenerate zero bound reports zero ratio instead of dividing.
    assert bound_ratio_power(0.0, 0.0, 2) == 0.0


def test_roll_coupled_bounds_split():
    # One axis carrying everything gets the whole resultant bound.
    ay, az = roll_coupled_bounds(50.0, 0.0, 98.1)
    assert ay == pytest.approx(98.1, rel=REL)
    assert az == 0.0
    ay, az = roll_coupled_bounds(0.0, -30.0, 98.1)
    assert ay == 0.0
    assert az == pytest.approx(98.1, rel=REL)
    # Degenerate resultant splits evenly.
    ay, az = roll_coupled_bounds(0.0, 0.0, 98.1)
    assert ay == az == pytest.approx(RC_EVEN, rel=REL)
    # The split preserves the resultant bound: A_y^2 + A_z^2 = a_max^2.
    rng = random.Random(5)
    for _ in range(100):
        a_my = rng.uniform(-98.0, 98.0)
        a_mz = rng.uniform(-98.0, 98.0)
        if math.hypot(a_my, a_mz) < 1.0:
            continue
        ay, az = roll_coupled_bounds(a_my, a_mz, 98.1)
        assert ay >= 0.0 and az >= 0.0
        assert math.hypot(ay, az) == pytest.approx(98.1, rel=REL)


def test_wing_tail_bounds_interpolation():
    # Whole resultant on one axis: full bound there, lower bound on the idle axis.
    ay, az = wing_tail_bounds(42.0, 0.0, 9.81, 98.1)
    assert ay == pytest.approx(98.1, rel=REL)
    assert az == pytest.approx(9.81, rel=REL)
    # Degenerate resultant: even interpolation (5g upper, 1g lower bound).
    ay, az = wing_tail_bounds(0.0, 0.0, 9.81, 49.05)
    assert ay == az == pytest.approx(WT_EVEN, rel=REL)
    # Bounds always stay inside [a_max_l, a_max].
    rng = random.Random(6)
    for _ in range(100):
        ay, az = wing_tail_bounds(rng.uniform(-98, 98), rng.uniform(-98, 98), 9.81, 98.1)
        assert 9.81 - 1e-12 <= ay <= 98.1 + 1e-12
        assert 9.81 - 1e-12 <= az <= 98.1 + 1e-12


def test_axis_bounds_dispatch():
    const = _params(mode=BoundMode.CONSTANT)
    assert axis_bounds(10.0, 20.0, const) == (98.1, 98.1)
    rc = _params(mode=BoundMode.ROLL_COUPLED)
    assert axis_bounds(10.0, 20.0, rc) == roll_coupled_bounds(10.0, 20.0, 98.1)
    wt = _params(mode=BoundMode.WING_TAIL, a_max_l=9.81)
    assert axis_bounds(10.0, 20.0, wt) == wing_tail_bounds(10.0, 20.0, 9.81, 98.1)


def test_axis_brackets_constant_mode_is_per_axis():
    p = _params()
    by, bz, ay, az = axis_brackets(49.05, -98.1, p)
    assert ay == az == 98.1
    assert by == pytest.approx(0.75, rel=REL)
    assert bz == pytest.approx(0.0, abs=1e-15)


def test_axis_brackets_shared_fraction_under_scheduled_bounds():
    """Direction-dependent schedules share the most-binding saturation
    fraction across both channels; that is what makes the moving bounds
    forward invariant."""
    rc = _params(mode=BoundMode.ROLL_COUPLED)
    wt = _params(mode=BoundMode.WING_TAIL, a_max_l=9.81)
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
            assert by == pytest.approx(saturation_bracket(a_my, ay, 2), rel=1e-9)

        by, bz, ay, az = axis_brackets(a_my, a_mz, wt)
        assert by == bz
        # Wing-tail: shared bracket equals the smaller per-axis bracket.
        per_axis = min(saturation_bracket(a_my, ay, 2), saturation_bracket(a_mz, az, 2))
        assert by == pytest.approx(per_axis, rel=1e-9, abs=1e-12)
        assert by <= saturation_bracket(a_my, ay, 2) + 1e-12
        assert by <= saturation_bracket(a_mz, az, 2) + 1e-12


def test_wing_tail_brackets_match_builtin_max():
    """The wing-tail shared fraction gives the bits of the builtin
    max(|a_my|/A_y, |a_mz|/A_z) on equal fractions, at +-inf and for NaN."""
    p = _params(mode=BoundMode.WING_TAIL, a_max_l=9.81)

    def old(a_my, a_mz):
        a_y_max, a_z_max = axis_bounds(a_my, a_mz, p)
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
    assert by == saturation_bracket(30.0, ay, p.n)
    assert math.isnan(axis_brackets(math.inf, 0.0, p)[0])
    assert axis_brackets(0.0, math.inf, p)[0] == 1.0


def test_clip_command():
    p = _params(b_cap=5000.0)
    assert clip_command(123.0, p) == 123.0
    assert clip_command(1.0e7, p) == 5000.0
    assert clip_command(-1.0e7, p) == -5000.0
    assert clip_command(-5000.0, p) == -5000.0


def test_forward_invariance_smoke():
    """|a(0)| < A stays strictly inside A under wild bounded commands.

    A quick 20-sequence version of the full randomized check in the
    acceptance suite.
    """
    p = _params()
    a_bound = p.a_max
    rng = random.Random(12)
    for _ in range(20):
        a = rng.uniform(-0.995, 0.995) * a_bound
        for _segment in range(6):
            b = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0.0, 6.0)
            lam = p.rho + p.n * abs(b) / a_bound
            dt = 0.2 / lam
            for _ in range(20):
                k1 = saturation_rate(a, b, a_bound, p)
                k2 = saturation_rate(a + 0.5 * dt * k1, b, a_bound, p)
                k3 = saturation_rate(a + 0.5 * dt * k2, b, a_bound, p)
                k4 = saturation_rate(a + dt * k3, b, a_bound, p)
                a = a + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
                assert abs(a) < a_bound
