import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from viscoshock import (PressureLaw, ShockData, ValidationError, build_shock,
                        check_lax, d_pressure, lambda1, pressure,
                        rh_residuals, riemann_shock_eval)


def test_pressure_values():
    assert pressure(1.0, PressureLaw(gamma=2.0)) == 1.0
    assert pressure(2.0, PressureLaw(gamma=1.0)) == 0.5
    assert d_pressure(1.0, PressureLaw(gamma=2.0)) == -2.0


def test_pressure_sign_conditions(law):
    v = np.linspace(0.2, 5.0, 200)
    assert np.all(d_pressure(v, law) < 0.0)
    assert np.all(np.diff(d_pressure(v, law)) > 0.0)   # p convex


def test_pressure_domain_errors(law):
    for bad in (0.0, -0.5, -1.0, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValidationError, match="positive and finite"):
            pressure(bad, law)
        with pytest.raises(ValidationError):
            d_pressure(bad, law)
        # one bad entry anywhere in an array is caught
        with pytest.raises(ValidationError, match="positive and finite"):
            pressure(np.array([1.0, bad, 2.0]), law)
    assert pressure(np.array([]), law).shape == (0,)


def test_gamma_validation():
    with pytest.raises(ValidationError):
        PressureLaw(gamma=0.5)


def test_build_shock_reference_case(shock):
    # independent evaluation of the jump relations for
    # (v-, v+, u-) = (1.2, 1.0, 0) with gamma = 2
    s_expected = -math.sqrt((1.0 ** -2 - 1.2 ** -2) / 0.2)
    assert shock.s == pytest.approx(s_expected, rel=1e-14)
    assert shock.s == pytest.approx(-1.236034, abs=1e-6)
    assert shock.u_plus == pytest.approx(0.2 * s_expected, rel=1e-14)
    assert shock.u_plus == pytest.approx(-0.247207, abs=1e-6)
    assert shock.delta == pytest.approx(0.2, rel=1e-14)


def test_build_shock_rejects_degenerate(law):
    with pytest.raises(ValidationError, match="not a 1-shock"):
        build_shock(1.0, 1.0, 0.0, law)
    with pytest.raises(ValidationError, match="not a 1-shock"):
        build_shock(1.0, 1.2, 0.0, law)
    with pytest.raises(ValidationError):
        build_shock(1.2, -1.0, 0.0, law)


@pytest.mark.filterwarnings("error")
def test_build_shock_refuses_overflowing_jump(law):
    # p(v_plus) overflows, or the quotient of the jump relation does;
    # both used to return s = -inf after a RuntimeWarning
    for v_minus, v_plus in ((1.2, 1e-200), (1e-150 * (1.0 + 1e-14), 1e-150)):
        with pytest.raises(ValidationError, match="^v_plus "):
            build_shock(v_minus, v_plus, 0.0, law)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gamma", [1.0, 3.0])
def test_build_shock_refuses_underflowing_speed(gamma):
    # s**2 = 1e-500 underflows while s = 1e-250 would not; this used to
    # return s = -0.0, against s < 0, and the full error then divided by it
    with pytest.raises(ValidationError,
                       match=r"^v_minus 1e\+300 and v_plus 1e\+200 .*gamma"):
        build_shock(1e300, 1e200, 0.0, PressureLaw(gamma))


@pytest.mark.filterwarnings("error")
def test_build_shock_refuses_overflowing_velocity(law):
    # the speed is finite, but u_minus - s*(v_plus - v_minus) overflows;
    # this used to return u_plus = -inf after a RuntimeWarning
    with pytest.raises(ValidationError, match="^u_minus "):
        build_shock(1.7e308, 1e-154, -1e308, law)


def test_rh_residuals_close(shock, law):
    r1, r2 = rh_residuals(shock, law)
    assert abs(r1) <= 1e-12
    assert abs(r2) <= 1e-12


@pytest.mark.parametrize("v_minus, v_plus, gamma", [
    (1e300, 1e-10, 3.0),   # s = -1e-135: one shared scale read -2.0e-138
    (1e6, 1.0, 2.0),       # read -2.0e-6
    (1.2, 1.0, 2.0),       # the default shock, read -2.0e-3
])
def test_rh_residuals_read_a_wrong_speed_at_every_strength(v_minus, v_plus,
                                                           gamma):
    # each relation is scaled by its own terms, so a speed 1e-3 off, with
    # u_plus recomputed from it, reads s**2/s_wrong**2 - 1 in momentum
    law = PressureLaw(gamma)
    sh = build_shock(v_minus, v_plus, 0.0, law)
    s = sh.s * (1.0 + 1e-3)
    wrong = replace(sh, s=s, u_plus=sh.u_minus - s * (v_plus - v_minus))
    r1, r2 = rh_residuals(wrong, law)
    assert abs(r1) <= 1e-15
    assert r2 == pytest.approx((1.0 + 1e-3) ** -2 - 1.0, rel=1e-9)
    assert max(map(abs, rh_residuals(sh, law))) <= 1e-15


@pytest.mark.parametrize("gamma", [1, 2, 3])
@pytest.mark.parametrize("delta", [1e-6, 1e-4, 1e-2])
def test_shock_speed_to_rounding(gamma, delta):
    # against exact rational arithmetic on the stored end states: raw
    # powers of volumes near 1 cancel, which put s 1e-11 relative off at
    # delta 1e-6.  s**2 within 8e-16 relative puts s within 4e-16.
    law = PressureLaw(float(gamma))
    sh = build_shock(1.0 + delta, 1.0, 0.0, law)
    vm, vp = Fraction(sh.v_minus), Fraction(sh.v_plus)
    exact = (vp ** -gamma - vm ** -gamma) / (vm - vp)
    assert abs(Fraction(sh.s) ** 2 / exact - 1) <= 8e-16
    # the accurate speed against a raw pressure jump read 2e-11 here
    assert max(map(abs, rh_residuals(sh, law))) <= 1e-15


def test_randomized_shocks_close_and_admissible():
    # the same sweep the acceptance suite runs: residuals at rounding
    # level and the Lax ordering automatic for this branch
    rng = np.random.default_rng(12345)
    for _ in range(100):
        gamma = rng.uniform(1.0, 3.0)
        v_plus = rng.uniform(0.5, 2.0)
        delta = rng.uniform(0.01, 0.5 * v_plus)
        u_minus = rng.uniform(-1.0, 1.0)
        law = PressureLaw(gamma=gamma)
        sh = build_shock(v_plus + delta, v_plus, u_minus, law)
        r1, r2 = rh_residuals(sh, law)
        assert abs(r1) <= 1e-12 and abs(r2) <= 1e-12
        assert sh.u_plus < sh.u_minus
        assert check_lax(sh, law).satisfied


def test_check_lax_reference_values(shock, law):
    rep = check_lax(shock, law)
    assert rep.satisfied
    assert rep.lambda_minus == pytest.approx(-math.sqrt(2.0 * 1.2 ** -3), rel=1e-14)
    assert rep.lambda_plus == pytest.approx(-math.sqrt(2.0), rel=1e-14)
    assert rep.lambda_minus == pytest.approx(-1.0758, abs=1e-4)
    assert rep.lambda_plus == pytest.approx(-1.4142, abs=1e-4)
    assert rep.lambda_plus < rep.s < rep.lambda_minus


def test_check_lax_rejects_velocity_rise(law):
    fake = ShockData(v_minus=1.2, v_plus=1.0, u_minus=0.0, u_plus=0.5,
                     s=-1.0, delta=0.2)
    assert not check_lax(fake, law).satisfied


def test_weak_shock_speed_limit(law):
    # shrinking jumps drive the speed to the left characteristic speed
    lam = float(lambda1(1.2, law))
    gaps = []
    for delta in (1e-2, 1e-3, 1e-4):
        sh = build_shock(1.2, 1.2 - delta, 0.0, law)
        gaps.append(abs(sh.s - lam))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-4


def test_riemann_eval_piecewise(shock):
    v, u = riemann_shock_eval(shock, -10.0, 1.0)
    assert (v, u) == (shock.v_minus, shock.u_minus)
    v, u = riemann_shock_eval(shock, 0.0, 1.0)
    assert (v, u) == (shock.v_plus, shock.u_plus)
    # exactly on the ray: right state by convention
    v, u = riemann_shock_eval(shock, shock.s * 2.0, 2.0)
    assert (v, u) == (shock.v_plus, shock.u_plus)


def test_riemann_eval_constant_on_rays(shock):
    for c in (-3.0, -1.5, 0.0, 1.0):
        if c == shock.s:
            continue
        vals = {riemann_shock_eval(shock, c * t, t) for t in (0.5, 1.0, 7.0)}
        assert len(vals) == 1


def test_riemann_eval_vectorized(shock):
    x = np.array([-10.0, 0.0, 10.0])
    v, u = riemann_shock_eval(shock, x, 1.0)
    assert v.shape == x.shape
    assert v[0] == shock.v_minus and v[2] == shock.v_plus

    with pytest.raises(ValidationError):
        riemann_shock_eval(shock, 0.0, -1.0)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_riemann_eval_refuses_non_finite_time(shock, t):
    # a NaN time read the right state at every x
    with pytest.raises(ValidationError, match="time t must be finite"):
        riemann_shock_eval(shock, np.array([-10.0, 0.0, 10.0]), t)
