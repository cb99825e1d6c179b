import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viscoshock import (NumericalError, PressureLaw, ValidationError,
                        build_shock, compute_profile, profile_residual,
                        rescaled_profile_eval, tail_rates,
                        verify_profile_properties)
from viscoshock.shock_profile import _rhs_unchecked


def test_reduced_rhs_vanishes_at_end_states(shock, law):
    assert _rhs_unchecked(shock.v_minus, shock, 0.1, law) == 0.0
    assert abs(_rhs_unchecked(shock.v_plus, shock, 0.1, law)) <= 1e-14


def test_reduced_rhs_reference_value(shock, law):
    # direct evaluation of the slope formula at V = 1.1, alpha = 0.1:
    # chord gap times V**1.1 over (alpha * |s|)
    s2 = (1.0 ** -2 - 1.2 ** -2) / 0.2
    gap = s2 * (1.1 - 1.2) + 1.1 ** -2 - 1.2 ** -2
    expected = gap * 1.1 ** 1.1 / (0.1 * math.sqrt(s2))
    got = _rhs_unchecked(1.1, shock, 0.1, law)
    assert got == pytest.approx(expected, rel=1e-13)
    assert got < 0.0


def test_reduced_rhs_strictly_negative_inside(shock, law):
    v = np.linspace(shock.v_plus, shock.v_minus, 2001)[1:-1]
    assert np.all(_rhs_unchecked(v, shock, 0.1, law) < 0.0)


def test_tail_rates_reference_values(shock, law):
    # linearisation of the reduced slope at the end states, alpha = 0.1
    s2 = (1.0 ** -2 - 1.2 ** -2) / 0.2
    s_abs = math.sqrt(s2)
    lam_m = (s2 - 2.0 * 1.2 ** -3) * 1.2 ** 1.1 / (s_abs * 0.1)
    lam_p = (s2 - 2.0) / (s_abs * 0.1)
    got_m, got_p = tail_rates(shock, 0.1, law)
    assert got_m == pytest.approx(lam_m, rel=1e-13)
    assert got_p == pytest.approx(lam_p, rel=1e-13)
    assert got_m == pytest.approx(3.662, abs=2e-3)
    assert got_p == pytest.approx(-3.820, abs=2e-3)


def test_profile_normalization_and_bounds(profile, shock):
    mid = 0.5 * (shock.v_minus + shock.v_plus)
    assert profile.normalization == mid
    assert profile.eval_V(0.0) == pytest.approx(mid, abs=1e-15)
    assert np.all(np.diff(profile.V) < 0.0)
    assert np.all(np.diff(profile.U) < 0.0)
    assert np.all((profile.V > shock.v_plus) & (profile.V < shock.v_minus))
    assert np.all((profile.U > shock.u_plus) & (profile.U < shock.u_minus))


def test_profile_reaches_end_states(profile, shock):
    assert abs(profile.V[0] - shock.v_minus) < 1e-9
    assert abs(profile.V[-1] - shock.v_plus) < 1e-9


def test_first_integral_identity(profile, shock):
    gap = profile.U - (shock.u_minus - shock.s * (profile.V - shock.v_minus))
    assert np.max(np.abs(gap)) <= 10.0 * profile.tol


def test_residual_refinement_second_order(shock, law):
    # the automatic grid covers the same cutoffs at every n
    residuals = [profile_residual(compute_profile(shock, 0.1, law,
                                                  tol=1e-12, n=n))
                 for n in (1001, 2001, 4001)]
    for coarse, fine in zip(residuals, residuals[1:]):
        assert 3.2 <= coarse / fine <= 4.8


def test_residual_zero_for_constant_states(profile, shock):
    xi = np.linspace(-2.0, 2.0, 101)
    for v0, u0 in ((shock.v_minus, shock.u_minus),
                   (shock.v_plus, shock.u_plus)):
        flat = replace(profile, xi_grid=xi, V=np.full_like(xi, v0),
                       U=np.full_like(xi, u0))
        assert profile_residual(flat) == 0.0


def test_residual_detects_perturbation(profile):
    r0 = profile_residual(profile)
    V = np.array(profile.V)
    V[len(V) // 2] += 1e-3
    r1 = profile_residual(replace(profile, V=V))
    assert r1 > 100.0 * r0


def test_property_report(profile):
    rep = verify_profile_properties(profile, h_probe=0.0)
    assert rep.bounds_ok and rep.monotone_ok and rep.du_negative_ok
    assert rep.rates_ok
    assert rep.rate_rel_err_left <= 0.05
    assert rep.rate_rel_err_right <= 0.05
    # probing only the far tail still matches the analytic rates
    rep_far = verify_profile_properties(profile, h_probe=1.0)
    assert rep_far.rates_ok


def test_shift_covariance(shock, law):
    # the wave is unique up to translation: renormalised profiles are
    # translates of each other
    p1 = compute_profile(shock, 0.1, law, tol=1e-10, n=4001)
    m2 = shock.v_plus + 0.3 * shock.delta
    p2 = compute_profile(shock, 0.1, law, tol=1e-10, n=4001,
                         normalization=m2)
    # locate m2 on the first profile to get the translation
    from scipy.optimize import brentq
    rough = float(np.interp(-m2, -p1.V, p1.xi_grid))
    shift = brentq(lambda x: p1.eval_V(x) - m2, rough - 0.1, rough + 0.1,
                   xtol=1e-14)
    xi = np.linspace(-3.0, 3.0, 200)
    assert np.max(np.abs(p2.eval_V(xi) - p1.eval_V(xi + shift))) < 1e-8


def test_rate_scaling_with_strength(law):
    # decay rate scales like strength over viscosity: rate*alpha/delta
    # stays within a narrow band over the sweep
    ratios = []
    for v_minus in (1.05, 1.1, 1.2, 1.3):
        sh = build_shock(v_minus, 1.0, 0.0, law)
        for alpha in (0.02, 0.05, 0.1, 0.2, 0.4):
            lam_m, lam_p = tail_rates(sh, alpha, law)
            ratios.append(lam_m * alpha / sh.delta)
            ratios.append(-lam_p * alpha / sh.delta)
    assert max(ratios) / min(ratios) < 1.6


def test_compute_profile_validation(shock, law):
    with pytest.raises(ValidationError):
        compute_profile(shock, -0.1, law)
    with pytest.raises(ValidationError):
        compute_profile(shock, 0.1, law, tol=0.0)
    with pytest.raises(ValidationError):
        compute_profile(shock, 0.1, law, n=8)
    with pytest.raises(ValidationError, match="^n must be an integer"):
        compute_profile(shock, 0.1, law, n=4001.5)
    with pytest.raises(ValidationError):
        compute_profile(shock, 0.1, law, normalization=1.3)


def test_rescaled_eval_points(profile, shock):
    v0, u0 = rescaled_profile_eval(profile, 0.0, 0.0)
    assert v0 == profile.normalization
    assert u0 == pytest.approx(
        shock.u_minus - shock.s * (v0 - shock.v_minus), rel=1e-15)
    # traveling-wave invariance along the ray
    for tau in (0.7, 3.1):
        v, u = rescaled_profile_eval(profile, shock.s * tau, tau)
        assert v == pytest.approx(v0, abs=1e-15)
    # far field
    v, u = rescaled_profile_eval(profile, 1e6, 0.0)
    assert v == pytest.approx(shock.v_plus, abs=1e-12)
    assert u == pytest.approx(shock.u_plus, abs=1e-12)


def test_eval_dV_matches_finite_difference(profile):
    # the stretched-frame slope alpha*dV/dxi against differences of
    # the stretched-frame wave
    y = np.linspace(-20.0, 20.0, 41)
    xi = profile.alpha * (y - profile.shock.s * 0.5)
    dv = profile.alpha * profile.eval_dV(xi)
    h = 1e-5
    vp, _ = rescaled_profile_eval(profile, y + h, 0.5)
    vm, _ = rescaled_profile_eval(profile, y - h, 0.5)
    fd = (vp - vm) / (2.0 * h)
    assert np.max(np.abs(dv - fd)) < 1e-6


def test_profiles_immutable(profile):
    with pytest.raises(ValueError):
        profile.V[0] = 2.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gamma, delta, alpha", [
    # a symmetric automatic span sized by the slow right tail was too
    # wide for the fast left one
    (1.4, 9.0, 0.5),
    (2.0, 0.2, 5.0),
    # a trial stage stepped below v_plus into the validated pressure
    (2.900344936390476, 0.566232454280005, 0.0010348774425225833),
])
def test_automatic_grid_regressions(gamma, delta, alpha):
    law = PressureLaw(gamma)
    prof = compute_profile(build_shock(1.0 + delta, 1.0, 0.0, law), alpha,
                           law)
    assert verify_profile_properties(prof, 0.0).all_ok
    assert np.array_equal(prof.eval_V(prof.xi_grid), prof.V)


def test_automatic_grid_layout(profile):
    # uniform, a node at 0, exactly one node past each cutoff
    xi = profile.xi_grid
    h = np.diff(xi)
    assert np.allclose(h, h[0], rtol=1e-9, atol=0.0)
    assert np.count_nonzero(xi == 0.0) == 1
    assert np.count_nonzero(xi <= profile.xi_cut_left) == 1
    assert np.count_nonzero(xi >= profile.xi_cut_right) == 1
    assert np.array_equal(profile.eval_V(xi), profile.V)


@pytest.mark.filterwarnings("error")
@settings(max_examples=60, derandomize=True, deadline=None)
@given(gamma=st.floats(1.0, 3.0),
       log_delta=st.floats(math.log(1e-6), math.log(5.0)),
       log_alpha=st.floats(math.log(1e-3), math.log(5.0)))
def test_readme_domain_never_blames_the_caller(gamma, log_delta, log_alpha):
    # a profile is either right or a NumericalError (weak shocks, whose
    # samples tie at the integrator's tolerance)
    law = PressureLaw(gamma)
    shock = build_shock(1.0 + math.exp(log_delta), 1.0, 0.0, law)
    try:
        prof = compute_profile(shock, math.exp(log_alpha), law)
    except NumericalError:
        return
    V, U = prof.V, prof.U
    assert np.all((V > shock.v_plus) & (V < shock.v_minus))
    assert np.all(np.diff(V) < 0.0) and np.all(np.diff(U) < 0.0)
    gap = U - (shock.u_minus - shock.s * (V - shock.v_minus))
    assert np.max(np.abs(gap)) <= 10.0 * prof.tol
    assert np.array_equal(prof.eval_V(prof.xi_grid), V)


def test_profile_refusals_name_the_argument(shock, law):
    nan, inf = float("nan"), float("inf")
    for kwargs, name in (({"tol": nan}, "tol"), ({"tol": inf}, "tol")):
        with pytest.raises(ValidationError, match=f"^{name} "):
            compute_profile(shock, 0.1, law, **kwargs)


def test_tol_swallowing_the_jump_blames_tol(shock, law):
    # delta = 0.2: from tol = delta/4 = 0.05 on, the tail cutoffs meet at
    # the midpoint; no normalization was passed, so none is blamed
    with pytest.raises(ValidationError, match=r"tol must be below delta/4"):
        compute_profile(shock, 0.1, law, tol=0.06)
    with pytest.raises(ValidationError, match="tol"):
        compute_profile(shock, 0.1, law, tol=0.05)
