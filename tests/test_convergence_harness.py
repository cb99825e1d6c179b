import numpy as np
import pytest
from scipy.optimize import brentq

from viscoshock import (OmegaSpec, SolverSizing, ValidationError, alpha_sweep,
                        compute_profile, convergence_harness, full_error,
                        profile_only_error)
from viscoshock.convergence_harness import _omega_positions


@pytest.fixture(scope="module")
def omega():
    return OmegaSpec(h=1.0, t_final=2.0, x_samples=401, t_samples=3)


def test_omega_validation():
    with pytest.raises(ValidationError):
        OmegaSpec(h=0.0, t_final=2.0)
    with pytest.raises(ValidationError):
        OmegaSpec(h=2.0, t_final=1.0)
    # a fractional count used to fail later as a bare numpy TypeError
    with pytest.raises(ValidationError, match="^x_samples"):
        OmegaSpec(1.0, 2.0, x_samples=2.5)
    with pytest.raises(ValidationError, match="^t_samples"):
        OmegaSpec(1.0, 2.0, t_samples=3.0)
    assert OmegaSpec(1.0, 2.0, np.int64(5), np.int64(3)).t_samples == 3


def test_omega_positions_exclude_strip(shock, omega):
    for t in (1.0, 1.5, 2.0):
        xs = _omega_positions(shock, omega, t, -4.0, 2.0)
        assert np.all(np.abs(xs - shock.s * t) >= omega.h * (1 - 1e-12))
        # the extreme points at distance exactly h are present
        assert np.min(np.abs(np.abs(xs - shock.s * t) - omega.h)) < 1e-9
    with pytest.raises(ValidationError):
        _omega_positions(shock, omega, 0.5, -4.0, 2.0)


def test_profile_error_vanishes_far_out(shock, law):
    omega_far = OmegaSpec(h=40.0, t_final=80.0)
    assert profile_only_error(shock, 0.1, law, omega_far) < 1e-14


def test_profile_error_decreasing_in_alpha(shock, law, omega):
    errs = [profile_only_error(shock, a, law, omega)
            for a in (0.4, 0.2, 0.1, 0.05)]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_profile_error_shift_invariance(shock, law, omega):
    # renormalising the wave translates it by some distance d; the tail
    # error must land between the base errors at h +- d
    e_mid = profile_only_error(shock, 0.1, law, omega)
    base = compute_profile(shock, 0.1, law, tol=1e-12)
    m2 = shock.v_plus + 0.35 * shock.delta
    shifted = compute_profile(shock, 0.1, law, tol=1e-12, normalization=m2)
    rough = float(np.interp(-m2, -base.V, base.xi_grid))
    d = abs(brentq(lambda x: base.eval_V(x) - m2, rough - 0.2, rough + 0.2))
    e_shift = convergence_harness._tail_error(shifted, omega)
    lo = profile_only_error(shock, 0.1, law,
                            OmegaSpec(h=omega.h + d, t_final=omega.t_final))
    hi = profile_only_error(shock, 0.1, law,
                            OmegaSpec(h=max(omega.h - d, 1e-6),
                                      t_final=omega.t_final))
    assert lo * (1 - 1e-6) <= e_shift <= hi * (1 + 1e-6)
    assert abs(e_shift - e_mid) <= hi - lo + 1e-9


def test_fit_slope_tracks_h(shock, law):
    # the fitted decay constant scales linearly with the strip width
    alphas = [0.4, 0.2, 0.1, 0.05]
    fits = []
    for h in (1.0, 2.0):
        om = OmegaSpec(h=h, t_final=2.0 * h)
        sweep = alpha_sweep(shock, law, alphas, om, include_full=False)
        assert sweep.r_squared >= 0.99
        fits.append(sweep.c_fit)
    assert fits[1] / fits[0] == pytest.approx(2.0, rel=0.10)


def test_fit_slope_magnitude(shock, law, omega):
    # slope against the slower tail: |rate| * alpha is alpha-independent
    # to leading order and sets the decay constant per unit 1/alpha
    from viscoshock import tail_rates
    sweep = alpha_sweep(shock, law, [0.4, 0.2, 0.1, 0.05], omega,
                        include_full=False)
    lam_m, lam_p = tail_rates(shock, 0.1, law)
    mu = 0.1 * min(lam_m, -lam_p)
    assert sweep.c_fit == pytest.approx(omega.h * mu, rel=0.15)
    assert sweep.c_fit > 0.0


def test_sweep_requires_three_decreasing(shock, law, omega):
    with pytest.raises(ValidationError):
        alpha_sweep(shock, law, [0.1], omega)
    with pytest.raises(ValidationError):
        alpha_sweep(shock, law, [0.4, 0.2], omega)
    with pytest.raises(ValidationError):
        alpha_sweep(shock, law, [0.1, 0.2, 0.4], omega)


def test_full_error_against_profile_error(shock, law, omega):
    e_prof = profile_only_error(shock, 0.2, law, omega)
    res = full_error(shock, 0.2, law, omega)
    assert not res.capped
    assert res.window_ok
    # the wave-tail error is a lower bound up to the scheme floor
    assert res.error >= e_prof - 1e-3
    assert res.error <= e_prof + 1e-2


def test_full_error_cap_flag(shock, law, omega):
    sizing = SolverSizing(tau_max=5.0)
    res = full_error(shock, 0.2, law, omega, sizing)
    assert res.capped
    assert res.tau_end == 5.0
    assert np.isfinite(res.error)


def test_full_error_cap_at_window_opening(shock, law):
    # the cap is the first admissible one, alpha*tau_max == h, and
    # h/alpha rounds one ulp past tau_max: every lattice stop is tau_max
    alpha, tau_max = 0.1, 24.0
    omega = OmegaSpec(h=alpha * tau_max, t_final=2.0 * alpha * tau_max,
                      x_samples=201, t_samples=3)
    assert omega.h / alpha > tau_max
    res = full_error(shock, alpha, law, omega, SolverSizing(tau_max=tau_max))
    assert res.capped and res.tau_end == tau_max
    assert np.isfinite(res.error)


def test_sweep_records_failures(shock, law, omega):
    # an unreachable tolerance in one entry must not sink the sweep
    sizing = SolverSizing(cells_per_width=20.0, margin_efolds=1.0)
    sweep = alpha_sweep(shock, law, [0.4, 0.2, 0.1], omega,
                        include_full=True, sizing=sizing)
    assert len(sweep.failures) == 3       # margins far too small
    assert all(np.isnan(e) for e in sweep.e_full)


@pytest.mark.parametrize("alpha", [0.104, 0.114, 0.116])
def test_full_error_samples_at_lattice_times(shock, law, alpha):
    # alpha * (h / alpha) rounds one ulp below h for these alphas; the
    # wedge is sampled at the lattice time the harness chose instead
    omega = OmegaSpec(h=1.0, t_final=2.0, x_samples=201, t_samples=3)
    res = full_error(shock, alpha, law, omega)
    assert np.isfinite(res.error)
    assert res.window_ok


def test_sweep_accepts_lattice_rounding_alpha(shock, law):
    omega = OmegaSpec(h=1.0, t_final=2.0, x_samples=201, t_samples=3)
    sweep = alpha_sweep(shock, law, [0.4, 0.104, 0.05], omega)
    assert sweep.failures == {}
    assert all(np.isfinite(sweep.e_full))


def test_sweep_builds_one_wave_per_entry(shock, law, omega, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return compute_profile(*args, **kwargs)

    monkeypatch.setattr(convergence_harness, "compute_profile", counted)
    alphas = [0.4, 0.3, 0.2, 0.1]
    sweep = alpha_sweep(shock, law, alphas, omega)
    assert calls == alphas
    calls.clear()
    alpha_sweep(shock, law, alphas, omega, include_full=False)
    assert calls == alphas
    # standalone calls reproduce the sweep's entries bit for bit
    sizing = SolverSizing()
    for a, e_p, e_f in zip(alphas, sweep.e_profile, sweep.e_full):
        assert profile_only_error(shock, a, law, omega,
                                  tol=sizing.profile_tol) == e_p
        assert full_error(shock, a, law, omega, sizing).error == e_f


def test_sweep_propagates_programming_errors(shock, law, omega,
                                             monkeypatch):
    # only library refusals are recorded as entry failures
    def broken(*args, **kwargs):
        raise TypeError("injected")

    monkeypatch.setattr(convergence_harness, "compute_profile", broken)
    with pytest.raises(TypeError, match="injected"):
        alpha_sweep(shock, law, [0.4, 0.2, 0.1], omega, include_full=False)


def test_sizing_refuses_at_construction():
    # each used to be accepted and surface per alpha as a symptom
    # ("grid too narrow", a failing run or a ZeroDivisionError)
    nan, inf = float("nan"), float("inf")
    for kwargs, name in (({"margin_efolds": 0.0}, "margin_efolds"),
                         ({"margin_efolds": nan}, "margin_efolds"),
                         ({"cfl": 2.0}, "cfl"),
                         ({"cells_per_width": inf}, "cells_per_width"),
                         ({"tau_max": nan}, "tau_max")):
        with pytest.raises(ValidationError, match=f"^{name} "):
            SolverSizing(**kwargs)
    assert SolverSizing(tau_max=inf).tau_max == inf


def test_profile_tol_is_a_constant():
    # no caller set it, and a set value was never checked
    assert SolverSizing().profile_tol == 1e-12
    with pytest.raises(TypeError):
        SolverSizing(profile_tol=float("nan"))


def test_omega_refuses_infinite_window():
    with pytest.raises(ValidationError, match="t_final"):
        OmegaSpec(1.0, float("inf"))
    with pytest.raises(ValidationError, match="t_samples"):
        OmegaSpec(1.0, 2.0, t_samples=1)


@pytest.mark.parametrize("alphas", [[0.4, float("nan"), 0.1],
                                    [float("inf"), 0.2, 0.1],
                                    [0.4, 0.2, float("nan")]])
def test_sweep_refuses_non_finite_alphas(shock, law, omega, alphas):
    with pytest.raises(ValidationError, match="alphas"):
        alpha_sweep(shock, law, alphas, omega, include_full=False)
