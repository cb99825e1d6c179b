import numpy as np
import pytest

from viscoshock import (Grid1D, OmegaSpec, PressureLaw, SolverSizing,
                        ValidationError, alpha_sweep, build_shock,
                        compute_profile, convergence_harness, full_error,
                        init_state, lagrangian_solver, profile_only_error,
                        riemann_shock_eval, run)
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


def test_profile_error_vanishes_far_out(shock, law):
    omega_far = OmegaSpec(h=40.0, t_final=80.0)
    assert profile_only_error(shock, 0.1, law, omega_far) < 1e-14


def test_profile_error_decreasing_in_alpha(shock, law, omega):
    errs = [profile_only_error(shock, a, law, omega)
            for a in (0.4, 0.2, 0.1, 0.05)]
    assert all(b < a for a, b in zip(errs, errs[1:]))


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


def test_full_error_counts_its_steps(shock, law, omega, monkeypatch):
    # n_steps sums the steps of every window run
    calls = []
    advance = lagrangian_solver._advance

    def counted(*args):
        calls.append(1)
        return advance(*args)

    monkeypatch.setattr(lagrangian_solver, "_advance", counted)
    res = full_error(shock, 0.2, law, omega)
    assert res.n_steps == len(calls) > 0


def test_default_cfl_cuts_the_sweep_steps(shock, law):
    # the criterion-7 sweep at the default cfl 0.95 against cfl 0.8, both
    # at 26 cells per width: measured 1,096 against 1,294 steps (0.847).
    # At 20 it reads 853/990 = 0.862: on the coarser grid the steps
    # clipped at chunk ends and lattice stops take a larger share
    omega = OmegaSpec(h=1.0, t_final=2.0, x_samples=801, t_samples=5)

    def steps(sizing):
        return sum(full_error(shock, a, law, omega, sizing).n_steps
                   for a in (0.4, 0.2, 0.1, 0.05))

    assert (steps(SolverSizing(cells_per_width=26.0))
            <= 0.86 * steps(SolverSizing(cells_per_width=26.0, cfl=0.8)))


def test_default_sizing_cuts_the_sweep_cell_steps(shock, law):
    # the criterion-7 sweep at the default 20 cells per width against 26:
    # measured 734,433 against 1,226,424 cell-steps (0.599); each entry
    # lists its window's cells and steps
    omega = OmegaSpec(h=1.0, t_final=2.0, x_samples=801, t_samples=5)

    def cell_steps(sizing):
        sweep = alpha_sweep(shock, law, [0.4, 0.2, 0.1, 0.05], omega,
                            sizing=sizing)
        assert all(c > 0 and n > 0
                   for c, n in zip(sweep.n_cells, sweep.n_steps))
        return sum(c * n for c, n in zip(sweep.n_cells, sweep.n_steps))

    assert (cell_steps(SolverSizing())
            <= 0.62 * cell_steps(SolverSizing(cells_per_width=26.0)))


def test_full_error_cap_flag(shock, law, omega, monkeypatch):
    monkeypatch.setattr(SolverSizing, "tau_max", 5.0)
    res = full_error(shock, 0.2, law, omega)
    assert res.capped
    assert res.tau_end == 5.0
    assert np.isfinite(res.error)


def test_full_error_cap_at_window_opening(shock, law, monkeypatch):
    # the cap is the first admissible one, alpha*tau_max == h, and
    # h/alpha rounds one ulp past tau_max: every lattice stop is tau_max
    alpha, tau_max = 0.1, 24.0
    omega = OmegaSpec(h=alpha * tau_max, t_final=2.0 * alpha * tau_max,
                      x_samples=201, t_samples=3)
    assert omega.h / alpha > tau_max
    monkeypatch.setattr(SolverSizing, "tau_max", tau_max)
    res = full_error(shock, alpha, law, omega)
    assert res.capped and res.tau_end == tau_max
    assert np.isfinite(res.error)


def test_cap_before_the_window_opens_refused(shock, law, monkeypatch):
    # alpha*tau_max = 0.8 < h = 1: no lattice time is reachable, so the
    # entry is refused before a step is taken
    def no_steps(*args, **kwargs):
        raise AssertionError("stepped")

    monkeypatch.setattr(convergence_harness, "run", no_steps)
    omega = OmegaSpec(h=1.0, t_final=2.0, x_samples=201, t_samples=3)
    with pytest.raises(ValidationError, match="^tau_max caps the run "
                                              "before the sampling window"):
        full_error(shock, 0.004, law, omega)


def test_sweep_records_failures(shock, law, omega, monkeypatch):
    # an unreachable tolerance in one entry must not sink the sweep
    monkeypatch.setattr(SolverSizing, "margin_efolds", 1.0)
    sizing = SolverSizing(cells_per_width=20.0)
    sweep = alpha_sweep(shock, law, [0.4, 0.2, 0.1], omega,
                        include_full=True, sizing=sizing)
    assert len(sweep.failures) == 3       # margins far too small
    assert all(np.isnan(e) for e in sweep.e_full)
    assert sweep.n_cells == sweep.n_steps == [0, 0, 0]


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
    bare = alpha_sweep(shock, law, alphas, omega, include_full=False)
    assert calls == alphas
    assert bare.n_cells == bare.n_steps == [0, 0, 0, 0]
    # standalone calls reproduce the sweep's entries bit for bit
    sizing = SolverSizing()
    for a, e_p, e_f, cells, steps in zip(alphas, sweep.e_profile,
                                         sweep.e_full, sweep.n_cells,
                                         sweep.n_steps):
        assert profile_only_error(shock, a, law, omega,
                                  tol=sizing.profile_tol) == e_p
        full = full_error(shock, a, law, omega, sizing)
        assert (full.error, full.n_cells, full.n_steps) == (e_f, cells, steps)


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
    for kwargs, name in (({"cfl": 2.0}, "cfl"),
                         ({"cells_per_width": float("inf")},
                          "cells_per_width")):
        with pytest.raises(ValidationError, match=f"^{name} "):
            SolverSizing(**kwargs)
    # the margin and the cap are constants, as profile_tol is
    for name in ("margin_efolds", "tau_max"):
        with pytest.raises(TypeError):
            SolverSizing(**{name: 1.0})


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


def _full_domain_error(profile, omega, sizing):
    # the reference: every cell of the full grid stepped for the whole
    # run, stopping only at the lattice times; returns (error, n_cells)
    shock, alpha = profile.shock, profile.alpha
    mu = alpha * min(profile.lambda_minus, -profile.lambda_plus)
    margin = sizing.margin_efolds / mu
    tau_end = min(omega.t_final / alpha, sizing.tau_max)
    y_min = shock.s * tau_end - margin - 2.0 / mu
    y_max = max(margin, omega.h / alpha + 6.0 / mu)
    dy_target = 1.0 / (mu * sizing.cells_per_width)
    n_cells = int(np.ceil((y_max - y_min) / dy_target))
    grid = Grid1D(y_min=y_min, y_max=y_max, n_cells=n_cells)
    state = init_state(profile, grid)
    t_lattice = np.linspace(omega.h, min(omega.t_final, alpha * tau_end),
                            omega.t_samples)
    stops = np.minimum(t_lattice[:-1] / alpha, tau_end)
    err = 0.0
    for t, tau in zip(t_lattice, [*stops, tau_end]):
        state, _ = run(state, tau, cfl=sizing.cfl)
        xs = _omega_positions(shock, omega, t,
                              alpha * grid.y_min, alpha * grid.y_max)
        v_num = np.interp(xs / alpha, grid.centers(), state.v)
        u_num = np.interp(xs / alpha, grid.interfaces(), state.u)
        v_ref, u_ref = riemann_shock_eval(shock, xs, t)
        err = max(err, float(np.max(np.abs(v_num - v_ref)
                                    + np.abs(u_num - u_ref))))
    return err, n_cells


@pytest.mark.parametrize("gamma, delta, alpha", [
    pytest.param(2.0, 0.2, 0.4, id="0.4"),
    pytest.param(2.0, 0.2, 0.05, id="0.05"),
    pytest.param(2.75, 0.446, 0.081, id="strong-0.081"),
    pytest.param(2.02, 2.45, 0.529, id="strong-0.529")])
def test_window_matches_the_full_domain(gamma, delta, alpha):
    # the sliding window moves the error by the steps clipped at its chunk
    # ends and the frozen far field by less: measured 4.6e-8, 4.4e-6,
    # 4.0e-6 and 2.2e-6 relative at the default 20 cells per width
    # (1.4e-7, 4.4e-6, 4.4e-6 and 9.6e-7 at 26).  Windows of h/alpha +
    # 6/mu a side read 1.4e-4 and 1.6e-3 on the strong shocks at 26.  At
    # alpha 0.05 the window steps 861 of the 1,199 cells
    law = PressureLaw(gamma)
    shock = build_shock(1.0 + delta, 1.0, 0.0, law)
    omega = OmegaSpec(h=1.0, t_final=2.0, x_samples=801, t_samples=5)
    sizing = SolverSizing()
    wave = compute_profile(shock, alpha, law, tol=sizing.profile_tol)
    ref, n_full = _full_domain_error(wave, omega, sizing)
    res = full_error(shock, alpha, law, omega, sizing)
    assert res.error == pytest.approx(ref, rel=1e-4, abs=0.0)
    assert res.n_cells <= n_full
    if alpha == 0.05:
        assert res.n_cells < 0.75 * n_full
