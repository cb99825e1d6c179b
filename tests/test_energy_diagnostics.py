from dataclasses import replace

import numpy as np
import pytest

from viscoshock import (EnergyReport, Grid1D, NumericalError, ValidationError,
                        ViscousProfile, build_shock, compute_profile,
                        energy_snapshot, init_state, longtime_decay_check,
                        perturbation, rescaled_profile_eval, run)
from viscoshock.energy_diagnostics import _sobolev_sq, diff1, l2_sq


def sobolev_triple(f, dy):
    # (L2, H1, H2) norms from the squared norms energy_snapshot sums
    a, b, c = _sobolev_sq(f, dy)[0]
    return np.sqrt(a), np.sqrt(a + b), np.sqrt(a + b + c)


def _bumped(state, profile, amp, center=25.0, width=2.0, bump_v=False):
    grid = state.grid
    yi = grid.interfaces()
    z = (yi - center) / width
    u = state.u + amp * np.sqrt(2 * np.e) * z * np.exp(-z * z)
    u.setflags(write=False)
    v = state.v
    if bump_v:
        zc = (grid.centers() - center) / width
        v = v + amp * np.exp(-zc * zc)
        v.setflags(write=False)
    return replace(state, v=v, u=u, bc_u=(float(u[0]), float(u[-1])))


@pytest.fixture(scope="module")
def grid():
    return Grid1D(y_min=-65.0, y_max=55.0, n_cells=800)


@pytest.fixture(scope="module")
def prepared(reference_profile, grid):
    return init_state(reference_profile, grid)


def test_prepared_fields_all_zero(prepared, reference_profile):
    fields = perturbation(prepared, reference_profile)
    assert np.all(fields.phi == 0.0)
    assert np.all(fields.psi == 0.0)
    assert np.all(fields.phi_cum == 0.0)
    assert np.all(fields.psi_cum == 0.0)


def test_antiderivatives_vanish_at_left_boundary(prepared, reference_profile):
    state = _bumped(prepared, reference_profile, 1e-3)
    fields = perturbation(state, reference_profile)
    assert fields.phi_cum[0] == 0.0
    assert fields.psi_cum[0] == 0.0


def test_zero_field_integrates_to_zero(prepared, reference_profile):
    fields = perturbation(prepared, reference_profile)
    assert np.all(fields.phi_cum == 0.0)


def test_parameter_mismatch_rejected(prepared, shock, law):
    from viscoshock import compute_profile
    other = compute_profile(shock, 0.2, law, n=1001)
    with pytest.raises(ValidationError):
        perturbation(prepared, other)


def test_state_of_another_shock_rejected(prepared, law):
    # the same alpha and gamma, but the wave of a stronger shock
    other = compute_profile(build_shock(1.3, 1.0, 0.0, law), 0.1, law,
                            n=1001)
    with pytest.raises(ValidationError, match="different shocks"):
        perturbation(prepared, other)


def test_hat_function_l2_oracle():
    # hand quadrature: trapezoid of the squared nodal hat {0,1,0} is dy
    dy = 0.125
    f = np.zeros(33)
    f[16] = 1.0
    assert l2_sq(f, dy) == pytest.approx(dy, rel=1e-15)
    l2, h1, h2 = sobolev_triple(f, dy)
    assert l2 == pytest.approx(np.sqrt(dy), rel=1e-15)
    assert h1 > l2 and h2 > h1


def test_sobolev_norms_need_samples():
    with pytest.raises(ValidationError):
        sobolev_triple(np.zeros(4), 0.1)


def test_norms_richardson_convergence():
    # errors against a fine-grid value shrink at second order
    def norms(n):
        y = np.linspace(-8.0, 8.0, n)
        f = np.exp(-y * y) * np.sin(2.0 * y)
        return np.array(sobolev_triple(f, y[1] - y[0]))

    ref = norms(12801)
    e1 = np.abs(norms(401) - ref)
    e2 = np.abs(norms(801) - ref)
    # the plain L2 entry is already exact to rounding for this analytic
    # integrand; the derivative-bearing norms refine at second order
    assert e1[0] < 1e-12 and e2[0] < 1e-12
    ratios = e1[1:] / e2[1:]
    assert np.all(ratios > 3.0) and np.all(ratios < 5.0)


def test_discrete_interpolation_inequality():
    # sup f <= 1.01 sqrt(||f|| ||f'||) + grid slack, on analytic samples
    for k in (1.0, 3.0):
        y = np.linspace(-10.0, 10.0, 4001)
        dy = y[1] - y[0]
        f = np.exp(-y * y) * np.sin(k * y)
        fy = diff1(f, dy)
        bound = 1.01 * np.sqrt(np.sqrt(l2_sq(f, dy)) * np.sqrt(l2_sq(fy, dy)))
        assert np.max(np.abs(f)) <= bound + 10.0 * dy * np.max(np.abs(fy))


def test_first_snapshot_zero(prepared, reference_profile):
    report = energy_snapshot(prepared, reference_profile, EnergyReport())
    assert report.peak_h2_sq == [0.0]
    assert report.diss_weighted == [0.0]
    assert report.diss_phi == [0.0]
    assert report.diss_psi == [0.0]
    assert report.remainder_max == [0.0]


def test_accumulators_monotone(prepared, reference_profile):
    state = _bumped(prepared, reference_profile, 2e-4)
    report = EnergyReport()
    energy_snapshot(state, reference_profile, report)
    run(state, 2.0,
        observer=lambda s: energy_snapshot(s, reference_profile, report),
        observe_every=0.25, cfl=0.4)
    for series in (report.diss_weighted, report.diss_phi, report.diss_psi,
                   report.peak_h2_sq):
        assert all(b >= a for a, b in zip(series, series[1:]))
    assert all(np.isfinite(report.remainder_margin))


def test_zero_mass_throughout_run(prepared, reference_profile, grid):
    width = grid.y_max - grid.y_min
    totals = []

    def watch(s):
        fields = perturbation(s, reference_profile)
        totals.append(abs(fields.phi_cum[-1]))

    run(prepared, 4.0, observer=watch, observe_every=0.5, cfl=0.4)
    assert max(totals) <= 1e-10 * width


def test_remainder_quadratic_in_amplitude(prepared, reference_profile):
    # far from the wave core the remainder is pure second order: halving
    # the injected amplitude quarters it
    big = _bumped(prepared, reference_profile, 4e-3, center=30.0, bump_v=True)
    small = _bumped(prepared, reference_profile, 2e-3, center=30.0, bump_v=True)
    q_big = energy_snapshot(big, reference_profile,
                            EnergyReport()).remainder_max[0]
    q_small = energy_snapshot(small, reference_profile,
                              EnergyReport()).remainder_max[0]
    assert 3.5 <= q_big / q_small <= 4.5


def test_remainder_majorant_bounded(prepared, reference_profile):
    state = _bumped(prepared, reference_profile, 2e-4, bump_v=True)
    report = EnergyReport()
    run(state, 1.0,
        observer=lambda s: energy_snapshot(s, reference_profile, report),
        observe_every=0.25, cfl=0.4)
    assert all(np.isfinite(m) for m in report.remainder_margin)


def test_snapshots_must_advance(prepared, reference_profile):
    report = energy_snapshot(prepared, reference_profile, EnergyReport())
    later, _ = run(prepared, 0.5, cfl=0.4)
    energy_snapshot(later, reference_profile, report)
    with pytest.raises(ValidationError):
        energy_snapshot(prepared, reference_profile, report)


def _one_cell(state, value):
    v = state.v.copy()
    v[len(v) // 2] = value
    return replace(state, v=v)


@pytest.mark.parametrize("read", [
    perturbation,
    lambda state, profile: energy_snapshot(state, profile, EnergyReport()),
], ids=["perturbation", "energy_snapshot"])
@pytest.mark.parametrize("bad, match", [
    (lambda s: _one_cell(s, 0.0), "specific volume"),
    (lambda s: _one_cell(s, -0.5), "specific volume"),
    (lambda s: _one_cell(s, np.inf), "specific volume"),
    (lambda s: replace(s, tau=np.nan), "tau must be finite"),
], ids=["zero", "negative", "infinite", "nan_tau"])
def test_snapshot_refuses_a_bad_state(prepared, reference_profile, read, bad,
                                      match):
    # zero and negative volumes read a finite row, an infinite one warned,
    # and a NaN tau blamed the volumes
    with pytest.raises(ValidationError, match=match):
        read(bad(prepared), reference_profile)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("read", [
    perturbation,
    lambda state, profile: energy_snapshot(state, profile, EnergyReport()),
], ids=["perturbation", "energy_snapshot"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_snapshot_refuses_a_non_finite_velocity(prepared, reference_profile,
                                                read, bad):
    # a NaN velocity appended a row of NaNs, an infinite one warned first
    u = prepared.u.copy()
    u[len(u) // 2] = bad
    with pytest.raises(ValidationError, match="velocities must be finite"):
        read(replace(prepared, u=u), reference_profile)


def test_remainder_refuses_a_face_past_zero(law):
    # positive volumes whose face average, against a wave that falls from
    # 50 to 1 within a cell, is not positive: the volumes are not at fault
    shock = build_shock(50.0, 1.0, 0.0, law)
    profile = compute_profile(shock, 1.0, law)
    state = init_state(profile, Grid1D(y_min=-20.0, y_max=20.0, n_cells=40))
    state = replace(state, v=np.full_like(state.v, 1e-3))
    perturbation(state, profile)
    with pytest.raises(NumericalError, match="face volume"):
        energy_snapshot(state, profile, EnergyReport())


def _synthetic_report(taus, grads):
    rep = EnergyReport()
    rep.tau_series = list(taus)
    rep.grad_sq_series = list(grads)
    rep.grad2_sq_series = list(grads)
    return rep


def test_decay_check_verdicts():
    taus = np.linspace(0.0, 10.0, 41)
    decaying = 1e-7 * np.exp(-taus)
    assert longtime_decay_check(_synthetic_report(taus, decaying), 5.0) == "pass"
    growing = 1e-7 * np.exp(0.3 * taus)
    assert longtime_decay_check(_synthetic_report(taus, growing), 5.0) == "fail"
    zero = np.zeros_like(taus)
    assert longtime_decay_check(_synthetic_report(taus, zero), 5.0) == "pass"
    short = _synthetic_report(taus[:5], decaying[:5])
    assert longtime_decay_check(short, 5.0) == "inconclusive"


def test_decay_check_fails_a_rising_window_mean():
    # the last value is under a tenth of the peak, but the third of the
    # four post-peak windows has a larger mean than the second
    taus = np.linspace(0.0, 10.0, 41)
    grads = np.full(41, 0.01)
    grads[0], grads[25:30] = 1.0, 0.09
    assert longtime_decay_check(_synthetic_report(taus, grads), 5.0) == "fail"


def test_decay_check_fails_a_certified_bound_that_does_not_shrink():
    # the gradient decays as in the passing case, but its derivative
    # grows as fast, so sqrt(||grad|| * ||grad2||) stays at its peak
    taus = np.linspace(0.0, 10.0, 41)
    report = _synthetic_report(taus, np.exp(-taus))
    assert longtime_decay_check(report, 5.0) == "pass"
    report.grad2_sq_series = list(np.exp(taus))
    assert longtime_decay_check(report, 5.0) == "fail"


def test_snapshot_shares_one_wave_evaluation(prepared, reference_profile,
                                             monkeypatch):
    bumped = _bumped(prepared, reference_profile, 1e-3, bump_v=True)
    state, _ = run(bumped, 0.5, cfl=0.4)
    fields = perturbation(state, reference_profile)
    # the merged half-cell grid samples the wave exactly where the
    # separate center and interface grids do
    v_ref, _ = rescaled_profile_eval(reference_profile,
                                     state.grid.centers(), state.tau)
    _, u_ref = rescaled_profile_eval(reference_profile,
                                     state.grid.interfaces(), state.tau)
    assert np.array_equal(fields.phi, state.v - v_ref)
    assert np.array_equal(fields.psi, state.u - u_ref)
    phi_n = sobolev_triple(fields.phi_cum, fields.dy)
    psi_n = sobolev_triple(fields.psi_cum, fields.dy)

    calls = []
    eval_V = ViscousProfile.eval_V

    def counted(self, xi):
        calls.append(np.size(xi))
        return eval_V(self, xi)

    monkeypatch.setattr(ViscousProfile, "eval_V", counted)
    report = energy_snapshot(state, reference_profile, EnergyReport())
    assert calls == [2 * state.grid.n_cells + 1]
    for k, series in enumerate((report.l2_sq_series, report.h1_sq_series,
                                report.h2_sq_series)):
        assert series[0] == pytest.approx(phi_n[k] ** 2 + psi_n[k] ** 2,
                                          rel=1e-14, abs=0.0)


def test_sobolev_norms_of_fields(prepared, reference_profile):
    state = _bumped(prepared, reference_profile, 1e-3)
    fields = perturbation(state, reference_profile)
    phi_n = sobolev_triple(fields.phi_cum, fields.dy)
    psi_n = sobolev_triple(fields.psi_cum, fields.dy)
    assert phi_n[0] >= 0.0
    assert psi_n[2] >= psi_n[1] >= psi_n[0] > 0.0
