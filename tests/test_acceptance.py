"""Acceptance suite: one test per exit criterion, each printing a
verdict line.  Tolerances are fixed here, not tuned at run time.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines alongside the pytest output.
"""

import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import viscoshock as vs

GAMMA = 2.0
V_MINUS, V_PLUS, U_MINUS = 1.2, 1.0, 0.0


@pytest.fixture(scope="module")
def law():
    return vs.PressureLaw(gamma=GAMMA)


@pytest.fixture(scope="module")
def shock(law):
    return vs.build_shock(V_MINUS, V_PLUS, U_MINUS, law)


@pytest.fixture(scope="module")
def dense_profiles(shock, law):
    # tight-tolerance traveling waves reused across criteria
    return {alpha: vs.compute_profile(shock, alpha, law, tol=1e-12, n=20001)
            for alpha in (0.05, 0.1, 0.2)}


def _verdict(num, text):
    print(f"\n[PASS] criterion {num}: {text}")


# ---------------------------------------------------------------------------

def test_criterion_1_jump_closure_and_admissibility():
    """100 randomized shocks: jump residuals <= 1e-12, admissibility."""
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(100):
        gamma = rng.uniform(1.0, 3.0)
        v_plus = rng.uniform(0.5, 2.0)
        delta = rng.uniform(0.01, 0.5 * v_plus)
        u_minus = rng.uniform(-1.0, 1.0)
        law = vs.PressureLaw(gamma=gamma)
        sh = vs.build_shock(v_plus + delta, v_plus, u_minus, law)
        r1, r2 = vs.rh_residuals(sh, law)
        worst = max(worst, abs(r1), abs(r2))
        assert abs(r1) <= 1e-12 and abs(r2) <= 1e-12
        rep = vs.check_lax(sh, law)
        assert rep.satisfied
        assert rep.lambda_plus < sh.s < rep.lambda_minus
        assert sh.u_plus < sh.u_minus
    _verdict(1, f"jump closure and admissibility over 100 draws "
                f"(worst residual {worst:.2e})")


def test_criterion_2_profile_correctness(shock, law, dense_profiles):
    """Monotone bounded profiles, first integral, second-order residual
    refinement, tail rates within 5%, rate ~ strength/viscosity."""
    for alpha in (0.05, 0.1, 0.2):
        prof = vs.compute_profile(shock, alpha, law, tol=1e-10)
        assert np.all(np.diff(prof.V) < 0.0)
        assert np.all(np.diff(prof.U) < 0.0)
        assert np.all((prof.V > shock.v_plus) & (prof.V < shock.v_minus))
        assert np.all((prof.U > shock.u_plus) & (prof.U < shock.u_minus))
        gap = prof.U - (shock.u_minus - shock.s * (prof.V - shock.v_minus))
        assert np.max(np.abs(gap)) <= 10.0 * prof.tol

        # the automatic grid covers the same cutoffs at every n
        res = [vs.profile_residual(
                   vs.compute_profile(shock, alpha, law, tol=1e-12, n=n))
               for n in (1001, 2001, 4001)]
        for coarse, fine in zip(res, res[1:]):
            assert coarse / fine >= 3.2, f"alpha={alpha}: ratio {coarse/fine}"

        report = vs.verify_profile_properties(dense_profiles[alpha],
                                              h_probe=0.0)
        assert report.rates_ok
        assert report.rate_rel_err_left <= 0.05
        assert report.rate_rel_err_right <= 0.05

    # fitted rate * viscosity / strength varies <= 15% across strengths
    for alpha in (0.05, 0.1, 0.2):
        scaled = []
        for v_minus in (1.1, 1.2):
            sh = vs.build_shock(v_minus, V_PLUS, U_MINUS, law)
            prof = vs.compute_profile(sh, alpha, law, tol=1e-10)
            rep = vs.verify_profile_properties(prof, h_probe=0.0)
            scaled.append(abs(rep.fitted_rate_left) * alpha / sh.delta)
            scaled.append(abs(rep.fitted_rate_right) * alpha / sh.delta)
        spread = max(scaled) / min(scaled) - 1.0
        assert spread <= 0.15, f"alpha={alpha}: rate scaling spread {spread}"
    _verdict(2, "profile bounds, first integral, order-2 residual "
                "refinement, tail rates within 5%, rate ~ strength/viscosity")


def test_criterion_3_derivative_scalings(law):
    """Scaled derivative sups within a factor 3 of the grid median."""
    scaled1, scaled2 = [], []
    for v_minus in (1.1, 1.2):
        sh = vs.build_shock(v_minus, V_PLUS, U_MINUS, law)
        for alpha in (0.05, 0.1, 0.2):
            prof = vs.compute_profile(sh, alpha, law, tol=1e-10)
            rep = vs.verify_profile_properties(prof, h_probe=0.0)
            scaled1.append(rep.scaled_d1)
            scaled2.append(rep.scaled_d2)
    for scaled in (scaled1, scaled2):
        med = float(np.median(scaled))
        assert max(scaled) <= 3.0 * med
        assert min(scaled) >= med / 3.0
    _verdict(3, f"derivative sups scale with strength^2/viscosity "
                f"(spread {max(scaled1)/min(scaled1):.2f}x, "
                f"{max(scaled2)/min(scaled2):.2f}x within factor 3)")


@pytest.fixture(scope="module")
def order_runs(dense_profiles):
    # traveling-wave runs reused by criteria 4 and 5
    out = {}
    for alpha in (0.1, 0.2):
        prof = dense_profiles[alpha]
        rows = []
        for n in (400, 800, 1600):
            grid = vs.Grid1D(y_min=-65.0, y_max=55.0, n_cells=n)
            state = vs.init_state(prof, grid)
            final, record = vs.run(state, 5.0)
            v_ref, _ = vs.rescaled_profile_eval(prof, grid.centers(),
                                                final.tau)
            _, u_ref = vs.rescaled_profile_eval(prof, grid.interfaces(),
                                                final.tau)
            err = max(float(np.max(np.abs(final.v - v_ref))),
                      float(np.max(np.abs(final.u - u_ref))))
            rows.append((n, err, record))
        out[alpha] = rows
    return out


def test_criterion_4_solver_order(order_runs):
    """Sup-error ratios in [3.2, 4.8] per refinement at the default cfl,
    so the step halves with dy and the time error shows too."""
    ratios = []
    for alpha, rows in order_runs.items():
        errs = [e for _, e, _ in rows]
        for coarse, fine in zip(errs, errs[1:]):
            r = coarse / fine
            ratios.append(r)
            assert 3.2 <= r <= 4.8, f"alpha={alpha}: ratio {r}"
    _verdict(4, "manufactured-solution refinement ratios "
                + ", ".join(f"{r:.2f}" for r in ratios))


def test_criterion_5_conservation_and_positivity(dense_profiles, shock,
                                                 order_runs):
    """Per-step flux balance to 1e-12 relative; volume window held."""
    grid = vs.Grid1D(y_min=-65.0, y_max=55.0, n_cells=800)
    state = vs.init_state(dense_profiles[0.1], grid)
    worst = 0.0
    for _ in range(50):
        nxt = vs.step(state, 0.01)
        dm, fm, dp, fp = vs.step_flux_balance(state, nxt)
        gm = abs(dm - fm) / max(1.0, abs(dm))
        gp = abs(dp - fp) / max(1.0, abs(dp))
        worst = max(worst, gm, gp)
        assert gm <= 1e-12 and gp <= 1e-12
        state = nxt

    for alpha, rows in order_runs.items():
        for _, _, record in rows:
            assert record.v_min >= shock.v_plus / 4.0
            assert record.v_max <= 2.0 * shock.v_plus
    _verdict(5, f"conservation telescoping (worst gap {worst:.2e}) and "
                f"volume window on all default runs")


def _energy_run(profile, n_cells, tau_end, amp, **run_kw):
    # returns (report, steps); run_kw reaches run, whose cfl is the default
    grid = vs.Grid1D(y_min=-70.0, y_max=52.0, n_cells=n_cells)
    state = vs.init_state(profile, grid)
    if amp > 0.0:
        z = (grid.interfaces() - 25.0) / 2.0
        u = state.u + amp * np.sqrt(2 * np.e) * z * np.exp(-z * z)
        u.setflags(write=False)
        state = replace(state, u=u, bc_u=(float(u[0]), float(u[-1])))
    report = vs.EnergyReport()
    vs.energy_snapshot(state, profile, report)
    _, record = vs.run(state, tau_end,
                       observer=lambda s: vs.energy_snapshot(s, profile,
                                                             report),
                       observe_every=0.25, **run_kw)
    return report, record.n_steps


@pytest.fixture(scope="module")
def bump_run(dense_profiles, shock):
    # criterion 6's bump run, also checked against a finer-step run
    return _energy_run(dense_profiles[0.1], 1600, 10.0, 1e-3 * shock.delta)


def test_criterion_6_energy_structure(dense_profiles, shock, bump_run):
    """Prepared data stays at the truncation floor; an injected bump's
    gradient energy decays to <= 10% with the peak norm in bounds."""
    prof = dense_profiles[0.1]

    prepared, _ = _energy_run(prof, 1600, 8.0, 0.0)
    n_floor = max(prepared.peak_h2_sq)
    assert n_floor <= 1e-6, f"floor {n_floor}"
    for series in (prepared.diss_weighted, prepared.diss_phi,
                   prepared.diss_psi):
        assert all(np.isfinite(series))
        assert all(b >= a for a, b in zip(series, series[1:]))

    amp = 1e-3 * shock.delta
    bump, _ = bump_run
    g = np.asarray(bump.grad_sq_series)
    assert g[-1] <= 0.1 * g.max(), f"decay ratio {g[-1]/g.max():.3f}"
    assert vs.longtime_decay_check(bump, tau_min=5.0) == "pass"
    eta = shock.delta ** 0.25
    assert max(bump.peak_h2_sq) <= eta

    # simulation is its own oracle: a finer companion run agrees
    finer, _ = _energy_run(prof, 2400, 10.0, amp)
    g_f = np.asarray(finer.grad_sq_series)
    assert np.max(np.abs(g - g_f)) <= 0.05 * g.max()
    _verdict(6, f"prepared floor {n_floor:.2e} <= 1e-6; bump gradient "
                f"decays to {g[-1]/g.max():.3f} of max (peak norm "
                f"{max(bump.peak_h2_sq):.2e} <= {eta:.3f}); two-resolution "
                f"agreement {np.max(np.abs(g-g_f))/g.max():.3f}")


def test_step_at_the_cfl_limit_matches_a_finer_step(dense_profiles, shock,
                                                    bump_run):
    """Criterion 6's bump run at the default cfl 0.95 follows the same run
    at cfl 0.1 within criterion 6's two-resolution tolerance, in at least
    5x fewer steps.  Measured: gap 1.03e-3 of the series maximum, at 200
    against 1,880 steps (8.2e-4 at 240 steps for cfl 0.8); the cfl 0.1
    run is itself within 1.6e-5 of the dy**2-capped run that criterion 6
    used before."""
    default, steps = bump_run
    finer, finer_steps = _energy_run(dense_profiles[0.1], 1600, 10.0,
                                     1e-3 * shock.delta, cfl=0.1)
    g = np.asarray(finer.grad_sq_series)
    gap = np.max(np.abs(g - np.asarray(default.grad_sq_series))) / g.max()
    assert gap <= 0.05, f"gap {gap:.3g}"
    assert 5 * steps <= finer_steps, (steps, finer_steps)


OMEGA_7 = vs.OmegaSpec(h=1.0, t_final=2.0, x_samples=801, t_samples=5)


@pytest.fixture(scope="module")
def full_sweep(shock, law):
    return vs.alpha_sweep(shock, law, [0.4, 0.2, 0.1, 0.05], OMEGA_7,
                          include_full=True)


def test_criterion_7_vanishing_viscosity(shock, law, full_sweep):
    """Tail error strictly decreasing and log-linear in 1/viscosity;
    full error decreasing to the scheme floor."""
    omega = OMEGA_7
    sweep = full_sweep
    assert not sweep.failures
    assert sweep.monotone_flag
    assert sweep.r_squared >= 0.99
    assert sweep.c_fit > 0.0
    assert sweep.window_ok

    e_full = sweep.e_full
    assert all(np.isfinite(e_full))
    # floor from a finer companion run at the smallest viscosity
    fine = vs.full_error(shock, 0.05, law, omega,
                         vs.SolverSizing(cells_per_width=40.0))
    floor = 2.0 * abs(e_full[-1] - fine.error) + 1e-6
    for coarse, finer_e in zip(e_full, e_full[1:]):
        assert finer_e < coarse or finer_e <= floor
    assert e_full[-1] <= 0.25 * e_full[0]
    _verdict(7, f"tail error r2={sweep.r_squared:.4f}, full error "
                f"{e_full[0]:.3e} -> {e_full[-1]:.3e} "
                f"(ratio {e_full[-1]/e_full[0]:.4f} <= 0.25, "
                f"floor {floor:.1e})")


def test_full_error_excess_over_tail_error(full_sweep):
    """At the default sizing the scheme adds at most 2e-3 of E_profile
    to E_full at every alpha: measured 6.51e-5, 1.42e-4, 5.30e-4 and
    1.43e-3 at alpha 0.4, 0.2, 0.1 and 0.05 with 20 cells per tail width
    (3.70e-5, 7.42e-5, 2.94e-4 and 8.53e-4 at 26; 1.7e-2 at alpha 0.05
    for a first-order step at cfl 0.4 and 26)."""
    for alpha, e_p, e_f in zip(full_sweep.alphas, full_sweep.e_profile,
                               full_sweep.e_full):
        excess = abs(e_f - e_p) / e_p
        assert excess <= 2e-3, f"alpha={alpha}: excess {excess:.3g}"


def test_criterion_8_selftest_determinism(tmp_path):
    """Two selftest invocations produce byte-identical output trees,
    with a numpy RuntimeWarning an error in both."""
    trees = []
    for name in ("a", "b"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning",
             "-m", "viscoshock.cli_io", "selftest", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        trees.append(out)
    files_a = sorted(p.relative_to(trees[0]) for p in trees[0].rglob("*"))
    files_b = sorted(p.relative_to(trees[1]) for p in trees[1].rglob("*"))
    assert files_a == files_b and files_a
    for rel in files_a:
        assert (trees[0] / rel).read_bytes() == (trees[1] / rel).read_bytes()
    _verdict(8, f"selftest trees byte-identical ({len(files_a)} files)")
