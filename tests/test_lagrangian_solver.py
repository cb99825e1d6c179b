from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_banded

from viscoshock import (Grid1D, NumericalError, RunRecord, SolverState,
                        ValidationError, ViscousProfile, d_pressure,
                        init_state, rescaled_profile_eval, run, step,
                        step_flux_balance)
from viscoshock.cli_io import parse_config
from viscoshock.lagrangian_solver import _wave_speed


def init_constant(grid, v0, u0, alpha, law):
    # uniform state with the boundary velocities pinned at u0
    v = np.full(grid.n_cells, float(v0))
    u = np.full(grid.n_cells + 1, float(u0))
    for arr in (v, u):
        arr.setflags(write=False)
    return SolverState(grid=grid, v=v, u=u, tau=0.0, alpha=alpha, law=law,
                       bc_u=(float(u0), float(u0)))


def _perturbed_wave(profile, n_cells):
    # traveling wave with a velocity bump and a volume ripple, so the
    # implicit coefficients vary from cell to cell
    grid = Grid1D(y_min=-65.0, y_max=55.0, n_cells=n_cells)
    state = init_state(profile, grid)
    z = (grid.interfaces() - 20.0) / 2.0
    u = state.u + 5e-3 * z * np.exp(-z * z)
    v = state.v * (1.0 + 1e-2 * np.sin(0.3 * grid.centers()))
    return replace(state, v=v, u=u, bc_u=(float(u[0]), float(u[-1])))


def _banded_reference_step(state, dtau):
    # the velocity solve assembled as a general banded system
    n, dy = state.grid.n_cells, state.grid.dy
    v, u = state.v, state.u
    ubl, ubr = state.bc_u
    c = v ** (1.0 + state.alpha)
    p = v ** -state.law.gamma
    r = dtau / dy ** 2
    rhs = u[1:-1] - (dtau / dy) * (p[1:] - p[:-1])
    rhs[0] += r / c[0] * ubl
    rhs[-1] += r / c[-1] * ubr
    ab = np.zeros((3, n - 1))
    ab[0, 1:] = -r / c[1:-1]
    ab[1, :] = 1.0 + r / c[:-1] + r / c[1:]
    ab[2, :-1] = -r / c[1:-1]
    u_new = np.concatenate(([ubl], solve_banded((1, 1), ab, rhs), [ubr]))
    return v + (dtau / dy) * (u_new[1:] - u_new[:-1]), u_new


def test_grid_validation():
    with pytest.raises(ValidationError):
        Grid1D(y_min=0.0, y_max=0.0, n_cells=32)
    with pytest.raises(ValidationError):
        Grid1D(y_min=0.0, y_max=1.0, n_cells=8)
    # a fractional count used to build a grid whose last interface sat
    # past y_max; a float one failed later inside init_state
    for count in (100.5, 1600.0):
        with pytest.raises(ValidationError, match="^n_cells"):
            Grid1D(-5.0, 5.0, count)
    assert Grid1D(-5.0, 5.0, np.int64(100)).interfaces()[-1] == 5.0
    grid = Grid1D(y_min=-1.0, y_max=1.0, n_cells=16)
    assert grid.dy == pytest.approx(0.125)
    assert grid.centers().size == 16
    assert grid.interfaces().size == 17


@pytest.mark.parametrize("side", ["minus", "plus"])
def test_constant_state_preserved(shock, law, side):
    v0 = shock.v_minus if side == "minus" else shock.v_plus
    u0 = shock.u_minus if side == "minus" else shock.u_plus
    grid = Grid1D(y_min=-5.0, y_max=5.0, n_cells=64)
    state = init_constant(grid, v0, u0, 0.1, law)
    final, record = run(state, 2.0, cfl=0.4)
    assert record.n_steps > 10
    assert np.max(np.abs(final.v - v0)) < 1e-12
    assert np.max(np.abs(final.u - u0)) < 1e-12


def test_init_state_zero_perturbation(reference_profile):
    grid = Grid1D(y_min=-65.0, y_max=55.0, n_cells=400)
    state = init_state(reference_profile, grid)
    v_ref, _ = rescaled_profile_eval(reference_profile, grid.centers(), 0.0)
    _, u_ref = rescaled_profile_eval(reference_profile, grid.interfaces(), 0.0)
    assert np.array_equal(state.v, v_ref)
    assert np.array_equal(state.u, u_ref)
    assert state.tau == 0.0


def test_init_state_evaluates_the_wave_once(reference_profile, monkeypatch):
    # centers, interfaces and both boundary values come from one call on
    # the merged half-cell grid
    grid = Grid1D(y_min=-65.0, y_max=55.0, n_cells=400)
    calls = []
    eval_V = ViscousProfile.eval_V

    def counted(self, xi):
        calls.append(np.size(xi))
        return eval_V(self, xi)

    monkeypatch.setattr(ViscousProfile, "eval_V", counted)
    init_state(reference_profile, grid)
    assert calls == [2 * grid.n_cells + 1]


def test_init_state_boundary_values(reference_profile, shock):
    grid = Grid1D(y_min=-65.0, y_max=55.0, n_cells=400)
    state = init_state(reference_profile, grid)
    assert abs(state.v[0] - shock.v_minus) < 1e-8 * shock.delta
    assert abs(state.v[-1] - shock.v_plus) < 1e-8 * shock.delta
    # center nearest y = 0 carries the normalisation value
    i0 = int(np.argmin(np.abs(grid.centers())))
    v_here = reference_profile.eval_V(
        reference_profile.alpha * grid.centers()[i0])
    assert state.v[i0] == pytest.approx(v_here, abs=1e-14)


def test_init_state_rejects_narrow_grid(reference_profile):
    with pytest.raises(ValidationError, match="too narrow"):
        init_state(reference_profile, Grid1D(y_min=-20.0, y_max=20.0,
                                             n_cells=100))


def test_conservation_per_step(reference_profile):
    grid = Grid1D(y_min=-65.0, y_max=55.0, n_cells=800)
    state = init_state(reference_profile, grid)
    for _ in range(25):
        nxt = step(state, 0.01)
        dm, fm, dp, fp = step_flux_balance(state, nxt)
        scale_m = max(1.0, abs(dm))
        scale_p = max(1.0, abs(dp))
        assert abs(dm - fm) <= 1e-12 * scale_m
        assert abs(dp - fp) <= 1e-12 * scale_p
        state = nxt


def test_step_blowup_detected(law):
    # strong uniform compression drives the volume negative in one step
    grid = Grid1D(y_min=0.0, y_max=1.0, n_cells=16)
    state = init_constant(grid, 0.1, 0.0, 0.1, law)
    u = -10.0 * grid.interfaces()
    u.setflags(write=False)
    squeezed = replace(state, u=u, bc_u=(float(u[0]), float(u[-1])))
    with pytest.raises(NumericalError, match="non-positive at tau=0.05"):
        step(squeezed, 0.05)
    # inside run the CFL step collapses before any volume crosses zero
    with pytest.raises(NumericalError, match="run aborted at tau=.*floor"):
        run(squeezed, 1.0)


@pytest.mark.parametrize("n_cells", [400, 1600, 3200])
def test_step_matches_banded_reference(reference_profile, n_cells):
    state = _perturbed_wave(reference_profile, n_cells)
    for dtau in (0.5 * state.grid.dy ** 2,
                 0.4 * state.grid.dy / _wave_speed(state.v.min(),
                                                   state.law.gamma)):
        v_ref, u_ref = _banded_reference_step(state, dtau)
        nxt = step(state, dtau)
        assert np.max(np.abs(nxt.v - v_ref)) <= 1e-13 * np.max(np.abs(v_ref))
        assert np.max(np.abs(nxt.u - u_ref)) <= 1e-13 * np.max(np.abs(u_ref))


@pytest.mark.parametrize("bad", [0.0, -0.5, np.nan, np.inf])
def test_step_and_run_reject_bad_volume(law, bad):
    grid = Grid1D(y_min=0.0, y_max=1.0, n_cells=16)
    state = init_constant(grid, 1.0, 0.0, 0.1, law)
    v = np.array(state.v)
    v[7] = bad
    broken = replace(state, v=v)
    with pytest.raises(ValidationError, match="specific volume"):
        step(broken, 0.01)
    with pytest.raises(ValidationError, match="specific volume"):
        run(broken, 1.0)


def test_step_rejects_non_finite_solution(law):
    grid = Grid1D(y_min=0.0, y_max=1.0, n_cells=16)
    state = init_constant(grid, 1.0, 0.0, 0.1, law)
    u = np.array(state.u)
    u[5] = np.nan
    with pytest.raises(NumericalError, match="non-finite"):
        step(replace(state, u=u), 0.01)


def test_max_wave_speed_matches_pointwise_maximum(reference_profile):
    for n_cells in (400, 1600):
        state = _perturbed_wave(reference_profile, n_cells)
        for s in (state, step(state, 0.05)):
            seed = np.sqrt(np.max(-d_pressure(s.v, s.law)))
            got = _wave_speed(s.v.min(), s.law.gamma)
            assert got == pytest.approx(seed, rel=1e-14)


def test_step_rejects_tiny_dtau(shock, law):
    grid = Grid1D(y_min=-5.0, y_max=5.0, n_cells=32)
    state = init_constant(grid, 1.0, 0.0, 0.1, law)
    with pytest.raises(NumericalError, match="floor"):
        step(state, 1e-13)


def test_run_empty(reference_profile):
    grid = Grid1D(y_min=-65.0, y_max=55.0, n_cells=200)
    state = init_state(reference_profile, grid)
    final, record = run(state, state.tau, cfl=0.4)
    assert final is state
    assert record.n_steps == 0


def test_run_observer_scheduling(law):
    grid = Grid1D(y_min=-5.0, y_max=5.0, n_cells=64)
    state = init_constant(grid, 1.0, 0.0, 0.1, law)
    taus = []
    _, record = run(state, 1.0, observer=lambda s: taus.append(s.tau),
                    observe_every=10.0, cfl=0.4)
    assert len(taus) == 1
    assert taus[0] == pytest.approx(1.0, abs=1e-12)

    taus = []
    run(state, 1.0, observer=lambda s: taus.append(s.tau),
        observe_every=0.25, cfl=0.4)
    assert len(taus) == 4
    assert taus == pytest.approx([0.25, 0.5, 0.75, 1.0], abs=1e-9)


def test_run_from_nonzero_start_stops_at_tau_end(law):
    grid = Grid1D(y_min=-5.0, y_max=5.0, n_cells=64)
    state = replace(init_constant(grid, 1.0, 0.0, 0.1, law), tau=5.0)
    taus = []
    final, record = run(state, 8.0, observer=lambda s: taus.append(s.tau),
                        observe_every=1.0, cfl=0.4)
    assert taus == pytest.approx([6.0, 7.0, 8.0], abs=1e-12)
    assert final.tau == pytest.approx(8.0, abs=1e-12)


def test_run_respects_max_dtau(law):
    grid = Grid1D(y_min=-5.0, y_max=5.0, n_cells=64)
    state = init_constant(grid, 1.0, 0.0, 0.1, law)
    final, record = run(state, 0.1, cfl=0.4, max_dtau=0.01)
    assert record.n_steps == 10


def test_manufactured_single_step(reference_profile):
    # one step of size dy**2 stays within a dy**2-flavoured deviation of
    # the translated exact wave
    grid = Grid1D(y_min=-65.0, y_max=55.0, n_cells=800)
    state = init_state(reference_profile, grid)
    dtau = grid.dy ** 2
    nxt = step(state, dtau)
    v_ref, _ = rescaled_profile_eval(reference_profile, grid.centers(),
                                     nxt.tau)
    err = np.max(np.abs(nxt.v - v_ref))
    assert err < 10.0 * (grid.dy ** 2 + dtau) * dtau


def test_manufactured_order_pair(reference_profile):
    errs = []
    for n in (400, 800):
        grid = Grid1D(y_min=-65.0, y_max=55.0, n_cells=n)
        state = init_state(reference_profile, grid)
        final, _ = run(state, 5.0, cfl=0.4, max_dtau=0.5 * grid.dy ** 2)
        v_ref, _ = rescaled_profile_eval(reference_profile, grid.centers(),
                                         final.tau)
        _, u_ref = rescaled_profile_eval(reference_profile,
                                         grid.interfaces(), final.tau)
        errs.append(max(np.max(np.abs(final.v - v_ref)),
                        np.max(np.abs(final.u - u_ref))))
    assert 3.2 <= errs[0] / errs[1] <= 4.8


def test_positivity_window(reference_profile, shock):
    grid = Grid1D(y_min=-65.0, y_max=55.0, n_cells=400)
    state = init_state(reference_profile, grid)
    _, record = run(state, 4.0, cfl=0.4)
    assert record.v_min >= shock.v_plus / 4.0
    assert record.v_max <= 2.0 * shock.v_plus
    assert record.volume_window_ok(shock.v_plus)
    # the window [v_plus/4, 2*v_plus] is closed at both ends
    assert RunRecord(0, 0.25, 2.0).volume_window_ok(1.0)
    assert not RunRecord(0, 0.2499, 1.0).volume_window_ok(1.0)
    assert not RunRecord(0, 1.0, 2.0001).volume_window_ok(1.0)


def test_perturbation_gradient_decays(reference_profile):
    # dissipativity proxy: the gradient of an injected velocity wiggle
    # shrinks, no time reversibility expected
    grid = Grid1D(y_min=-65.0, y_max=55.0, n_cells=800)
    state = init_state(reference_profile, grid)
    yi = grid.interfaces()
    z = (yi - 20.0) / 2.0
    u = state.u + 2e-4 * np.sqrt(2 * np.e) * z * np.exp(-z * z)
    u.setflags(write=False)
    state = replace(state, u=u, bc_u=(float(u[0]), float(u[-1])))

    def psi_grad_sup(s):
        _, u_ref = rescaled_profile_eval(reference_profile, yi, s.tau)
        psi = s.u - u_ref
        return np.max(np.abs(np.diff(psi))) / grid.dy

    g0 = psi_grad_sup(state)
    final, _ = run(state, 6.0, cfl=0.4)
    assert psi_grad_sup(final) < 0.5 * g0


def test_run_validation(law):
    grid = Grid1D(y_min=-5.0, y_max=5.0, n_cells=64)
    state = init_constant(grid, 1.0, 0.0, 0.1, law)
    with pytest.raises(ValidationError):
        run(state, -1.0)
    with pytest.raises(ValidationError):
        run(state, 1.0, cfl=1.5)
    with pytest.raises(ValidationError):
        run(state, 1.0, observe_every=-1.0)


def test_run_refuses_non_finite_times(law):
    # NaN and inf used to slip past every comparison and return the start
    # state after 0 steps
    grid = Grid1D(y_min=-5.0, y_max=5.0, n_cells=64)
    state = init_constant(grid, 1.0, 0.0, 0.1, law)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValidationError, match="tau_end"):
            run(state, bad)
    with pytest.raises(ValidationError, match="observe_every"):
        run(state, 0.1, observer=lambda s: None, observe_every=float("nan"))
    with pytest.raises(ValidationError, match="max_dtau"):
        run(state, 0.1, max_dtau=float("nan"))
    # an infinite interval stays legal: one observation, at the end
    seen = []
    final, _ = run(state, 0.1, observer=seen.append,
                   observe_every=float("inf"))
    assert [s.tau for s in seen] == [final.tau] and final.tau == 0.1


def test_run_refuses_interval_below_tolerance(law):
    # uniform stop times closer than the stepping tolerance would
    # coincide; 1e-300 used to make the schedule grow without bound
    grid = Grid1D(y_min=-5.0, y_max=5.0, n_cells=64)
    state = init_constant(grid, 1.0, 0.0, 0.1, law)
    with pytest.raises(ValidationError, match="^observe_every"):
        run(state, 1.0, observer=lambda s: None, observe_every=1e-300)
    with pytest.raises(ValidationError, match="^key observe_every: "):
        parse_config("observe_every = 1e-13\n")


def test_grid_refuses_infinite_bounds():
    with pytest.raises(ValidationError, match="y_max must be finite"):
        Grid1D(-70.0, float("inf"), 400)
    with pytest.raises(ValidationError, match="y_min must be finite"):
        Grid1D(-float("inf"), 52.0, 400)
