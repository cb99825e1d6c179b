import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dptsv

from viscoshock import (Grid1D, NumericalError, PressureLaw, RunRecord,
                        SolverState, ValidationError, ViscousProfile,
                        build_shock, compute_profile, d_pressure, init_state,
                        rescaled_profile_eval, run, step, step_flux_balance)
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
    # the kick-drift-kick step with the implicit half kick assembled as a
    # general banded system
    n, dy = state.grid.n_cells, state.grid.dy
    v, u = state.v, state.u
    ubl, ubr = state.bc_u
    h = 0.5 * dtau
    c = v ** (1.0 + state.alpha)
    p = v ** -state.law.gamma
    r = h / dy ** 2
    rhs = u[1:-1] - (h / dy) * (p[1:] - p[:-1])
    rhs[0] += r / c[0] * ubl
    rhs[-1] += r / c[-1] * ubr
    ab = np.zeros((3, n - 1))
    ab[0, 1:] = -r / c[1:-1]
    ab[1, :] = 1.0 + r / c[:-1] + r / c[1:]
    ab[2, :-1] = -r / c[1:-1]
    u_half = np.concatenate(([ubl], solve_banded((1, 1), ab, rhs), [ubr]))
    v_new = v + (dtau / dy) * (u_half[1:] - u_half[:-1])
    c_new = v_new ** (1.0 + state.alpha)
    p_new = v_new ** -state.law.gamma
    flux = np.diff(u_half) / (dy * c_new) - p_new
    u_new = u_half.copy()
    u_new[1:-1] += (h / dy) * np.diff(flux)
    return v_new, u_new


def _power_kernel(v, u, w, p, bc_u, alpha, gamma, dy, dtau):
    # the stepping kernel with the new coefficients taken by **, the
    # oracle for the one-logarithm kernel
    h = 0.5 * dtau
    rw = w * (h / dy ** 2)
    ubl, ubr = bc_u
    u_new = np.empty(len(u))
    u_new[0] = ubl
    u_new[-1] = ubr
    rhs = u_new[1:-1]
    dp = p[1:] - p[:-1]
    dp *= h / dy
    np.subtract(u[1:-1], dp, out=rhs)
    rhs[0] += rw[0] * ubl
    rhs[-1] += rw[-1] * ubr
    diag = rw[:-1] + 1.0
    diag += rw[1:]
    _, _, interior, info = dptsv(diag, np.negative(rw[1:-1]), rhs,
                                 overwrite_d=1, overwrite_e=1, overwrite_b=1)
    if info != 0:
        raise NumericalError(f"tridiagonal solve failed: LAPACK info {info}")
    u_new[1:-1] = interior
    du = np.diff(u_new)
    v_new = du * (dtau / dy)
    v_new += v
    v_min, v_max = float(v_new.min()), float(v_new.max())
    if not (np.isfinite(v_min) and np.isfinite(v_max)):
        raise NumericalError("tridiagonal solve produced non-finite values")
    if v_min <= 0.0:
        raise NumericalError("volume became non-positive")
    w_new = v_new ** -(1.0 + alpha)
    p_new = v_new ** -gamma
    u_new[1:-1] += (h / dy) * np.diff(w_new * du / dy - p_new)
    return v_new, u_new, w_new, p_new, v_min, v_max


@pytest.fixture(scope="module")
def strong_profile():
    # gamma 3, v 10 -> 1, alpha 2: |gamma*log v| is largest among the
    # stepper's tested waves
    law = PressureLaw(3.0)
    return compute_profile(build_shock(10.0, 1.0, 0.0, law), 2.0, law)


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
def test_step_matches_banded_reference(reference_profile, strong_profile,
                                       n_cells):
    # also against the power kernel: exp(-e*log v) and v**-e differ in
    # their last bits only
    for profile in (reference_profile, strong_profile):
        state = _perturbed_wave(profile, n_cells)
        for dtau in (0.5 * state.grid.dy ** 2,
                     0.4 * state.grid.dy / _wave_speed(state.v.min(),
                                                       state.law.gamma)):
            v_ref, u_ref = _banded_reference_step(state, dtau)
            v_pow, u_pow, *_ = _power_kernel(
                state.v, state.u, state.v ** -(1.0 + state.alpha),
                state.v ** -state.law.gamma, state.bc_u, state.alpha,
                state.law.gamma, state.grid.dy, dtau)
            nxt = step(state, dtau)
            for got, ref, bound in ((nxt.v, v_ref, 1e-13),
                                    (nxt.u, u_ref, 1e-13),
                                    (nxt.v, v_pow, 1e-14),
                                    (nxt.u, u_pow, 1e-14)):
                assert (np.max(np.abs(got - ref))
                        <= bound * np.max(np.abs(ref)))


def test_run_matches_power_kernel(reference_profile, monkeypatch):
    # a full refinement-level run (800 cells at the default cfl, 50 steps
    # to tau 5) drifts from the power-kernel run at rounding level only
    grid = Grid1D(y_min=-65.0, y_max=55.0, n_cells=800)
    state = init_state(reference_profile, grid)
    final, record = run(state, 5.0)
    monkeypatch.setattr("viscoshock.lagrangian_solver._advance",
                        _power_kernel)
    ref, ref_record = run(state, 5.0)
    assert record.n_steps == ref_record.n_steps
    assert final.tau == ref.tau
    assert np.max(np.abs(final.v - ref.v)) <= 1e-12 * np.max(np.abs(ref.v))
    assert np.max(np.abs(final.u - ref.u)) <= 1e-12 * np.max(np.abs(ref.u))


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


@pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf])
def test_step_refuses_non_finite_tau(law, tau):
    # a NaN tau stepped to a NaN tau, while run refused the same state
    grid = Grid1D(y_min=0.0, y_max=1.0, n_cells=16)
    state = replace(init_constant(grid, 1.0, 0.0, 0.1, law), tau=tau)
    with pytest.raises(ValidationError, match="tau must be finite"):
        step(state, 0.01)


def test_max_wave_speed_matches_pointwise_maximum(reference_profile):
    for n_cells in (400, 1600):
        state = _perturbed_wave(reference_profile, n_cells)
        for s in (state, step(state, 0.05)):
            seed = np.sqrt(np.max(-d_pressure(s.v, s.law)))
            got = _wave_speed(s.v.min(), s.law.gamma)
            assert got == pytest.approx(seed, rel=1e-14)


@pytest.mark.filterwarnings("error")
def test_run_refuses_overflowing_acoustic_speed():
    # v**(-gamma-1) = 1e320 overflows a float; one step still succeeds,
    # but run used to raise a bare OverflowError computing its CFL step
    grid = Grid1D(y_min=0.0, y_max=1.0, n_cells=16)
    state = init_constant(grid, 1e-80, 0.0, 0.1, PressureLaw(3.0))
    step(state, 1e-3)
    with pytest.raises(NumericalError, match="acoustic speed overflows"):
        run(state, 1.0)


def test_step_rejects_tiny_dtau(shock, law):
    grid = Grid1D(y_min=-5.0, y_max=5.0, n_cells=32)
    state = init_constant(grid, 1.0, 0.0, 0.1, law)
    with pytest.raises(NumericalError, match="floor"):
        step(state, 1e-13)


def test_run_empty(reference_profile):
    grid = Grid1D(y_min=-65.0, y_max=55.0, n_cells=200)
    state = init_state(reference_profile, grid)
    final, record = run(state, state.tau, cfl=0.4)
    assert record.n_steps == 0
    for f in fields(SolverState):
        assert np.array_equal(getattr(final, f.name), getattr(state, f.name))


def test_run_observer_scheduling(law):
    grid = Grid1D(y_min=-5.0, y_max=5.0, n_cells=64)
    state = init_constant(grid, 1.0, 0.0, 0.1, law)
    taus = []
    _, record = run(state, 1.0, observer=lambda s: taus.append(s.tau),
                    observe_every=10.0, cfl=0.4)
    assert taus == [1.0]

    taus = []
    run(state, 1.0, observer=lambda s: taus.append(s.tau),
        observe_every=0.25, cfl=0.4)
    assert taus == [0.25, 0.5, 0.75, 1.0]


def test_run_from_nonzero_start_stops_at_tau_end(law):
    grid = Grid1D(y_min=-5.0, y_max=5.0, n_cells=64)
    state = replace(init_constant(grid, 1.0, 0.0, 0.1, law), tau=5.0)
    taus = []
    final, record = run(state, 8.0, observer=lambda s: taus.append(s.tau),
                        observe_every=1.0, cfl=0.4)
    assert taus == [6.0, 7.0, 8.0]
    assert final.tau == 8.0


def _stop_tol(t):
    # run's documented stop tolerance
    return 1e-12 * max(1.0, abs(t))


_SCHEDULE_STATE = init_constant(Grid1D(y_min=-5.0, y_max=5.0, n_cells=16),
                                1.0, 0.0, 0.1, PressureLaw(2.0))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(tau0=st.floats(-1e6, 1e6),
       span=st.one_of(st.just(0.0), st.floats(1e-9, 2.0),
                      st.floats(0.0, 0.99).map(lambda f: -f)),
       every=st.one_of(st.just(math.inf), st.floats(0.1, 4.0)))
def test_run_schedule_is_exact_from_any_start(tau0, span, every):
    # a negative span stands for a fraction of the stop tolerance
    if span < 0.0:
        span = -span * _stop_tol(tau0)
    tau_end = tau0 + span
    state = replace(_SCHEDULE_STATE, tau=tau0)
    expected, k = [], 1
    while tau0 + k * every < tau_end - _stop_tol(tau_end):
        expected.append(tau0 + k * every)
        k += 1
    seen = []
    final, record = run(state, tau_end, observer=lambda s: seen.append(s.tau),
                        observe_every=every)
    assert seen == expected + [tau_end]
    assert final.tau == tau_end
    plain, plain_record = run(state, tau_end)
    assert plain.tau == tau_end
    if not tau0 < tau_end - _stop_tol(tau_end):   # the start is the stop
        assert record.n_steps == plain_record.n_steps == 0
        assert np.array_equal(final.v, state.v)


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


@pytest.mark.parametrize("alpha", [0.1, 0.4])
def test_step_is_second_order_in_time(shock, law, alpha):
    # an 800-cell bump run to tau 4 at halving cfl, each against a run at
    # cfl 0.025: the error falls 4x per halving (2x for the first-order
    # step this one replaced)
    grid = Grid1D(y_min=-70.0, y_max=52.0, n_cells=800)
    state = init_state(compute_profile(shock, alpha, law), grid)
    z = (grid.interfaces() - 25.0) / 2.0
    u = state.u + 1e-3 * shock.delta * np.sqrt(2 * np.e) * z * np.exp(-z * z)
    state = replace(state, u=u, bc_u=(float(u[0]), float(u[-1])))
    ref, _ = run(state, 4.0, cfl=0.025)
    errs = []
    for cfl in (0.8, 0.4, 0.2, 0.1):
        final, _ = run(state, 4.0, cfl=cfl)
        errs.append(max(np.max(np.abs(final.v - ref.v)),
                        np.max(np.abs(final.u - ref.u))))
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.6 <= coarse / fine <= 4.6, errs


@pytest.mark.parametrize("gamma, alpha", [(1.0, 0.01), (2.0, 1.0),
                                          (3.0, 0.01)])
def test_step_is_stable_up_to_the_acoustic_limit(gamma, alpha):
    # kick-drift-kick is Stormer-Verlet for the pressure, stable while
    # dtau*omega < 2, and the grid's fastest mode has omega = 2c/dy: a
    # 1e-6 perturbation of v = 1 stays bounded for 2,000 steps just below
    # dtau = dy/c and grows 1e3x just above it.  At dy 100 a step damps
    # that mode by 1% or less, too little to hide it; near v = 1 the
    # coefficient v**-(1+alpha) is 1 at any alpha.  Measured: final
    # deviations 3.6e-7 to 6.0e-7 (peaks under 7e-6); at 1.02 the
    # deviation passes 1e-3 by step 19 and a volume turns non-positive
    # by step 34
    n, dy = 64, 100.0
    rng = np.random.default_rng(3)
    v = 1.0 + 1e-6 * rng.standard_normal(n)
    u = np.concatenate(([0.0], 1e-6 * rng.standard_normal(n - 1), [0.0]))
    start = SolverState(grid=Grid1D(0.0, n * dy, n), v=v, u=u, tau=0.0,
                        alpha=alpha, law=PressureLaw(gamma))

    def deviation(state):
        return max(np.max(np.abs(state.v - 1.0)), np.max(np.abs(state.u)))

    for k in (0.95, 0.99):
        state = start
        for _ in range(2000):
            state = step(state, k * dy / math.sqrt(gamma))
        assert deviation(state) <= 1e-5, (k, deviation(state))
    state, steps = start, 0
    try:
        while deviation(state) <= 1e-3 and steps < 2000:
            state = step(state, 1.02 * dy / math.sqrt(gamma))
            steps += 1
    except NumericalError:
        pass                    # refused: a volume turned non-positive
    else:
        assert deviation(state) > 1e-3, steps


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
    # an infinite start used to pass the check and never leave the loop
    with pytest.raises(ValidationError, match="^tau_end .* start time"):
        run(replace(state, tau=-float("inf")), 0.1)
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


@pytest.fixture(scope="module")
def unit_run(reference_profile):
    # the wave-prepared state of gamma 2, alpha 0.1 and its run to tau 2
    state = init_state(reference_profile, Grid1D(-70.0, 52.0, 1600))
    return state, run(state, 2.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam", [1e-3, 10.0, 1e4])
def test_run_scales_with_the_volumes(unit_run, shock, lam):
    # with p = v**-gamma the stretched system is invariant under v -> lam*v,
    # u -> b*u, y -> a*y and tau -> lam**(gamma-alpha)*tau, with
    # a = lam**((gamma-1-2*alpha)/2) and b = lam**((1-gamma)/2)
    # (Barenblatt 1996); the CFL step scales as tau does, so every step is
    # the image of the unit run's.  Measured over 40 steps: volumes within
    # 4.5e-15*delta and velocities within 2.5e-15, in unit scale
    state, (final, record) = unit_run
    gamma, alpha = state.law.gamma, state.alpha
    a = lam ** ((gamma - 1.0 - 2.0 * alpha) / 2.0)
    b = lam ** ((1.0 - gamma) / 2.0)
    grid, u = state.grid, b * state.u
    scaled = replace(state, grid=Grid1D(a * grid.y_min, a * grid.y_max,
                                        grid.n_cells),
                     v=lam * state.v, u=u, bc_u=(float(u[0]), float(u[-1])),
                     shock=None)
    final_lam, record_lam = run(scaled, 2.0 * lam ** (gamma - alpha))
    assert record_lam.n_steps == record.n_steps
    assert np.max(np.abs(final_lam.v / lam - final.v)) <= 5e-14 * shock.delta
    assert np.max(np.abs(final_lam.u / b - final.u)) <= 5e-14


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c", [-3.0, 0.5, 100.0])
def test_run_is_galilean_invariant(unit_run, shock, c):
    # u -> u + c with the boundary velocities shifted leaves the volumes
    # and shifts the velocities, up to the rounding of u + c, which grows
    # with |c|.  Measured: 9.7e-13*delta and 3.4e-13 at c = 100
    state, (final, record) = unit_run
    u = state.u + c
    final_c, record_c = run(replace(state, u=u,
                                    bc_u=(float(u[0]), float(u[-1]))), 2.0)
    bound = 5e-14 * (1.0 + abs(c))
    assert record_c.n_steps == record.n_steps
    assert np.max(np.abs(final_c.v - final.v)) <= bound * shock.delta
    assert np.max(np.abs(final_c.u - c - final.u)) <= bound
