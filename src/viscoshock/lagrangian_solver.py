"""Staggered conservative scheme for the stretched viscous system.

The PDE is solved in stretched coordinates (y, tau) in which the
dissipative coefficient is order one and the viscosity strength alpha
enters only through the exponent of 1/v**(1+alpha):

    v_tau - u_y = 0,
    u_tau + p(v)_y = (u_y / v**(1+alpha))_y.

Volumes live at cell centers and velocities at cell interfaces, so both
conservation laws telescope exactly.  A step is second order in time:
a half kick of the velocities with implicit dissipation, a drift of the
volumes, and an explicit half kick with the new volumes' coefficients.
That is Stormer-Verlet for the pressure and Crank-Nicolson for the
dissipation, which is stable at any step, so the acoustic CFL limit is
the only constraint: Stormer-Verlet needs dtau*omega < 2, and the grid's
fastest mode has omega = 2c/dy, so every cfl below 1 is stable at any
viscosity; runs step at cfl 0.95 by default.  The implicit matrix is
symmetric positive-definite tridiagonal, solved by LAPACK's dptsv.
Velocities at the two boundary interfaces are held at their initial
values (domains are sized so the wave never comes near the boundary),
and volumes evolve conservatively everywhere so that the discrete mass
identity is exact to rounding.

Volumes are validated at the public edge only: step checks its input
state, run checks it once on entry, and the stepping kernel relies on
each step rejecting a non-positive result.  The kernel takes both powers
of the volume, v**-(1+alpha) and v**-gamma, as exponentials of one
log(v), defined only because of that positivity, and hands the new
volumes' powers on to the next step.
"""

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.lapack import dptsv

from .errors import NumericalError, ValidationError
from .euler_waves import (PressureLaw, ShockData, _check_positive_volume,
                          pressure)
from .shock_profile import ViscousProfile, _first_integral, _phase

__all__ = [
    "Grid1D",
    "SolverState",
    "RunRecord",
    "init_state",
    "step",
    "run",
    "step_flux_balance",
]

DTAU_FLOOR = 1e-12
_CFL = 0.95     # run's default share of the acoustic limit


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1-D grid: volumes at the n_cells centers, velocities at
    the n_cells + 1 interfaces."""

    y_min: float
    y_max: float
    n_cells: int

    def __post_init__(self):
        if not -math.inf < self.y_max < math.inf:
            raise ValidationError("y_max must be finite")
        if not -math.inf < self.y_min < self.y_max:
            raise ValidationError("y_min must be finite and below y_max")
        if not (isinstance(self.n_cells, numbers.Integral)
                and self.n_cells >= 16):
            raise ValidationError("n_cells must be an integer of at least 16")

    @property
    def dy(self) -> float:
        return (self.y_max - self.y_min) / self.n_cells

    def centers(self) -> np.ndarray:
        return self.y_min + (np.arange(self.n_cells) + 0.5) * self.dy

    def interfaces(self) -> np.ndarray:
        return self.y_min + np.arange(self.n_cells + 1) * self.dy


@dataclass(frozen=True)
class SolverState:
    """Immutable snapshot of the discrete fields at one instant.

    bc_u holds the pinned boundary velocities.
    """

    grid: Grid1D
    v: np.ndarray
    u: np.ndarray
    tau: float
    alpha: float
    law: PressureLaw
    bc_u: tuple = (0.0, 0.0)
    shock: ShockData | None = field(default=None, repr=False)


def _wave_speed(v_min, gamma):
    # -p'(v) = gamma*v**(-gamma-1) falls as v rises, so the fastest
    # acoustic speed sits at the smallest volume
    try:
        c2 = gamma * v_min ** (-gamma - 1.0)
    except OverflowError:
        c2 = math.inf
    if c2 == math.inf:
        raise NumericalError(
            f"acoustic speed overflows at volume {v_min:.6g}")
    return math.sqrt(c2)


def _freeze(arr):
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


def _staggered_wave(profile: ViscousProfile, grid: Grid1D, tau: float):
    """The wave at time tau from one evaluation on the merged half-cell
    grid: interfaces take the even slots and centers the odd ones, so
    every sample point is the one the separate grids give.

    Returns (xi at the interfaces, V at the interfaces, V at the centers).
    """
    y = np.empty(2 * grid.n_cells + 1)
    y[0::2] = grid.interfaces()
    y[1::2] = grid.centers()
    xi = _phase(profile, y, tau)
    V = profile.eval_V(xi)
    return xi[0::2], V[0::2], V[1::2]


def init_state(profile: ViscousProfile, grid: Grid1D) -> SolverState:
    """Sample the traveling wave at tau = 0 as initial data.

    Fails if the grid is too narrow for the wave tails: the sampled end
    values must sit within 1e-8 * delta of the far-field states.
    """
    shock = profile.shock
    _, v_face, v = _staggered_wave(profile, grid, 0.0)
    tail_tol = 1e-8 * shock.delta
    if (abs(v_face[0] - shock.v_minus) >= tail_tol
            or abs(v_face[-1] - shock.v_plus) >= tail_tol):
        raise ValidationError(
            "grid too narrow: wave tails exceed 1e-8*delta at the boundary")
    u = _first_integral(shock, v_face)
    return SolverState(grid=grid, v=_freeze(v), u=_freeze(u), tau=0.0,
                       alpha=profile.alpha, law=profile.law,
                       bc_u=(float(u[0]), float(u[-1])), shock=shock)


def _check_dtau(dtau):
    if not DTAU_FLOOR <= dtau < math.inf:
        raise NumericalError(f"time step {dtau} below the {DTAU_FLOOR} floor")


def _coefficients(v, alpha, gamma):
    """(v**-(1+alpha), v**-gamma) from one logarithm of positive v."""
    log_v = np.log(v)
    w = log_v * -(1.0 + alpha)
    np.exp(w, out=w)
    log_v *= -gamma
    return w, np.exp(log_v, out=log_v)


def _advance(v, u, w, p, bc_u, alpha, gamma, dy, dtau):
    """One kick-drift-kick step on raw arrays of positive volumes v, with
    w = v**-(1+alpha) and p = v**-gamma.  Returns (v_new, u_new, w_new,
    p_new, min(v_new), max(v_new)); raises NumericalError if the solve
    fails or a volume turns non-positive.
    """
    half = 0.5 * dtau
    off = w * (-half / dy ** 2)  # negated and scaled: dptsv's off-diagonal
    ubl, ubr = bc_u

    u_new = np.empty(len(u))
    u_new[0] = ubl
    u_new[-1] = ubr
    rhs = u_new[1:-1]
    np.subtract(p[:-1], p[1:], out=rhs)
    rhs *= half / dy
    rhs += u[1:-1]
    rhs[0] -= off[0] * ubl
    rhs[-1] -= off[-1] * ubr
    diag = 1.0 - off[:-1]
    diag -= off[1:]
    _, _, interior, info = dptsv(diag, off[1:-1], rhs,
                                 overwrite_d=1, overwrite_e=1, overwrite_b=1)
    if info != 0:
        raise NumericalError(f"tridiagonal solve failed: LAPACK info {info}")
    if not np.may_share_memory(interior, rhs):
        u_new[1:-1] = interior   # LAPACK copied rhs

    du = u_new[1:] - u_new[:-1]
    v_new = du * (dtau / dy)
    v_new += v
    v_min = float(np.minimum.reduce(v_new))
    v_max = float(np.maximum.reduce(v_new))
    # a non-finite interior velocity reaches the neighbouring volumes,
    # and min/max propagate NaN, so the extrema catch it
    if not (math.isfinite(v_min) and math.isfinite(v_max)):
        raise NumericalError("tridiagonal solve produced non-finite values")
    if v_min <= 0.0:
        raise NumericalError("volume became non-positive")

    w, p = _coefficients(v_new, alpha, gamma)
    flux = du                    # in place: (half/dy)*(w_new*du/dy - p_new)
    flux *= w
    flux *= 1.0 / dy
    flux -= p
    flux *= half / dy
    u_new[1:-1] += flux[1:]
    u_new[1:-1] -= flux[:-1]
    return v_new, u_new, w, p, v_min, v_max


def step(state: SolverState, dtau: float) -> SolverState:
    """Advance one second-order time step of size dtau.

    A half kick of dtau/2 on the velocities (explicit pressure gradient,
    dissipation implicit through dptsv with the current volumes'
    coefficient 1/v**(1+alpha), boundary interfaces pinned), a drift of
    the volumes over dtau, and an explicit half kick with the new volumes'
    pressure and coefficient.  Both kicks are in flux form, so mass and
    momentum telescope exactly.  Volumes and tau are validated here, not
    in the kernel; the caller respects the acoustic CFL limit.
    """
    _check_dtau(dtau)
    v = _check_positive_volume(state.v)
    if not math.isfinite(state.tau):
        raise ValidationError("tau must be finite")
    tau = state.tau + dtau
    alpha, gamma = state.alpha, state.law.gamma
    w, p = _coefficients(v, alpha, gamma)
    try:
        v_new, u_new, *_ = _advance(v, state.u, w, p, state.bc_u, alpha,
                                    gamma, state.grid.dy, dtau)
    except NumericalError as exc:
        raise NumericalError(f"{exc} at tau={tau:.6g}") from exc
    return replace(state, v=_freeze(v_new), u=_freeze(u_new), tau=tau)


def step_flux_balance(before: SolverState, after: SolverState):
    """Exact boundary-flux bookkeeping for one step (for conservation
    tests): returns (mass change, mass flux, momentum change, momentum
    flux) where the changes are over interior degrees of freedom and the
    fluxes are the telescoped boundary terms of the update: the momentum
    flux averages the two half kicks' end-cell fluxes."""
    grid = before.grid
    dy = grid.dy
    dtau = after.tau - before.tau
    ubl, ubr = before.bc_u
    mass_change = float(np.sum(after.v - before.v) * dy)
    mass_flux = dtau * (ubr - ubl)
    # u_y/v**(1+alpha) - p in the end cells before and after, with the
    # half-step u_y recovered from the drift as the volumes' rate
    ends = np.stack((before.v[[0, -1]], after.v[[0, -1]]))
    u_y = (ends[1] - ends[0]) / dtau
    f = np.mean(u_y / ends ** (1.0 + before.alpha)
                - pressure(ends, before.law), axis=0)
    mom_change = float(np.sum(after.u[1:-1] - before.u[1:-1]) * dy)
    mom_flux = dtau * (f[1] - f[0])
    return mass_change, mass_flux, mom_change, mom_flux


@dataclass
class RunRecord:
    """Trajectory metadata collected by run()."""

    n_steps: int
    v_min: float
    v_max: float

    def volume_window_ok(self, v_plus: float) -> bool:
        """Whether every volume stayed within [v_plus/4, 2*v_plus]."""
        return self.v_min >= v_plus / 4.0 and self.v_max <= 2.0 * v_plus


def _stop_tol(t):
    # a stop at time t counts as reached within this much of it
    return 1e-12 * max(1.0, abs(t))


def _targets(tau0, tau_end, observe_every):
    """Stop times after tau0, lazily: the multiples of observe_every short
    of tau_end by more than its stop tolerance, then tau_end."""
    k = 1
    while tau0 + k * observe_every < tau_end - _stop_tol(tau_end):
        yield tau0 + k * observe_every
        k += 1
    yield tau_end


def _check_run_args(cfl, tau0, tau_end, observe_every, max_dtau=math.inf):
    # run's domain from start time tau0; NaN fails every comparison
    if not -math.inf < tau0 <= tau_end < math.inf:
        raise ValidationError("tau_end must be finite and >= the start time")
    if not 0.0 < cfl < 1.0:
        raise ValidationError("cfl must be in (0, 1)")
    # within the stop tolerance, uniform stop times would coincide
    tol = max(_stop_tol(tau0), _stop_tol(tau_end))
    if not observe_every > tol:
        raise ValidationError(
            "observe_every must exceed the stop tolerance "
            f"1e-12*max(1, |start|, |tau_end|) = {tol:.3g}")
    if not max_dtau > 0.0:
        raise ValidationError("max_dtau must be positive")


def run(state: SolverState, tau_end: float, observer=None,
        observe_every: float = math.inf, cfl: float = _CFL,
        max_dtau: float = math.inf):
    """March the state to tau_end, finite and >= state.tau.

    The step is the acoustic CFL limit cfl*dy/max|wave speed| from the
    current volumes (0 < cfl < 1, by default 0.95; the step is stable up
    to 1), capped by max_dtau > 0 (no library caller; two benchmark
    workloads pin it) and clipped to the next stop: each multiple of
    observe_every after the start if an observer is given, then tau_end.
    A stop t counts as reached within 1e-12*max(1, |t|), and the clock is
    then set to t exactly: the observer sees the read-only state at
    state.tau + k*observe_every and at tau_end, and the final tau is
    tau_end.  observe_every must exceed 1e-12*max(1, |state.tau|,
    |tau_end|); an interval past tau_end, inf (the default) included,
    yields one call, at tau_end.  The loop builds a SolverState only at
    the stops.  Returns (final state, RunRecord).
    """
    _check_run_args(cfl, state.tau, tau_end, observe_every, max_dtau)
    v = _check_positive_volume(state.v)

    v_low = lowest = float(np.min(v))
    highest = float(np.max(v))
    u, tau, bc_u = state.u, state.tau, state.bc_u
    alpha, gamma, dy = state.alpha, state.law.gamma, state.grid.dy
    w, p = _coefficients(v, alpha, gamma)
    n_steps = 0
    for target in _targets(tau, tau_end,
                           math.inf if observer is None else observe_every):
        reached = target - _stop_tol(target)
        while tau < reached:
            try:
                dt = min(cfl * dy / _wave_speed(v_low, gamma), max_dtau,
                         target - tau)
                _check_dtau(dt)
                v, u, w, p, v_low, v_high = _advance(
                    v, u, w, p, bc_u, alpha, gamma, dy, dt)
            except NumericalError as exc:
                raise NumericalError(
                    f"run aborted at tau={tau:.6g}: {exc}") from exc
            tau += dt
            n_steps += 1
            lowest = min(lowest, v_low)
            highest = max(highest, v_high)
        tau = target
        state = replace(state, v=_freeze(v), u=_freeze(u), tau=tau)
        if observer is not None:
            observer(state)
    return state, RunRecord(n_steps=n_steps, v_min=lowest, v_max=highest)
