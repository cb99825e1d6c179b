"""Staggered conservative scheme for the stretched viscous system.

The PDE is solved in stretched coordinates (y, tau) in which the
dissipative coefficient is order one and the viscosity strength alpha
enters only through the exponent of 1/v**(1+alpha):

    v_tau - u_y = 0,
    u_tau + p(v)_y = (u_y / v**(1+alpha))_y.

Volumes live at cell centers and velocities at cell interfaces, so both
conservation laws telescope exactly.  The pressure gradient is explicit,
the dissipative term is backward Euler with the coefficient frozen at the
current volume field, which removes the parabolic step restriction; the
remaining constraint is the acoustic CFL limit.  The implicit velocity
matrix is symmetric positive-definite tridiagonal, so it is solved with
LAPACK's dptsv.  Velocities at the two boundary interfaces are held at
their initial values (domains are sized so the wave never comes near the
boundary), and volumes evolve conservatively everywhere so that the
discrete mass identity is exact to rounding.

Volumes are validated at the public edge only: step checks its input
state, run checks it once on entry, and the stepping kernel relies on
each step rejecting a non-positive result.
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
    return math.sqrt(gamma * v_min ** (-gamma - 1.0))


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


def _advance(v, u, bc_u, alpha, gamma, dy, dtau):
    """One step on raw arrays of positive volumes.

    Returns (v_new, u_new, min(v_new), max(v_new)); raises
    NumericalError if the solve fails or a volume turns non-positive.
    """
    rw = v ** -(1.0 + alpha)     # dissipative coefficient w, scaled below
    rw *= dtau / dy ** 2
    p = v ** -gamma
    ubl, ubr = bc_u

    u_new = np.empty(len(u))
    u_new[0] = ubl
    u_new[-1] = ubr
    rhs = u_new[1:-1]
    dp = p[1:] - p[:-1]
    dp *= dtau / dy
    np.subtract(u[1:-1], dp, out=rhs)
    rhs[0] += rw[0] * ubl
    rhs[-1] += rw[-1] * ubr
    diag = rw[:-1] + 1.0
    diag += rw[1:]
    _, _, interior, info = dptsv(diag, np.negative(rw[1:-1]), rhs,
                                 overwrite_d=1, overwrite_e=1, overwrite_b=1)
    if info != 0:
        raise NumericalError(f"tridiagonal solve failed: LAPACK info {info}")
    u_new[1:-1] = interior       # same memory unless LAPACK copied rhs

    v_new = u_new[1:] - u_new[:-1]
    v_new *= dtau / dy
    v_new += v
    v_min = float(v_new.min())
    v_max = float(v_new.max())
    # a non-finite interior velocity reaches the neighbouring volumes,
    # and min/max propagate NaN, so the extrema catch it
    if not (math.isfinite(v_min) and math.isfinite(v_max)):
        raise NumericalError("tridiagonal solve produced non-finite values")
    if v_min <= 0.0:
        raise NumericalError("volume became non-positive")
    return v_new, u_new, v_min, v_max


def step(state: SolverState, dtau: float) -> SolverState:
    """Advance one time step of size dtau.

    Velocity first: explicit pressure gradient plus implicit dissipation
    through a symmetric positive-definite tridiagonal solve by LAPACK's
    dptsv (coefficient 1/v**(1+alpha) frozen at the current volumes,
    boundary interfaces pinned).  Volumes then update from the new
    interface velocities, which makes the mass budget telescope exactly.
    The input volumes are validated here, not inside the kernel.  The
    caller is responsible for respecting the acoustic CFL limit.
    """
    _check_dtau(dtau)
    v = _check_positive_volume(state.v)
    tau = state.tau + dtau
    try:
        v_new, u_new, _, _ = _advance(v, state.u, state.bc_u, state.alpha,
                                      state.law.gamma, state.grid.dy, dtau)
    except NumericalError as exc:
        raise NumericalError(f"{exc} at tau={tau:.6g}") from exc
    return replace(state, v=_freeze(v_new), u=_freeze(u_new), tau=tau)


def step_flux_balance(before: SolverState, after: SolverState):
    """Exact boundary-flux bookkeeping for one step (for conservation
    tests): returns (mass change, mass flux, momentum change, momentum
    flux) where the changes are over interior degrees of freedom and the
    fluxes are the telescoped boundary terms of the update."""
    grid = before.grid
    dy = grid.dy
    dtau = after.tau - before.tau
    ubl, ubr = before.bc_u
    mass_change = float(np.sum(after.v - before.v) * dy)
    mass_flux = dtau * (ubr - ubl)
    p = pressure(before.v, before.law)
    c = before.v ** (1.0 + before.alpha)
    flux_l = (after.u[1] - after.u[0]) / (dy * c[0])
    flux_r = (after.u[-1] - after.u[-2]) / (dy * c[-1])
    mom_change = float(np.sum(after.u[1:-1] - before.u[1:-1]) * dy)
    mom_flux = dtau * (-(p[-1] - p[0]) + (flux_r - flux_l))
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


def _targets(tau0, tau_end, observe_every):
    """Stop times after tau0, lazily: the multiples of observe_every short
    of tau_end by more than the stepping tolerance, then tau_end."""
    end_tol = tau_end - 1e-12 * max(1.0, tau_end)
    k = 1
    while observe_every is not None and tau0 + k * observe_every < end_tol:
        yield tau0 + k * observe_every
        k += 1
    yield tau_end


def _check_run_args(cfl, tau0=0.0, tau_end=0.0, observe_every=None,
                    max_dtau=None):
    # run's domain from start time tau0; NaN fails every comparison
    if not tau0 - 1e-15 <= tau_end < math.inf:
        raise ValidationError("tau_end must be finite and >= the start time")
    if not 0.0 < cfl < 1.0:
        raise ValidationError("cfl must be in (0, 1)")
    # below the stepping tolerance, uniform stop times would coincide
    tol = 1e-12 * max(1.0, abs(tau0), abs(tau_end))
    if observe_every is not None and not observe_every > tol:
        raise ValidationError(
            "observe_every must exceed the stepping tolerance "
            f"1e-12*max(1, |start|, |tau_end|) = {tol:.3g}")
    if max_dtau is not None and not max_dtau > 0.0:
        raise ValidationError("max_dtau must be positive")


def run(state: SolverState, tau_end: float, observer=None,
        observe_every: float | None = None, cfl: float = 0.4,
        max_dtau: float | None = None):
    """March the state to tau_end, finite and >= state.tau.

    The step is the acoustic CFL limit cfl*dy/max|wave speed|, cfl in
    (0, 1), recomputed from the current volumes, optionally capped by
    max_dtau > 0 (the convergence tests tie the step to dy**2 this way),
    and clipped so observation times and tau_end are hit exactly.  The
    observer, if given, receives the read-only state at each multiple of
    observe_every after the start time and at tau_end; observe_every
    must exceed the stepping tolerance 1e-12*max(1, |state.tau|,
    |tau_end|), and an interval longer than the run, inf included,
    yields one call at the end.  The volumes are validated once on
    entry and the loop runs on arrays, building a SolverState only where
    one is observed and at tau_end.  Returns (final state, RunRecord).
    """
    _check_run_args(cfl, state.tau, tau_end, observe_every, max_dtau)
    v = _check_positive_volume(state.v)

    v_low = float(np.min(v))
    record = RunRecord(n_steps=0, v_min=v_low, v_max=float(np.max(v)))
    if tau_end <= state.tau + 1e-15:
        return state, record

    u, tau, bc_u = state.u, state.tau, state.bc_u
    alpha, gamma, dy = state.alpha, state.law.gamma, state.grid.dy
    for target in _targets(tau, tau_end,
                           None if observer is None else observe_every):
        while tau < target - 1e-12 * max(1.0, target):
            dt = cfl * dy / _wave_speed(v_low, gamma)
            if max_dtau is not None:
                dt = min(dt, max_dtau)
            dt = min(dt, target - tau)
            try:
                _check_dtau(dt)
                v, u, v_low, v_high = _advance(v, u, bc_u, alpha, gamma,
                                               dy, dt)
            except NumericalError as exc:
                raise NumericalError(
                    f"run aborted at tau={tau:.6g}: {exc}") from exc
            tau += dt
            record.n_steps += 1
            record.v_min = min(record.v_min, v_low)
            record.v_max = max(record.v_max, v_high)
        if observer is not None or target == tau_end:
            state = replace(state, v=_freeze(v), u=_freeze(u), tau=tau)
            if observer is not None:
                observer(state)
    return state, record
