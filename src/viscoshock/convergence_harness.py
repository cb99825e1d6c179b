"""Small-viscosity sweeps: sup errors against the inviscid shock.

Errors are measured over the wedge that excludes a strip of half-width h
around the shock ray and times before h (in unscaled coordinates).  Two
error notions are read from one traveling wave per viscosity strength:
the analytic tail error (no PDE solve, the supremum sits exactly at
distance h from the ray) and the full-solution error from an actual
stretched-frame run sampled back onto the unscaled lattice.  A sweep fits
the tail model error ~ C * exp(-c/alpha) and reports monotonicity.
"""

import numbers
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .errors import ValidationError, ViscoshockError
from .euler_waves import PressureLaw, ShockData, riemann_shock_eval
from .lagrangian_solver import _CFL, Grid1D, _check_run_args, init_state, run
from .shock_profile import compute_profile

__all__ = [
    "OmegaSpec",
    "SolverSizing",
    "FullErrorResult",
    "SweepResult",
    "profile_only_error",
    "full_error",
    "alpha_sweep",
]


@dataclass(frozen=True)
class OmegaSpec:
    """Sampling wedge |x - s*t| >= h, h <= t <= t_final < inf, h > 0."""

    h: float
    t_final: float
    x_samples: int = 801
    t_samples: int = 5

    def __post_init__(self):
        if not 0.0 < self.h < np.inf:
            raise ValidationError("h must be positive and finite")
        if not self.h < self.t_final < np.inf:
            raise ValidationError("t_final must be finite and exceed h")
        for name in ("x_samples", "t_samples"):
            count = getattr(self, name)
            if not (isinstance(count, numbers.Integral) and count >= 2):
                raise ValidationError(
                    f"{name} must be an integer of at least 2")


@dataclass(frozen=True)
class SolverSizing:
    """Automatic grid sizing for full-solution error runs.

    The stretched-frame tail scale is 1/mu, mu the stretched decay rate:
    margin_efolds of it separate the wave from each boundary and finite
    cells_per_width >= 20 cells resolve one (20 by default; the scheme's
    share of E_full falls as its inverse square, so raise it for E_full
    closer to E_profile); 0 < cfl < 1 (0.95 by default, as for run: the
    step is stable up to 1).  Class constants: runs stop at stretched
    time tau_max; each entry's one wave is built at profile_tol.
    """

    cells_per_width: float = 20.0
    cfl: float = _CFL
    margin_efolds: ClassVar[float] = 20.0
    tau_max: ClassVar[float] = 200.0
    profile_tol: ClassVar[float] = 1e-12

    def __post_init__(self):
        if not 20.0 <= self.cells_per_width < np.inf:
            raise ValidationError("cells_per_width must be finite and >= 20")
        _check_run_args(self.cfl)


def profile_only_error(shock: ShockData, alpha: float, law: PressureLaw,
                       omega: OmegaSpec,
                       tol: float = SolverSizing.profile_tol) -> float:
    """Sup of |v - v_shock| + |u - u_shock| outside the strip, from the
    traveling-wave tails alone.

    The wave error, from the wave a sweep entry builds at tolerance tol,
    depends only on the distance to the ray and decays monotonically, so
    the supremum over the wedge sits at distance h on the slower side.
    """
    return _tail_error(compute_profile(shock, alpha, law, tol=tol), omega)


def _tail_error(profile, omega):
    V = profile.eval_V(np.array([-omega.h, omega.h]))
    ref = np.array([profile.shock.v_minus, profile.shock.v_plus])
    # velocity deviation is |s| times the volume deviation (integrated
    # mass equation), so the pair error carries the factor 1 + |s|
    return float(np.max((1.0 + abs(profile.shock.s)) * np.abs(V - ref)))


def _omega_positions(shock: ShockData, omega: OmegaSpec, t: float,
                     x_lo: float, x_hi: float) -> np.ndarray:
    """Sample positions at time t: a uniform lattice over [x_lo, x_hi]
    plus the two points exactly at distance h from the ray, everything
    inside the strip |x - s*t| < h excluded."""
    xs = np.concatenate((np.linspace(x_lo, x_hi, omega.x_samples),
                         [shock.s * t - omega.h, shock.s * t + omega.h]))
    keep = np.abs(xs - shock.s * t) >= omega.h * (1.0 - 1e-12)
    keep &= (xs >= x_lo) & (xs <= x_hi)
    return xs[keep]


@dataclass(frozen=True)
class FullErrorResult:
    """One full-solution error; n_cells counts the cells stepped, those
    of the window that follows the wave, not of the grid it slides on,
    and n_steps the steps of all its window runs."""

    error: float
    capped: bool
    n_cells: int
    n_steps: int
    tau_end: float
    window_ok: bool     # volumes stayed within [v_plus/4, 2*v_plus]


def full_error(shock: ShockData, alpha: float, law: PressureLaw,
               omega: OmegaSpec,
               sizing: SolverSizing = SolverSizing()) -> FullErrorResult:
    """Sup error of an actual viscous run over the wedge lattice.

    The solver runs in stretched coordinates to t_final/alpha (capped at
    sizing.tau_max), stops at each time of the wedge's lattice, and the
    fields are linearly interpolated at the unscaled sample positions,
    always including the two points exactly at distance h from the ray
    where the supremum of the wave error sits.  The grid spans the
    wave's whole path, but only a window of it that slides with the
    wave is stepped; the result's n_cells counts the window's cells.
    """
    return _full_error(compute_profile(shock, alpha, law,
                                       tol=sizing.profile_tol), omega, sizing)


def _full_error(profile, omega, sizing):
    shock, alpha = profile.shock, profile.alpha
    # stretched-frame tail rate
    mu = alpha * min(profile.lambda_minus, -profile.lambda_plus)
    margin = sizing.margin_efolds / mu
    tau_end = omega.t_final / alpha
    capped = tau_end > sizing.tau_max
    if capped:
        tau_end = sizing.tau_max
        if alpha * tau_end < omega.h:
            raise ValidationError(
                "tau_max caps the run before the sampling window opens")
    y_min = shock.s * tau_end - margin - 2.0 / mu
    y_max = max(margin, omega.h / alpha + 6.0 / mu)
    dy_target = 1.0 / (mu * sizing.cells_per_width)
    n_cells = int(np.ceil((y_max - y_min) / dy_target))
    grid = Grid1D(y_min=y_min, y_max=y_max, n_cells=n_cells)

    state = init_state(profile, grid)
    v, u = state.v.copy(), state.u.copy()
    # Only a window that slides with the wave is stepped: margin + 2/mu
    # ahead of it, y_max behind (less under a cell) and 1/mu of slack,
    # which the wave crosses in one chunk.  Cells outside keep their last
    # values, the far-field data ahead and the frozen tail behind, both
    # the end states to within e**-margin_efolds.  Neither side trims to
    # h/alpha + 6/mu: stale cells then enter ahead and the acoustic pulse
    # reflects off the pinned back edge (E_full moved 1.6e-3 relative).
    dy, slack = grid.dy, 1.0 / mu
    n_w = min(n_cells, int(np.ceil((margin + 3.0 * slack + y_max) / dy)))
    chunk = slack / abs(shock.s)
    t_lattice = np.linspace(omega.h, min(omega.t_final, alpha * tau_end),
                            omega.t_samples)
    yc, yi = grid.centers(), grid.interfaces()
    err, window_ok, n_steps = 0.0, True, 0
    # stop at each lattice time, no later than tau_end (t/alpha can round
    # past a cap), and sample at t itself: alpha*state.tau can round below h
    stops = np.minimum(t_lattice[:-1] / alpha, tau_end)
    for t, stop in zip(t_lattice, [*stops, tau_end]):
        while state.tau < stop:
            ahead = shock.s * state.tau - margin - 3.0 * slack
            i0 = min(max(int((ahead - y_min) // dy), 0), n_cells - n_w)
            i1 = i0 + n_w
            state, record = run(
                replace(state, grid=Grid1D(yi[i0], yi[i1], n_w),
                        v=v[i0:i1], u=u[i0:i1 + 1],
                        bc_u=(float(u[i0]), float(u[i1]))),
                min(stop, state.tau + chunk), cfl=sizing.cfl)
            v[i0:i1], u[i0:i1 + 1] = state.v, state.u
            window_ok = window_ok and record.volume_window_ok(shock.v_plus)
            n_steps += record.n_steps
        xs = _omega_positions(shock, omega, t,
                              alpha * grid.y_min, alpha * grid.y_max)
        ys = xs / alpha
        v_num = np.interp(ys, yc, v)
        u_num = np.interp(ys, yi, u)
        v_ref, u_ref = riemann_shock_eval(shock, xs, t)
        err = max(err, float(np.max(np.abs(v_num - v_ref)
                                    + np.abs(u_num - u_ref))))
    return FullErrorResult(error=err, capped=capped, n_cells=n_w,
                           n_steps=n_steps, tau_end=tau_end,
                           window_ok=window_ok)


@dataclass
class SweepResult:
    """Assembled sweep: one entry per viscosity strength, finest last."""

    alphas: list
    e_profile: list
    e_full: list                 # NaN entries when full runs were skipped
    capped: list
    n_cells: list                # each full run's window cells and steps,
    n_steps: list                # 0 where it was skipped or refused
    failures: dict               # alpha -> error message
    c_fit: float = float("nan")
    big_c_fit: float = float("nan")
    r_squared: float = float("nan")
    monotone_flag: bool = False
    window_ok: bool = True


def _fit_exponential(alphas, errors):
    x = 1.0 / np.asarray(alphas, dtype=float)
    y = np.log(np.asarray(errors, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return -float(slope), float(np.exp(intercept)), r2


def _check_alphas(alphas):
    # alpha_sweep's list as floats; NaN fails every comparison
    alphas = [float(a) for a in alphas]
    if len(alphas) < 3 or not all(np.inf > a1 > a2 > 0.0
                                  for a1, a2 in zip(alphas, alphas[1:])):
        raise ValidationError("alphas must be at least 3 finite, positive "
                              "and strictly decreasing values")
    return alphas


def alpha_sweep(shock: ShockData, law: PressureLaw, alphas,
                omega: OmegaSpec, include_full: bool = True,
                sizing: SolverSizing = SolverSizing()) -> SweepResult:
    """Run the error measurements over a strictly decreasing alpha list.

    Each entry builds one wave at sizing.profile_tol and reads both
    errors from it.  A ViscoshockError refusing an entry is recorded and
    the sweep continues; other exceptions propagate.
    """
    alphas = _check_alphas(alphas)
    nan = float("nan")
    out = SweepResult(alphas=alphas, e_profile=[], e_full=[], capped=[],
                      n_cells=[], n_steps=[], failures={})
    for a in alphas:
        try:
            wave = compute_profile(shock, a, law, tol=sizing.profile_tol)
            e_p = _tail_error(wave, omega)
            full = _full_error(wave, omega, sizing) if include_full else None
        except ViscoshockError as exc:
            out.failures[a] = f"{type(exc).__name__}: {exc}"
            e_p, full = nan, None
        out.e_profile.append(e_p)
        out.e_full.append(nan if full is None else full.error)
        out.capped.append(full is not None and full.capped)
        out.n_cells.append(0 if full is None else full.n_cells)
        out.n_steps.append(0 if full is None else full.n_steps)
        out.window_ok = out.window_ok and (full is None or full.window_ok)

    valid = [(a, e) for a, e in zip(alphas, out.e_profile)
             if np.isfinite(e) and e > 0.0]
    if len(valid) >= 2:
        out.c_fit, out.big_c_fit, out.r_squared = _fit_exponential(
            [a for a, _ in valid], [e for _, e in valid])
    finite = [e for e in out.e_profile if np.isfinite(e)]
    out.monotone_flag = (len(finite) == len(alphas)
                         and all(b < a for a, b in zip(finite, finite[1:])))
    return out
