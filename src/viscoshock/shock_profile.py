"""Smooth traveling-wave profiles of the viscous system.

In the frame moving with an admissible backward shock the viscous system
reduces, after one integration in the traveling coordinate, to a scalar
first-order ODE for the specific volume,

    dV/dxi = g(V) * V**(1+alpha) / (alpha*|s|),
    g(V)   = s**2*(V - v_minus) + p(V) - p(v_minus),

whose critical points are exactly the shock end states (g vanishes there
by the jump relations, and is negative in between because p is convex).
Velocity follows pointwise from the integrated mass equation,
U = u_minus - s*(V - v_minus).

The two end states are degenerate critical points, so the ODE is
integrated adaptively from the normalisation point out to a cutoff
amplitude and continued with the exact linearised exponential tails,
rates

    lambda_pm = (s**2 + p'(v_pm)) * v_pm**(1+alpha) / (|s|*alpha).
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator

from .errors import NumericalError, ValidationError
from .euler_waves import PressureLaw, ShockData, d_pressure, pressure

__all__ = [
    "ViscousProfile",
    "ProfilePropertyReport",
    "reduced_rhs",
    "tail_rates",
    "compute_profile",
    "profile_residual",
    "residual_on_samples",
    "rescaled_profile_eval",
    "verify_profile_properties",
]


def _chord_gap(V, shock, law):
    # g(V): difference between the chord through the end states and p,
    # written so both end states are exact roots.  The raw power law:
    # callers keep V inside [v_plus, v_minus].
    return (shock.s ** 2 * (V - shock.v_minus)
            + V ** -law.gamma - shock.v_minus ** -law.gamma)


def reduced_rhs(V, shock: ShockData, alpha: float, law: PressureLaw):
    """Slope dV/dxi of the profile at volume V.

    Strictly negative for v_plus < V < v_minus (the chord gap of a convex
    pressure), zero at the end states themselves, domain error beyond.
    """
    V = np.asarray(V, dtype=float)
    if np.any(V < shock.v_plus) or np.any(V > shock.v_minus):
        raise ValidationError("V outside the interval [v_plus, v_minus]")
    if alpha <= 0.0:
        raise ValidationError("alpha must be positive")
    out = _rhs_unchecked(V, shock, alpha, law)
    return float(out) if out.ndim == 0 else out


def _rhs_unchecked(V, shock, alpha, law):
    return (_chord_gap(V, shock, law) * V ** (1.0 + alpha)
            / (alpha * abs(shock.s)))


def _rhs_slope(V, shock, alpha, law):
    # d/dV of the reduced right-hand side; used for curvature bounds.
    V = np.asarray(V, dtype=float)
    gp = shock.s ** 2 + d_pressure(V, law)
    return ((gp * V ** (1.0 + alpha)
             + _chord_gap(V, shock, law) * (1.0 + alpha) * V ** alpha)
            / (alpha * abs(shock.s)))


def tail_rates(shock: ShockData, alpha: float, law: PressureLaw):
    """Exact linearised decay rates (lambda_minus > 0, lambda_plus < 0)."""
    lam_m = ((shock.s ** 2 + d_pressure(shock.v_minus, law))
             * shock.v_minus ** (1.0 + alpha) / (abs(shock.s) * alpha))
    lam_p = ((shock.s ** 2 + d_pressure(shock.v_plus, law))
             * shock.v_plus ** (1.0 + alpha) / (abs(shock.s) * alpha))
    return float(lam_m), float(lam_p)


def _first_integral(shock, V):
    # velocity from the integrated mass equation
    return shock.u_minus - shock.s * (V - shock.v_minus)


def _beyond(xi, tails):
    # the two switch points: each cutoff belongs to its tail
    return xi <= tails[0][0], xi >= tails[1][0]


def _join(xi, core, shock, tails):
    """The wave at the points xi: core(xi) strictly between the two
    cutoffs, and on or beyond each of them the exact linearised tail
    through the outermost ODE sample there.

    tails holds (xi_cut, V at xi_cut, decay rate) for the left and the
    right side.
    """
    left, right = _beyond(xi, tails)
    inside = ~(left | right)
    out = np.empty_like(xi)
    out[inside] = core(xi[inside])
    for mask, (cut, v_cut, rate), end in ((left, tails[0], shock.v_minus),
                                          (right, tails[1], shock.v_plus)):
        out[mask] = end + (v_cut - end) * np.exp(rate * (xi[mask] - cut))
    return out


@dataclass
class ViscousProfile:
    """Sampled traveling wave with analytic tail continuation.

    xi_grid holds the traveling coordinate (position minus shock
    displacement in the unscaled frame).  Strictly between the cutoffs
    xi_cut_left and xi_cut_right the wave interpolates the ODE samples;
    on and beyond each cutoff it is the exact exponential tail through
    the ODE's value there, so evaluation is defined on the whole line
    and reproduces the samples: eval_V(xi_grid) equals V.  Instances
    are immutable by convention; the sample arrays are marked read-only.
    """

    shock: ShockData
    alpha: float
    xi_grid: np.ndarray
    V: np.ndarray
    U: np.ndarray
    lambda_minus: float
    lambda_plus: float
    normalization: float
    eps_tail: float
    tol: float
    xi_cut_left: float
    xi_cut_right: float
    span_warning: bool
    law: PressureLaw = field(repr=False)
    _interp: PchipInterpolator = field(repr=False)
    _tails: tuple = field(repr=False)

    def eval_V(self, xi):
        """Volume at traveling coordinate(s) xi, tails included."""
        xi = np.asarray(xi, dtype=float)
        out = _join(np.atleast_1d(xi), self._interp, self.shock, self._tails)
        return float(out[0]) if xi.ndim == 0 else out

    def eval_dV(self, xi):
        """Slope dV/dxi, using the tail rates on and beyond the cutoffs."""
        xi = np.asarray(xi, dtype=float)
        out = self._slope(np.atleast_1d(xi), np.atleast_1d(self.eval_V(xi)))
        return float(out[0]) if xi.ndim == 0 else out

    def _slope(self, xi, V):
        # dV/dxi from V = eval_V(xi), so a caller that already holds the
        # volumes does not evaluate the wave a second time
        left, right = _beyond(xi, self._tails)
        inside = ~(left | right)
        out = np.empty_like(V)
        out[inside] = _rhs_unchecked(V[inside], self.shock, self.alpha,
                                     self.law)
        out[left] = self.lambda_minus * (V[left] - self.shock.v_minus)
        out[right] = self.lambda_plus * (V[right] - self.shock.v_plus)
        return out

    def eval(self, xi):
        V = self.eval_V(xi)
        return V, _first_integral(self.shock, V)


def _tail_cut_bound(delta, eps_tail, rate):
    # Distance over which the linear tail drops from the half-jump to the
    # cutoff amplitude, with generous slack for the nonlinear region.
    drop = np.log(max(0.5 * delta / eps_tail, 10.0))
    return 3.0 * (drop + 10.0) / rate


def _auto_grid(cut_l, cut_r, n):
    # n uniform nodes k*h with one at 0.  A hair under n - 2 steps span
    # [cut_l, cut_r]: each end node lies past its cutoff, and the node
    # before it no more than 1e-6*h past.
    h = (cut_r - cut_l) / (n - 2.0 - 1e-6)
    k_left = math.floor(-cut_l / h) + 1
    return np.arange(-k_left, n - k_left) * h


def _check_profile_args(alpha, tol, span, n):
    # compute_profile's shock-free domain; NaN fails every comparison
    if not 0.0 < alpha < math.inf:
        raise ValidationError("alpha must be positive and finite")
    if not 0.0 < tol < math.inf:
        raise ValidationError("tol must be positive and finite")
    if n < 33:
        raise ValidationError("n must be at least 33")
    if span is not None and not 0.0 < span < math.inf:
        raise ValidationError("span must be positive and finite")


def compute_profile(shock: ShockData, alpha: float, law: PressureLaw,
                    tol: float = 1e-10, span: float | None = None,
                    n: int = 4001,
                    normalization: float | None = None) -> ViscousProfile:
    """Integrate the profile ODE and sample it on a uniform grid.

    Parameters
    ----------
    shock : admissible backward shock fixing end states and speed.
    alpha : viscosity exponent, positive and finite.
    tol : integrator tolerance (relative and absolute), in (0, delta/4);
        also sets the tail cutoff eps_tail = max(tol, 1e-10*delta).
    span : None (the default) sizes each side of the grid by its own
        tail: the n nodes cover [xi_cut_left, xi_cut_right] with one
        node past each cutoff and one node at xi = 0.  A given span,
        positive and finite, fixes the grid to [-span, span] instead.
        If that grid ends before a cutoff is reached, the result carries
        ``span_warning=True`` and the tail starts at the grid edge,
        slightly less accurately.
    n : number of grid samples, at least 33.  The automatic grid has a node
        at the normalisation point xi = 0; a grid of given span has one
        when n is odd.
    normalization : volume at xi = 0; defaults to the midpoint of the
        end states.  The wave is unique up to translation, so this only
        fixes the phase.
    """
    _check_profile_args(alpha, tol, span, n)
    vp, vm = shock.v_plus, shock.v_minus
    delta = shock.delta
    if not tol < 0.25 * delta:   # else the tail cutoffs swallow the jump
        raise ValidationError(f"tol must be below delta/4 = {0.25 * delta:.6g}")
    eps_tail = max(tol, 1e-10 * delta)
    v0 = 0.5 * (vm + vp) if normalization is None else float(normalization)
    if not (vp + 2.0 * eps_tail < v0 < vm - 2.0 * eps_tail):
        raise ValidationError("normalization must lie inside the end states")

    lam_m, lam_p = tail_rates(shock, alpha, law)

    def rhs(xi, V):
        # a trial stage may step past an end state, where the slope is 0
        return _rhs_unchecked(min(max(V[0], vp), vm), shock, alpha, law)

    def hit_right(xi, V):
        return V[0] - (vp + eps_tail)
    hit_right.terminal = True

    def hit_left(xi, V):
        return V[0] - (vm - eps_tail)
    hit_left.terminal = True

    bound_f = span if span is not None else _tail_cut_bound(delta, eps_tail, -lam_p)
    bound_b = span if span is not None else _tail_cut_bound(delta, eps_tail, lam_m)

    sol_f = solve_ivp(rhs, [0.0, bound_f], [v0], method="DOP853",
                      rtol=tol, atol=tol, dense_output=True,
                      events=hit_right)
    sol_b = solve_ivp(rhs, [0.0, -bound_b], [v0], method="DOP853",
                      rtol=tol, atol=tol, dense_output=True,
                      events=hit_left)
    if not (sol_f.success and sol_b.success):
        raise NumericalError(
            f"profile integration failed: {sol_f.message} / {sol_b.message}")

    # the outermost ODE sample on each side anchors that side's tail
    tails = ((float(sol_b.t[-1]), float(sol_b.y[0, -1]), lam_m),
             (float(sol_f.t[-1]), float(sol_f.y[0, -1]), lam_p))
    span_warning = not (sol_f.t_events[0].size and sol_b.t_events[0].size)

    if span is None:
        xi = _auto_grid(tails[0][0], tails[1][0], n)
    else:
        xi = np.linspace(-span, span, n)
        if n % 2 == 1:
            xi[n // 2] = 0.0

    def ode(x):
        out = np.full(x.shape, v0)
        fwd, bwd = x > 0.0, x < 0.0
        out[fwd] = sol_f.sol(x[fwd])[0]
        out[bwd] = sol_b.sol(x[bwd])[0]
        return out

    V = _join(xi, ode, shock, tails)

    if np.any(V <= vp) or np.any(V >= vm) or np.any(np.diff(V) >= 0.0):
        flat = np.where(np.diff(V) >= 0.0)[0]
        amp = np.minimum(np.abs(V - vp), np.abs(V - vm))
        if flat.size and np.all(amp[flat] < 1e-12 * delta):
            # consecutive tail samples collapse below double resolution
            raise ValidationError(
                "span too wide: tail differences fall below double "
                "precision, reduce span (or rely on the automatic one)")
        raise NumericalError("profile samples violate strict monotone bounds")

    U = _first_integral(shock, V)

    interp = PchipInterpolator(xi, V)
    for arr in (xi, V, U):
        arr.setflags(write=False)
    return ViscousProfile(
        shock=shock, alpha=alpha, xi_grid=xi, V=V, U=U,
        lambda_minus=lam_m, lambda_plus=lam_p, normalization=v0,
        eps_tail=eps_tail, tol=tol,
        xi_cut_left=tails[0][0], xi_cut_right=tails[1][0],
        span_warning=span_warning, law=law, _interp=interp, _tails=tails)


def residual_on_samples(xi, V, U, s: float, alpha: float, law: PressureLaw):
    """Max finite-difference residual of the traveling-wave system.

    Both equations are discretised at interior nodes with second-order
    stencils: centered first differences, and a compact flux form for the
    dissipative term so the whole residual refines at second order.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.size < 7:
        raise ValidationError("need at least 7 samples (5 interior)")
    h = xi[1] - xi[0]
    dV = (V[2:] - V[:-2]) / (2.0 * h)
    dU = (U[2:] - U[:-2]) / (2.0 * h)
    r1 = -s * dV - dU
    dp = (pressure(V[2:], law) - pressure(V[:-2], law)) / (2.0 * h)
    half_v = 0.5 * (V[1:] + V[:-1])
    flux = (U[1:] - U[:-1]) / h / half_v ** (1.0 + alpha)
    r2 = -s * dU + dp - alpha * (flux[1:] - flux[:-1]) / h
    return float(max(np.max(np.abs(r1)), np.max(np.abs(r2))))


def profile_residual(profile: ViscousProfile) -> float:
    """Residual of a computed profile on its own grid."""
    return residual_on_samples(profile.xi_grid, profile.V, profile.U,
                               profile.shock.s, profile.alpha, profile.law)


def _phase(profile, y, tau):
    # the stretched frame carries alpha in space and time, so the
    # traveling phase y - s*tau sits at xi = alpha*(y - s*tau)
    return profile.alpha * (np.asarray(y, dtype=float) - profile.shock.s * tau)


def rescaled_profile_eval(profile: ViscousProfile, y, tau: float):
    """Profile read in the stretched frame used by the PDE solver.

    The solver works in coordinates where both space and time carry a
    factor alpha, so the traveling phase y - s*tau corresponds to the
    unscaled coordinate alpha*(y - s*tau); evaluated there, the wave is
    an exact solution of the stretched system.
    """
    return profile.eval(_phase(profile, y, tau))


@dataclass(frozen=True)
class ProfilePropertyReport:
    """Numerical checks of the qualitative profile properties.

    Covers strict bounds and monotonicity of (V, U), exponential tail
    rates fitted against the analytic values, sup bounds of the first two
    derivatives with their strength/viscosity scalings, and the sign of
    the velocity slope.
    """

    bounds_ok: bool
    monotone_ok: bool
    du_negative_ok: bool
    fitted_rate_left: float
    fitted_rate_right: float
    rate_rel_err_left: float
    rate_rel_err_right: float
    rates_ok: bool
    sup_d1: float            # sup over xi of |d(V,U)/dxi|
    sup_d2: float            # sup over xi of |d2(V,U)/dxi2|
    scaled_d1: float         # sup_d1 * alpha / delta**2
    scaled_d2: float         # sup_d2 * alpha**2 / delta**2
    all_ok: bool


def _fit_tail_rate(xi, amp, h_probe, lo, hi, side):
    if side == "left":
        mask = (xi <= -h_probe) & (amp > lo) & (amp < hi)
    else:
        mask = (xi >= h_probe) & (amp > lo) & (amp < hi)
    if np.count_nonzero(mask) < 8:
        return float("nan")
    coef = np.polyfit(xi[mask], np.log(amp[mask]), 1)
    return float(coef[0])


def verify_profile_properties(profile: ViscousProfile,
                              h_probe: float) -> ProfilePropertyReport:
    """Check bounds, tail rates and derivative scalings of a profile.

    Tail rates are fitted on log-amplitude over the region |xi| >= h_probe
    restricted to the clean exponential window (amplitudes between
    1e3*eps_tail and 3% of the jump); the fit must match the analytic
    rates within 5% for rates_ok.  Derivative sups are taken along the
    exact ODE flow (dense in V), not from grid differences.
    """
    shock = profile.shock
    vp, vm = shock.v_plus, shock.v_minus
    V, U, xi = profile.V, profile.U, profile.xi_grid

    bounds_ok = bool(np.all(V > vp) and np.all(V < vm)
                     and np.all(U > shock.u_plus) and np.all(U < shock.u_minus))
    monotone_ok = bool(np.all(np.diff(V) < 0.0) and np.all(np.diff(U) < 0.0))

    lo = 1e3 * profile.eps_tail
    hi = 0.03 * shock.delta
    fit_l = _fit_tail_rate(xi, np.abs(V - vm), h_probe, lo, hi, "left")
    fit_r = _fit_tail_rate(xi, np.abs(V - vp), h_probe, lo, hi, "right")
    err_l = abs(fit_l - profile.lambda_minus) / abs(profile.lambda_minus)
    err_r = abs(fit_r - profile.lambda_plus) / abs(profile.lambda_plus)
    rates_ok = bool(np.isfinite(err_l) and np.isfinite(err_r)
                    and err_l <= 0.05 and err_r <= 0.05)

    # Derivative sups from the reduced ODE itself: dV/dxi = f(V) and
    # d2V/dxi2 = f'(V) f(V), maximised over a dense volume sample.
    v_dense = np.linspace(vp, vm, 20001)[1:-1]
    f = _rhs_unchecked(v_dense, shock, profile.alpha, profile.law)
    fp = _rhs_slope(v_dense, shock, profile.alpha, profile.law)
    pair = max(1.0, abs(shock.s))       # U derivatives are s times V's
    sup_d1 = float(np.max(np.abs(f))) * pair
    sup_d2 = float(np.max(np.abs(fp * f))) * pair

    du_ok = bool(np.all(-shock.s * f < 0.0))

    report = ProfilePropertyReport(
        bounds_ok=bounds_ok, monotone_ok=monotone_ok, du_negative_ok=du_ok,
        fitted_rate_left=fit_l, fitted_rate_right=fit_r,
        rate_rel_err_left=float(err_l), rate_rel_err_right=float(err_r),
        rates_ok=rates_ok,
        sup_d1=sup_d1, sup_d2=sup_d2,
        scaled_d1=sup_d1 * profile.alpha / shock.delta ** 2,
        scaled_d2=sup_d2 * profile.alpha ** 2 / shock.delta ** 2,
        all_ok=bounds_ok and monotone_ok and du_ok and rates_ok)
    return report
