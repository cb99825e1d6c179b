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
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator

from .errors import NumericalError, ValidationError
from .euler_waves import PressureLaw, ShockData, d_pressure, pressure

__all__ = [
    "ViscousProfile",
    "ProfilePropertyReport",
    "tail_rates",
    "compute_profile",
    "profile_residual",
    "rescaled_profile_eval",
    "verify_profile_properties",
]


def _chord_gap(V, shock, law):
    # g(V): difference between the chord through the end states and p,
    # written so both end states are exact roots.  The raw power law:
    # callers keep V inside [v_plus, v_minus].
    return (shock.s ** 2 * (V - shock.v_minus)
            + V ** -law.gamma - shock.v_minus ** -law.gamma)


def _rhs_unchecked(V, shock, alpha, law):
    # dV/dxi at volume V: negative strictly between the end states and
    # zero at them; callers keep V inside [v_plus, v_minus], alpha > 0
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


def _check_profile_args(alpha, tol, n):
    # compute_profile's shock-free domain; NaN fails every comparison
    if not 0.0 < alpha < math.inf:
        raise ValidationError("alpha must be positive and finite")
    if not 0.0 < tol < math.inf:
        raise ValidationError("tol must be positive and finite")
    if not (isinstance(n, numbers.Integral) and n >= 33):
        raise ValidationError("n must be an integer of at least 33")


def compute_profile(shock: ShockData, alpha: float, law: PressureLaw,
                    tol: float = 1e-10, n: int = 4001,
                    normalization: float | None = None) -> ViscousProfile:
    """Integrate the profile ODE and sample it on a uniform grid.

    The ODE runs from xi = 0 out to each side's tail cutoff, where the
    wave is within eps_tail of that end state; each side reaches as far
    as its own tail rate needs.  The n uniform samples cover
    [xi_cut_left, xi_cut_right], with a node at xi = 0 and exactly one
    node on or past each cutoff, where the linearised tail takes over.

    Parameters
    ----------
    shock : admissible backward shock fixing end states and speed.
    alpha : viscosity exponent, positive and finite.
    tol : integrator tolerance (relative and absolute), in (0, delta/4);
        also sets the tail cutoff eps_tail = max(tol, 1e-10*delta).
    n : number of grid samples, an integer of at least 33.
    normalization : volume at xi = 0; defaults to the midpoint of the
        end states.  The wave is unique up to translation, so this only
        fixes the phase.

    Raises NumericalError if the integration fails or the samples are
    not strictly monotone inside the end states (weak shocks).
    """
    _check_profile_args(alpha, tol, n)
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

    # forward to the right cutoff, then back to the left one
    sols = []
    for end, rate, way in ((vp, lam_p, 1.0), (vm, lam_m, -1.0)):
        def hit(xi, V, level=end + way * eps_tail):
            return V[0] - level
        hit.terminal = True
        bound = way * _tail_cut_bound(delta, eps_tail, abs(rate))
        sols.append(solve_ivp(rhs, [0.0, bound], [v0], method="DOP853",
                              rtol=tol, atol=tol, dense_output=True,
                              events=hit))
    if not all(sol.success for sol in sols):
        raise NumericalError("profile integration failed: "
                             + " / ".join(sol.message for sol in sols))

    # the outermost ODE sample on each side anchors that side's tail
    tails = tuple((float(sol.t[-1]), float(sol.y[0, -1]), rate)
                  for sol, rate in ((sols[1], lam_m), (sols[0], lam_p)))
    xi = _auto_grid(tails[0][0], tails[1][0], n)

    def ode(x):
        out = np.full(x.shape, v0)
        for sol, side in zip(sols, (x > 0.0, x < 0.0)):
            out[side] = sol.sol(x[side])[0]
        return out

    V = _join(xi, ode, shock, tails)
    if np.any(V <= vp) or np.any(V >= vm) or np.any(np.diff(V) >= 0.0):
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
        law=law, _interp=interp, _tails=tails)


def profile_residual(profile: ViscousProfile) -> float:
    """Max finite-difference residual of the traveling-wave system on the
    profile's own grid.

    Both equations are discretised at interior nodes with second-order
    stencils: centered first differences, and a compact flux form for the
    dissipative term so the whole residual refines at second order.
    """
    xi, V, U = profile.xi_grid, profile.V, profile.U
    s, alpha, law = profile.shock.s, profile.alpha, profile.law
    h = xi[1] - xi[0]
    dV = (V[2:] - V[:-2]) / (2.0 * h)
    dU = (U[2:] - U[:-2]) / (2.0 * h)
    r1 = -s * dV - dU
    dp = (pressure(V[2:], law) - pressure(V[:-2], law)) / (2.0 * h)
    half_v = 0.5 * (V[1:] + V[:-1])
    flux = (U[1:] - U[:-1]) / h / half_v ** (1.0 + alpha)
    r2 = -s * dU + dp - alpha * (flux[1:] - flux[:-1]) / h
    return float(max(np.max(np.abs(r1)), np.max(np.abs(r2))))


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
    V = profile.eval_V(_phase(profile, y, tau))
    return V, _first_integral(profile.shock, V)


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
