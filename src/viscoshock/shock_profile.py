"""Smooth traveling-wave profiles of the viscous system.

In the frame moving with an admissible backward shock the viscous system
reduces, after one integration in the traveling coordinate, to a scalar
first-order ODE for the specific volume,

    dV/dxi = f(V) = g(V) * V**(1+alpha) / (alpha*|s|),
    g(V)   = s**2*(V - v_minus) + p(V) - p(v_minus),

whose critical points are exactly the shock end states (g vanishes there
by the jump relations, and is negative in between because p is convex).
Velocity follows pointwise from the integrated mass equation,
U = u_minus - s*(V - v_minus).

The ODE is autonomous, so the wave is a quadrature, xi(V) = int dW/f(W)
(Gilbarg, Amer. J. Math. 73, 1951), taken from the normalisation point
out to a cutoff amplitude on each side and continued there with the
exact linearised exponential tails, rates

    lambda_pm = (s**2 + p'(v_pm)) * v_pm**(1+alpha) / (|s|*alpha).
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .euler_waves import (PressureLaw, ShockData, _pressure_gap, d_pressure,
                          pressure)

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
    # g(V) = s**2*(V - e) + p(V) - p(e) about the nearer end state e, the
    # pressure gap in expm1 form: raw powers cancel there for weak shocks
    e = np.where(V < 0.5 * (shock.v_minus + shock.v_plus), shock.v_plus,
                 shock.v_minus)
    return shock.s ** 2 * (V - e) + _pressure_gap(V, e, law.gamma)


def _rhs_unchecked(V, shock, alpha, law):
    # dV/dxi = f(V), for V in [v_plus, v_minus]: negative inside, 0 at ends
    return (_chord_gap(V, shock, law) * V ** (1.0 + alpha)
            / (alpha * abs(shock.s)))


def _rhs_slope(V, shock, alpha, law):
    # d/dV of the reduced right-hand side; used for curvature bounds.
    gp = shock.s ** 2 + d_pressure(V, law)
    return ((gp * V ** (1.0 + alpha)
             + _chord_gap(V, shock, law) * (1.0 + alpha) * V ** alpha)
            / (alpha * abs(shock.s)))


# The wave is about alpha wide in xi.  From alpha near 1e-103 down, its
# quadrature splines' cubics overflow a double (seen from 1e-103 for
# delta 4, from 1e-104 for delta 0.2); the floor keeps a margin of 1e3.
_ALPHA_FLOOR = 1e-100


def _check_alpha(alpha):
    # NaN fails every comparison
    if not 0.0 < alpha < math.inf:
        raise ValidationError("alpha must be positive and finite")
    if alpha < _ALPHA_FLOOR:
        raise ValidationError(
            f"alpha {alpha} is too small: below {_ALPHA_FLOOR:g} the wave, "
            "about alpha wide, is too narrow for double precision")


def tail_rates(shock: ShockData, alpha: float, law: PressureLaw):
    """Exact linearised decay rates (lambda_minus > 0, lambda_plus < 0).

    Raises ValidationError when alpha is so large for v_minus that
    lambda_minus, which grows as v_minus**(1+alpha), overflows, and when
    v_plus is so small for gamma that p'(v_plus), and so lambda_plus,
    overflows.  alpha must be positive, finite and at least 1e-100.
    """
    _check_alpha(alpha)

    def rate(v):
        v = np.float64(v)   # overflows to inf where a float would raise
        with np.errstate(over="ignore", invalid="ignore"):
            return float((shock.s ** 2 + d_pressure(v, law))
                         * v ** (1.0 + alpha) / (abs(shock.s) * alpha))

    lam_m = rate(shock.v_minus)
    if not math.isfinite(lam_m):
        raise ValidationError(
            f"alpha {alpha} is too large for v_minus {shock.v_minus}: "
            "the tail rate lambda_minus overflows")
    lam_p = rate(shock.v_plus)
    if not math.isfinite(lam_p):
        raise ValidationError(
            f"v_plus {shock.v_plus} is too small for gamma {law.gamma}: "
            "the tail rate lambda_plus overflows")
    return lam_m, lam_p


def _first_integral(shock, V):
    # velocity from the integrated mass equation
    return shock.u_minus - shock.s * (V - shock.v_minus)


def _beyond(xi, tails):
    # the two switch points: each cutoff belongs to its tail
    return xi <= tails[0][0], xi >= tails[1][0]


def _join(xi, sides, v0, shock, tails):
    """The wave at the points xi: V = end + (v0 - end)*e**a from the
    quadrature spline a(xi) of either side strictly between the cutoffs,
    the exact linearised tail on and beyond each; tails holds (xi_cut,
    V at xi_cut, decay rate) for either side."""
    out = np.where(xi == 0.0, v0, np.nan)   # a NaN xi reads NaN
    for spline, (cut, v_cut, rate), end, side, beyond in zip(
            sides, tails, (shock.v_minus, shock.v_plus), (xi < 0.0, xi > 0.0),
            _beyond(xi, tails)):
        core = side & ~beyond
        out[core] = end + (v0 - end) * np.exp(spline(xi[core]))
        out[beyond] = end + (v_cut - end) * np.exp(rate * (xi[beyond] - cut))
    return out


@dataclass
class ViscousProfile:
    """Traveling wave by quadrature, with analytic tail continuation.

    Strictly between the cutoffs xi_cut_left and xi_cut_right the wave is
    read from the quadrature's spline on either side of xi = 0; on and
    beyond each cutoff it is the exact exponential tail through the
    cutoff value.  xi_grid holds the traveling coordinate (position minus
    shock displacement in the unscaled frame) of the output samples, and
    eval_V(xi_grid) equals V.  Instances are immutable by convention; the
    sample arrays are marked read-only.
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
    _sides: tuple = field(repr=False)
    _tails: tuple = field(repr=False)

    def eval_V(self, xi):
        """Volume at traveling coordinate(s) xi, tails included."""
        xi = np.asarray(xi, dtype=float)
        out = _join(np.atleast_1d(xi), self._sides, self.normalization,
                    self.shock, self._tails)
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


class _Hermite:
    """Piecewise cubic Hermite through knots x, values y and slopes d,
    extended by the end cubics.  Its coefficients and its evaluation order
    are those of scipy's CubicHermiteSpline and PPoly, so it reads the
    same bits, and the package need not import scipy.interpolate."""

    def __init__(self, x, y, d):
        if not all(np.all(np.isfinite(v)) for v in (x, y, d)):
            raise NumericalError("wave quadrature gave non-finite knots")
        dx = np.diff(x)
        if not np.all(dx > 0.0):
            raise NumericalError(
                "wave quadrature knots are not strictly increasing")
        slope = np.diff(y) / dx
        t = (d[:-1] + d[1:] - 2.0 * slope) / dx
        self.x = x
        # searchsorted over the inner knots is searchsorted(x) - 1 clipped
        # to the intervals [0, m - 2]: x[k] <= q < x[k + 1] inside
        self._inner = x[1:-1]
        self._c = (t / dx, (slope - d[:-1]) / dx - t, d[:-1], y[:-1], x[:-1])

    def __call__(self, q):
        k = np.searchsorted(self._inner, q, side="right")
        c0, c1, c2, c3, xk = (c.take(k) for c in self._c)
        s = q - xk
        # PPoly's order, which fixes the rounding: c3 + c2*s, then
        # + c1*(s*s), then + c0*((s*s)*s); in place, sparing temporaries
        r = c2 * s
        r += c3
        s2 = s * s
        c1 *= s2
        r += c1
        s2 *= s
        s2 *= c0
        r += s2
        return r


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)   # 8-point
_GL_NODES, _GL_WEIGHTS = 0.5 * (_GL_NODES + 1.0), 0.5 * _GL_WEIGHTS  # [0, 1]
# panels per unit of log amplitude, times (amplitude/error)**(1/4): the
# cubic Hermite step's error falls as the fourth power of the panel width
_PANELS = 0.35


def _xi_knots(dxi_da, a):
    """xi at the uniform knots a, from 0 at a[0]: the Gauss-Legendre rule
    on every panel, taken one node at a time over all panels, so only
    vectors of the panel count are ever held."""
    h = a[0] - a[1]
    step = np.zeros(len(a) - 1)
    for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
        f = dxi_da(a[:-1] - h * node)
        f *= weight
        step += f
    step *= h
    return np.concatenate(([0.0], np.cumsum(step)))


def _wave_side(shock, alpha, law, v0, end, eps_tail, target):
    """One side as a cubic Hermite spline a(xi), V = end + (v0 - end)*e**a,
    a from 0 at xi = 0 to log(eps_tail/|v0 - end|) at the outer knot, the
    cutoff; xi(a) by Gauss-Legendre panels, added until the spline on every
    other knot, read at the knots it skips, is within 8*target in V."""
    amp0 = v0 - end
    a_cut = math.log(eps_tail / abs(amp0))
    scale, power = alpha * abs(shock.s), end ** (1.0 + alpha)

    def dxi_da(a):
        # g(W) = (W - end)*(s**2 + p[W, end]): dxi/da is smooth, tends to
        # 1/|lambda|; the chord slope's expm1 form does not cancel near end
        t = amp0 / end * np.exp(a)          # W/end - 1
        log_w = np.log1p(t)
        chord = end ** (-law.gamma - 1.0) * np.expm1(-law.gamma * log_w) / t
        # divided in turn, so nothing underflows that 1/|lambda| does not
        return (scale / np.abs(shock.s ** 2 + chord) / power
                * np.exp(-(1.0 + alpha) * log_w))

    m = 2 * math.ceil(_PANELS / 2 * -a_cut * (abs(amp0) / target) ** 0.25)
    for _ in range(8):
        a = np.linspace(0.0, a_cut, max(m, 16) + 1)
        x = _xi_knots(dxi_da, a)
        slope = -1.0 / dxi_da(a)
        half = _Hermite(x[::2], a[::2], slope[::2])
        err = np.max(np.exp(a[1::2]) * np.abs(half(x[1::2]) - a[1::2]))
        err *= abs(amp0) / 8.0   # the full spline: ~1/16 of this, so 2x spare
        if err <= target:
            if amp0 < 0.0:   # the left side, xi < 0: knots in increasing xi
                x, a, slope = -x[::-1], a[::-1], -slope[::-1]
            return _Hermite(x, a, slope)
        if not err < math.inf:   # a wave too narrow for double precision
            break
        m = 2 * math.ceil(0.6 * len(a) * (err / target) ** 0.25)
    raise NumericalError(f"wave quadrature failed to reach tol ({m} panels)")


def _auto_grid(cut_l, cut_r, n):
    # n uniform nodes k*h with one at 0.  A hair under n - 2 steps span
    # [cut_l, cut_r]: each end node lies past its cutoff, and the node
    # before it no more than 1e-6*h past.
    h = (cut_r - cut_l) / (n - 2.0 - 1e-6)
    k_left = math.floor(-cut_l / h) + 1
    return np.arange(-k_left, n - k_left) * h


def _check_profile_args(alpha, tol, n, delta):
    # compute_profile's domain for a shock of strength delta; NaN fails
    # every comparison
    _check_alpha(alpha)
    if not 0.0 < tol < math.inf:
        raise ValidationError("tol must be positive and finite")
    if not (isinstance(n, numbers.Integral) and n >= 33):
        raise ValidationError("n must be an integer of at least 33")
    if not tol < 0.25 * delta:   # else the tail cutoffs swallow the jump
        raise ValidationError(
            f"tol must be below delta/4 = {0.25 * delta:.6g}, "
            "delta = v_minus - v_plus")


def compute_profile(shock: ShockData, alpha: float, law: PressureLaw,
                    tol: float = 1e-10, n: int = 4001,
                    normalization: float | None = None) -> ViscousProfile:
    """Build the wave by quadrature and sample it on a uniform grid.

    On each side of xi = 0 the wave's inverse is the quadrature
    xi(V) = int dW/f(W), taken out to the tail cutoff, where the wave is
    within eps_tail of that end state.  The n uniform output samples
    cover [xi_cut_left, xi_cut_right], with a node at xi = 0 and exactly
    one node on or past each cutoff, where the linearised tail takes over.

    Parameters
    ----------
    shock : admissible backward shock fixing end states and speed.
    alpha : viscosity exponent, positive and finite.
    tol : in (0, delta/4); eval_V strictly between the cutoffs is within
        tol*v_minus of the exact wave (tol under 1e-14 counts as 1e-14).
        Sets eps_tail = max(min(tol, 1e-6*delta), 1e-10*delta).
    n : number of output samples on xi_grid, an integer of at least 33;
        it sets the sampling only, not the accuracy of eval_V.
    normalization : volume at xi = 0; defaults to the midpoint of the
        end states.  The wave is unique up to translation, so this only
        fixes the phase.

    Raises NumericalError if the quadrature fails or the samples are not
    strictly monotone inside the end states (some strong shocks).
    """
    _check_profile_args(alpha, tol, n, shock.delta)
    vp, vm, delta = shock.v_plus, shock.v_minus, shock.delta
    eps_tail = max(min(tol, 1e-6 * delta), 1e-10 * delta)
    v0 = 0.5 * (vm + vp) if normalization is None else float(normalization)
    if not (vp + 2.0 * eps_tail < v0 < vm - 2.0 * eps_tail):
        raise ValidationError("normalization must lie inside the end states")

    lam_m, lam_p = tail_rates(shock, alpha, law)
    target = max(tol, 1e-14) * vm   # under 1e-14 the estimate reads rounding
    sides = tuple(_wave_side(shock, alpha, law, v0, end, eps_tail, target)
                  for end in (vm, vp))
    # each side's outermost knot is its cutoff, V = end -+ eps_tail
    tails = ((sides[0].x[0], vm - eps_tail, lam_m),
             (sides[1].x[-1], vp + eps_tail, lam_p))
    xi = _auto_grid(tails[0][0], tails[1][0], n)
    V = _join(xi, sides, v0, shock, tails)
    if np.any(V <= vp) or np.any(V >= vm) or np.any(np.diff(V) >= 0.0):
        raise NumericalError("profile samples violate strict monotone bounds")

    U = _first_integral(shock, V)
    for arr in (xi, V, U):
        arr.setflags(write=False)
    return ViscousProfile(
        shock=shock, alpha=alpha, xi_grid=xi, V=V, U=U,
        lambda_minus=lam_m, lambda_plus=lam_p, normalization=v0,
        eps_tail=eps_tail, tol=tol,
        xi_cut_left=tails[0][0], xi_cut_right=tails[1][0],
        law=law, _sides=sides, _tails=tails)


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
    mask = (side * xi >= h_probe) & (amp > lo) & (amp < hi)
    if np.count_nonzero(mask) < 8:
        return float("nan")
    return float(np.polyfit(xi[mask], np.log(amp[mask]), 1)[0])


def verify_profile_properties(profile: ViscousProfile,
                              h_probe: float) -> ProfilePropertyReport:
    """Check bounds, tail rates and derivative scalings of a profile.

    Tail rates are fitted on log-amplitude over the region |xi| >= h_probe
    restricted to the clean exponential window (amplitudes between
    1e3*eps_tail and 3% of the smaller of delta and that side's end
    state); the fit must match the analytic rates within 5% for rates_ok.
    Derivative sups are taken along the exact ODE flow (dense in V), not
    from grid differences.
    """
    shock = profile.shock
    vp, vm = shock.v_plus, shock.v_minus
    V, U, xi = profile.V, profile.U, profile.xi_grid

    bounds_ok = bool(np.all(V > vp) and np.all(V < vm)
                     and np.all(U > shock.u_plus) and np.all(U < shock.u_minus))
    monotone_ok = bool(np.all(np.diff(V) < 0.0) and np.all(np.diff(U) < 0.0))

    # past 3% of the jump, or of v_plus on the right of a strong shock,
    # the wave bends away from its linearised tail; delta < v_minus, so
    # the left window needs no cap
    lo = 1e3 * profile.eps_tail
    fit_l = _fit_tail_rate(xi, np.abs(V - vm), h_probe, lo,
                           0.03 * shock.delta, -1.0)
    fit_r = _fit_tail_rate(xi, np.abs(V - vp), h_probe, lo,
                           0.03 * min(shock.delta, vp), 1.0)
    err_l = abs(fit_l - profile.lambda_minus) / abs(profile.lambda_minus)
    err_r = abs(fit_r - profile.lambda_plus) / abs(profile.lambda_plus)
    rates_ok = bool(err_l <= 0.05 and err_r <= 0.05)   # False for NaN

    # Derivative sups from the reduced ODE itself: dV/dxi = f(V) and
    # d2V/dxi2 = f'(V) f(V), maximised over a dense volume sample.
    v_dense = np.linspace(vp, vm, 20001)[1:-1]
    f = _rhs_unchecked(v_dense, shock, profile.alpha, profile.law)
    fp = _rhs_slope(v_dense, shock, profile.alpha, profile.law)
    pair = max(1.0, abs(shock.s))       # U derivatives are s times V's
    sup_d1 = float(np.max(np.abs(f))) * pair
    sup_d2 = float(np.max(np.abs(fp * f))) * pair

    du_ok = bool(np.all(-shock.s * f < 0.0))

    return ProfilePropertyReport(
        bounds_ok=bounds_ok, monotone_ok=monotone_ok, du_negative_ok=du_ok,
        fitted_rate_left=fit_l, fitted_rate_right=fit_r,
        rate_rel_err_left=float(err_l), rate_rel_err_right=float(err_r),
        rates_ok=rates_ok,
        sup_d1=sup_d1, sup_d2=sup_d2,
        scaled_d1=sup_d1 * profile.alpha / shock.delta ** 2,
        scaled_d2=sup_d2 * profile.alpha ** 2 / shock.delta ** 2,
        all_ok=bounds_ok and monotone_ok and du_ok and rates_ok)
