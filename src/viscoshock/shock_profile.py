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
(Gilbarg, Amer. J. Math. 73, 1951), taken from the midpoint of the end
states, at xi = 0, out to a cutoff amplitude on each side and continued
there with the exact linearised exponential tails, rates

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
    # d/dV of the reduced right-hand side: curvature bounds, tail rates
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
    """Exact linearised decay rates (lambda_minus > 0, lambda_plus < 0),
    each the slope f'(V) of the reduced right-hand side at its end state.

    Raises ValidationError when alpha is so large for v_minus that
    lambda_minus, which grows as v_minus**(1+alpha), overflows, and when
    v_plus is so small for gamma that p'(v_plus), and so lambda_plus,
    overflows.  alpha must be positive, finite and at least 1e-100.
    """
    _check_alpha(alpha)

    def rate(v):
        # f'(v) at an end state, where g vanishes; a float64 overflows to
        # inf where a float would raise
        with np.errstate(over="ignore", invalid="ignore"):
            return float(_rhs_slope(np.float64(v), shock, alpha, law))

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


@dataclass
class ViscousProfile:
    """Traveling wave by quadrature, with analytic tail continuation.

    Strictly between the cutoffs xi_cut_left and xi_cut_right the wave is
    read from the quadrature's spline on either side of xi = 0, where V
    is the midpoint of the end states; on and beyond each cutoff it is
    the exact exponential tail, at rate lambda_minus or lambda_plus,
    through the cutoff value v_minus - eps_tail or v_plus + eps_tail.
    xi_grid holds the traveling coordinate (position minus shock
    displacement in the unscaled frame) of the output samples, n uniform
    nodes from xi_cut_left to xi_cut_right, and eval_V(xi_grid) equals V.
    Instances are immutable by convention; the sample arrays are marked
    read-only.
    """

    shock: ShockData
    alpha: float
    xi_grid: np.ndarray
    V: np.ndarray
    U: np.ndarray
    lambda_minus: float
    lambda_plus: float
    eps_tail: float
    tol: float
    xi_cut_left: float
    xi_cut_right: float
    law: PressureLaw = field(repr=False)
    _sides: tuple = field(repr=False)

    def eval_V(self, xi):
        """Volume at traveling coordinate(s) xi, tails included."""
        xi = np.asarray(xi, dtype=float)
        x = np.atleast_1d(xi)
        vm, vp, eps = self.shock.v_minus, self.shock.v_plus, self.eps_tail
        v0 = 0.5 * (vm + vp)
        out = np.where(x == 0.0, v0, np.nan)   # a NaN xi reads NaN
        # end + (v0 - end)*e**a from either side's spline a(xi) strictly
        # inside, the tail through the cutoff value on and beyond the cutoff
        for spline, end, v_cut, cut, rate, side, far in zip(
                self._sides, (vm, vp), (vm - eps, vp + eps),
                (self.xi_cut_left, self.xi_cut_right),
                (self.lambda_minus, self.lambda_plus), (x < 0.0, x > 0.0),
                self._beyond(x)):
            core = side & ~far
            out[core] = end + (v0 - end) * np.exp(spline(x[core]))
            out[far] = end + (v_cut - end) * np.exp(rate * (x[far] - cut))
        return float(out[0]) if xi.ndim == 0 else out

    def _beyond(self, xi):
        # the two switch points: each cutoff belongs to its tail
        return xi <= self.xi_cut_left, xi >= self.xi_cut_right

    def eval_dV(self, xi):
        """Slope dV/dxi, using the tail rates on and beyond the cutoffs."""
        xi = np.asarray(xi, dtype=float)
        out = self._slope(np.atleast_1d(xi), np.atleast_1d(self.eval_V(xi)))
        return float(out[0]) if xi.ndim == 0 else out

    def _slope(self, xi, V):
        # dV/dxi from V = eval_V(xi), so a caller that already holds the
        # volumes does not evaluate the wave a second time
        left, right = self._beyond(xi)
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


def _check_profile_args(alpha, tol, n, shock):
    # compute_profile's domain for the shock; NaN fails every comparison
    _check_alpha(alpha)
    if not 0.0 < tol < math.inf:
        raise ValidationError("tol must be positive and finite")
    if not (isinstance(n, numbers.Integral) and n >= 33):
        raise ValidationError("n must be an integer of at least 33")
    limit = 0.25 * shock.delta / shock.v_minus
    if not tol < limit:   # the error bound tol*v_minus below delta/4
        raise ValidationError(
            f"tol must be below delta/(4*v_minus) = {limit:.6g}, "
            "delta = v_minus - v_plus")


def compute_profile(shock: ShockData, alpha: float, law: PressureLaw,
                    tol: float = 1e-10, n: int = 4001) -> ViscousProfile:
    """Build the wave by quadrature and sample it on a uniform grid.

    The wave's phase puts the midpoint of the end states at xi = 0; on
    each side the wave's inverse is the quadrature xi(V) = int dW/f(W),
    taken out to the tail cutoff, where the wave is within eps_tail of
    that end state.  The n uniform output samples span
    [xi_cut_left, xi_cut_right] exactly, so the end samples are
    v_minus - eps_tail and v_plus + eps_tail.

    Parameters
    ----------
    shock : admissible backward shock fixing end states and speed.
    alpha : viscosity exponent, positive and finite.
    tol : in (0, delta/(4*v_minus)); eval_V strictly between the cutoffs
        is within tol*v_minus of the exact wave (tol under 1e-14 counts as
        1e-14).  Sets eps_tail = max(min(tol*v_plus, 1e-6*delta),
        1e-10*delta), which scales with the volumes.
    n : number of output samples on xi_grid, an integer of at least 33;
        it sets the sampling only, not the accuracy of eval_V.  Samples
        are not checked: a very weak shock's tie near an end state.

    Raises NumericalError if the wave quadrature fails.
    """
    _check_profile_args(alpha, tol, n, shock)
    vp, vm, delta = shock.v_plus, shock.v_minus, shock.delta
    eps_tail = max(min(tol * vp, 1e-6 * delta), 1e-10 * delta)
    v0 = 0.5 * (vm + vp)

    lam_m, lam_p = tail_rates(shock, alpha, law)
    target = max(tol, 1e-14) * vm   # under 1e-14 the estimate reads rounding
    sides = tuple(_wave_side(shock, alpha, law, v0, end, eps_tail, target)
                  for end in (vm, vp))
    # each side's outermost knot is its cutoff, V = end -+ eps_tail
    cuts = sides[0].x[0], sides[1].x[-1]
    xi = np.linspace(*cuts, n)
    wave = ViscousProfile(
        shock=shock, alpha=alpha, xi_grid=xi, V=None, U=None,
        lambda_minus=lam_m, lambda_plus=lam_p, eps_tail=eps_tail, tol=tol,
        xi_cut_left=cuts[0], xi_cut_right=cuts[1], law=law, _sides=sides)
    wave.V = wave.eval_V(xi)
    wave.U = _first_integral(shock, wave.V)
    for arr in (xi, wave.V, wave.U):
        arr.setflags(write=False)
    return wave


def _dense_volumes(shock, n):
    # n - 2 volumes strictly between the end states, for the sups of the
    # reduced ODE: they depend on the shock only, and scale with it
    return np.linspace(shock.v_plus, shock.v_minus, n)[1:-1]


def profile_residual(profile: ViscousProfile) -> float:
    """Max finite-difference residual of the traveling-wave system on the
    profile's own grid, each equation relative to its own scale.

    Both equations are discretised at interior nodes with second-order
    stencils: centered first differences, and a compact flux form for the
    dissipative term so the whole residual refines at second order.  The
    mass residual is divided by |s|*max|V'| and the momentum residual by
    s**2*max|V'|, with max|V'| the largest |f(V)| over a fixed sample of
    the shock's volumes, not over the profile's samples; the larger
    quotient is returned.  So its scale does not depend on n, and it is
    invariant under the volume scaling v -> lambda*v.
    """
    xi, V, U = profile.xi_grid, profile.V, profile.U
    shock, alpha, law = profile.shock, profile.alpha, profile.law
    s = shock.s
    # 1,023 volumes put max|V'| within 3e-6 of its sup, at a 20th of the
    # cost of verify_profile_properties' sample
    d1 = np.max(np.abs(_rhs_unchecked(_dense_volumes(shock, 1025), shock,
                                      alpha, law)))
    h = xi[1] - xi[0]
    dV = (V[2:] - V[:-2]) / (2.0 * h)
    dU = (U[2:] - U[:-2]) / (2.0 * h)
    r1 = -s * dV - dU
    dp = (pressure(V[2:], law) - pressure(V[:-2], law)) / (2.0 * h)
    half_v = 0.5 * (V[1:] + V[:-1])
    flux = (U[1:] - U[:-1]) / h / half_v ** (1.0 + alpha)
    r2 = -s * dU + dp - alpha * (flux[1:] - flux[:-1]) / h
    return float(max(np.max(np.abs(r1)) / (abs(s) * d1),
                     np.max(np.abs(r2)) / (s * s * d1)))


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


def _fit_tail_rate(profile, k, end, h_probe, hi):
    # side k (0 left, 1 right) at its quadrature knots and the samples
    xi = np.concatenate((profile._sides[k].x, profile.xi_grid))
    amp = np.abs(profile.eval_V(xi) - end)
    lo = 1e3 * profile.eps_tail
    mask = ((2 * k - 1) * xi >= h_probe) & (amp > lo) & (amp < hi)
    if np.count_nonzero(mask) < 8:
        return float("nan")
    return float(np.polyfit(xi[mask], np.log(amp[mask]), 1)[0])


def verify_profile_properties(profile: ViscousProfile,
                              h_probe: float) -> ProfilePropertyReport:
    """Check bounds, tail rates and derivative scalings of a profile.

    Bounds and monotonicity are the output samples'.  Tail rates are
    fitted on log-amplitude at that side's quadrature knots and the
    samples, over |xi| >= h_probe restricted to the clean exponential
    window (amplitudes between 1e3*eps_tail and 3% of the smaller of
    delta and that side's end state), and must match the analytic rates
    within 5% for rates_ok.  Derivative sups are taken along the exact
    ODE flow (dense in V), not from grid differences.  h_probe must be
    finite and >= 0.
    """
    if not 0.0 <= h_probe < math.inf:
        raise ValidationError("h_probe must be finite and >= 0")
    shock = profile.shock
    vp, vm = shock.v_plus, shock.v_minus
    V, U = profile.V, profile.U

    bounds_ok = bool(np.all(V > vp) and np.all(V < vm)
                     and np.all(U > shock.u_plus) and np.all(U < shock.u_minus))
    monotone_ok = bool(np.all(np.diff(V) < 0.0) and np.all(np.diff(U) < 0.0))

    # past 3% of the jump, or of v_plus on the right of a strong shock,
    # the wave bends away from its linearised tail; delta < v_minus, so
    # the left window needs no cap
    hi = 0.03 * shock.delta
    fit_l = _fit_tail_rate(profile, 0, vm, h_probe, hi)
    fit_r = _fit_tail_rate(profile, 1, vp, h_probe, min(hi, 0.03 * vp))
    err_l = abs(fit_l - profile.lambda_minus) / abs(profile.lambda_minus)
    err_r = abs(fit_r - profile.lambda_plus) / abs(profile.lambda_plus)
    rates_ok = bool(err_l <= 0.05 and err_r <= 0.05)   # False for NaN

    # Derivative sups from the reduced ODE itself: dV/dxi = f(V) and
    # d2V/dxi2 = f'(V) f(V), maximised over a dense volume sample.
    v_dense = _dense_volumes(shock, 20001)
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
