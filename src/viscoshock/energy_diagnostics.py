"""Perturbation, antiderivative and energy-functional diagnostics.

Solver snapshots are compared against the exact traveling wave; the
resulting deviation fields are integrated from the left boundary to give
their spatial antiderivatives, and discrete Sobolev norms of those
antiderivatives drive the stability bookkeeping: the peak squared H2
norm, the dissipation integrals accumulated in time, and the quadratic
remainder of the linearised momentum balance together with its pointwise
majorant.

Deviations of the volume live at cell centers and deviations of the
velocity at interfaces, matching the solver layout, so prepared initial
data gives exact zeros.  Antiderivatives live on the interface grid:
the volume deviation is cumulated with the midpoint rule (which makes
the total-mass telescoping identity exact) and the velocity deviation
with the trapezoidal rule.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .euler_waves import _check_positive_volume
from .lagrangian_solver import SolverState, _staggered_wave
from .shock_profile import ViscousProfile, _first_integral

__all__ = [
    "PerturbationFields",
    "EnergyReport",
    "perturbation",
    "energy_snapshot",
    "longtime_decay_check",
]


def diff1(f: np.ndarray, dy: float) -> np.ndarray:
    """First derivative: centered interior, one-sided 2nd order at ends."""
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * dy)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * dy)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * dy)
    return out


def diff2(f: np.ndarray, dy: float) -> np.ndarray:
    """Second derivative: 3-point interior stencil, one-sided at ends."""
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / dy ** 2
    out[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / dy ** 2
    out[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / dy ** 2
    return out


def l2_sq(f: np.ndarray, dy: float) -> float:
    """Squared L2 norm by the composite trapezoidal rule."""
    w = np.full(f.shape, dy)
    w[0] = w[-1] = 0.5 * dy
    return float(np.sum(w * f * f))


def _sobolev_sq(f, dy):
    # ((|f|^2, |f'|^2, |f''|^2), f''): the squared L2 norms of a
    # sampled function and of its finite-difference derivatives
    if f.size < 5:
        raise ValidationError("need at least 5 samples for Sobolev norms")
    d2 = diff2(f, dy)
    return (l2_sq(f, dy), l2_sq(diff1(f, dy), dy), l2_sq(d2, dy)), d2


@dataclass(frozen=True)
class PerturbationFields:
    """Deviations from the traveling wave and their antiderivatives.

    phi (volumes, cell centers) and psi (velocities, interfaces) are the
    raw deviations; phi_cum and psi_cum are their running integrals from
    the left boundary, both living on the interface grid and vanishing
    at the first node by construction.
    """

    phi: np.ndarray
    psi: np.ndarray
    phi_cum: np.ndarray
    psi_cum: np.ndarray
    dy: float


def _check_match(state: SolverState, profile: ViscousProfile):
    if state.alpha != profile.alpha or state.law.gamma != profile.law.gamma:
        raise ValidationError("state and profile parameters disagree")
    if state.shock is not None and state.shock != profile.shock:
        raise ValidationError("state and profile belong to different shocks")


def _against_wave(state, profile):
    """Deviation fields of a checked snapshot, from one evaluation of the
    wave on the merged half-cell grid.

    Returns (fields, xi at the interfaces, V at the interfaces).
    """
    _check_match(state, profile)
    _check_positive_volume(state.v)
    if not math.isfinite(state.tau):
        raise ValidationError("tau must be finite")
    grid = state.grid
    shock = profile.shock
    xi_face, v_ref, v_center = _staggered_wave(profile, grid, state.tau)
    phi = state.v - v_center
    psi = state.u - _first_integral(shock, v_ref)
    dy = grid.dy
    phi_cum = np.concatenate(([0.0], np.cumsum(phi) * dy))
    psi_cum = np.concatenate(([0.0],
                              np.cumsum(0.5 * (psi[1:] + psi[:-1])) * dy))
    fields = PerturbationFields(phi=phi, psi=psi, phi_cum=phi_cum,
                                psi_cum=psi_cum, dy=dy)
    return fields, xi_face, v_ref


def perturbation(state: SolverState, profile: ViscousProfile) -> PerturbationFields:
    """Deviation fields of a snapshot against the exact traveling wave.

    Raises ValidationError unless every volume is positive and finite and
    tau is finite.
    """
    return _against_wave(state, profile)[0]


def _remainder(state, fields, v_ref, du_ref):
    """Quadratic remainder of the linearised momentum balance on the
    interface grid, against its computable pointwise majorant
    phi**2 + |phi * psi_y| + |phi * dU_ref/dy|.

    Returns (sup of |remainder|, margin): margin is the largest value of
    |remainder| - majorant, positive wherever the bound with constant one
    fails, as it does in most rows (the Taylor term alone carries
    p''(v)/2).
    """
    # Volume deviation at the faces by averaging the center deviations,
    # so prepared data gives exact zeros rather than O(dy^2) residue.
    phi_c = fields.phi
    phi = np.empty(phi_c.size + 1)
    phi[1:-1] = 0.5 * (phi_c[1:] + phi_c[:-1])
    phi[0], phi[-1] = phi_c[0], phi_c[-1]
    v_face = v_ref + phi
    psi_y = diff1(fields.psi, fields.dy)

    # v_ref is the wave's; the averaged deviation can still take a face
    # past zero where the wave jumps by more than the state's volumes
    if not v_face.min() > 0.0:
        raise NumericalError(
            "remainder: a face volume, the wave plus the averaged "
            "deviation, is not positive")
    a, g = 1.0 + state.alpha, state.law.gamma
    # p = v**-g and p' = -g*v**(-g - 1), raw: both volumes are positive
    taylor = v_face ** -g - v_ref ** -g + g * v_ref ** (-g - 1.0) * phi
    visc_gap = v_face ** (-a) - v_ref ** (-a)
    values = -taylor + visc_gap * (psi_y + du_ref)

    majorant = phi ** 2 + np.abs(phi * psi_y) + np.abs(phi * du_ref)
    size = np.abs(values)
    return float(np.max(size)), float(np.max(size - majorant))


@dataclass
class EnergyReport:
    """Time series of the stability bookkeeping for one run.

    peak_h2_sq is the running supremum of the squared H2 norm of the
    antiderivative pair (the quantity the a-priori bookkeeping tracks);
    the diss_* accumulators integrate their nonnegative integrands in
    time with the trapezoidal rule and are therefore nondecreasing.
    """

    tau_series: list = field(default_factory=list)
    peak_h2_sq: list = field(default_factory=list)
    l2_sq_series: list = field(default_factory=list)
    h1_sq_series: list = field(default_factory=list)
    h2_sq_series: list = field(default_factory=list)
    diss_weighted: list = field(default_factory=list)
    diss_phi: list = field(default_factory=list)
    diss_psi: list = field(default_factory=list)
    grad_sq_series: list = field(default_factory=list)
    grad2_sq_series: list = field(default_factory=list)
    remainder_max: list = field(default_factory=list)
    remainder_margin: list = field(default_factory=list)
    _last_integrands: tuple | None = field(default=None, repr=False)


def energy_snapshot(state: SolverState, profile: ViscousProfile,
                    report: EnergyReport) -> EnergyReport:
    """Append one diagnostics row for the given snapshot.

    Rows must be appended in increasing tau; the dissipation accumulators
    advance by the trapezoidal rule between consecutive snapshots.  The
    state is checked as in perturbation.
    """
    if report.tau_series and state.tau < report.tau_series[-1]:
        raise ValidationError("snapshots must arrive in increasing tau")
    fields, xi_face, v_ref = _against_wave(state, profile)
    du_ref = -profile.shock.s * (profile.alpha
                                 * profile._slope(xi_face, v_ref))
    dy = fields.dy

    (phi0, phi1, phi2), _ = _sobolev_sq(fields.phi_cum, dy)
    (psi0, psi1, psi2), d2_psi = _sobolev_sq(fields.psi_cum, dy)
    l2 = phi0 + psi0
    h1 = l2 + phi1 + psi1
    h2 = h1 + phi2 + psi2

    w_weighted = float(np.sum(np.abs(du_ref) * fields.psi_cum ** 2) * dy)
    w_phi = phi1 + phi2
    w_psi = psi1 + psi2 + l2_sq(diff1(d2_psi, dy), dy)

    if report._last_integrands is None:
        acc_w = acc_p = acc_s = 0.0
    else:
        tau0, w0, p0, s0 = report._last_integrands
        half = 0.5 * (state.tau - tau0)
        acc_w = report.diss_weighted[-1] + half * (w0 + w_weighted)
        acc_p = report.diss_phi[-1] + half * (p0 + w_phi)
        acc_s = report.diss_psi[-1] + half * (s0 + w_psi)
    report._last_integrands = (state.tau, w_weighted, w_phi, w_psi)

    grad_sq = phi1 + psi1
    grad2_sq = phi2 + psi2

    rem_max, rem_margin = _remainder(state, fields, v_ref, du_ref)

    report.tau_series.append(state.tau)
    prev_peak = report.peak_h2_sq[-1] if report.peak_h2_sq else 0.0
    report.peak_h2_sq.append(max(prev_peak, h2))
    report.l2_sq_series.append(l2)
    report.h1_sq_series.append(h1)
    report.h2_sq_series.append(h2)
    report.diss_weighted.append(acc_w)
    report.diss_phi.append(acc_p)
    report.diss_psi.append(acc_s)
    report.grad_sq_series.append(grad_sq)
    report.grad2_sq_series.append(grad2_sq)
    report.remainder_max.append(rem_max)
    report.remainder_margin.append(rem_margin)
    return report


_FINAL_FRACTION = 0.1
_N_WINDOWS = 4


def longtime_decay_check(report: EnergyReport, tau_min: float) -> str:
    """Verdict on gradient decay: 'pass', 'fail' or 'inconclusive'.

    Requires the series to span at least tau_min, the final squared
    gradient norm to sit below a tenth of its maximum, the means over
    four post-peak windows to decrease monotonically, and the certified
    pointwise bound sqrt(||grad|| * ||grad2||) to shrink accordingly.
    An identically zero series passes trivially.
    """
    taus = np.asarray(report.tau_series, dtype=float)
    if taus.size < 3 or taus[-1] - taus[0] < tau_min:
        return "inconclusive"
    g = np.asarray(report.grad_sq_series, dtype=float)
    gmax = float(np.max(g))
    if gmax == 0.0:
        return "pass"
    if g[-1] > _FINAL_FRACTION * gmax:
        return "fail"
    tail = g[int(np.argmax(g)):]
    if tail.size >= 2 * _N_WINDOWS:
        means = [w.mean() for w in np.array_split(tail, _N_WINDOWS)]
        if any(b > a * (1.0 + 1e-9) for a, b in zip(means, means[1:])):
            return "fail"
    certified = np.sqrt(np.asarray(report.grad_sq_series)
                        * np.asarray(report.grad2_sq_series))
    cmax = float(np.max(certified))
    if cmax > 0.0 and certified[-1] > np.sqrt(_FINAL_FRACTION) * cmax:
        return "fail"
    return "pass"
