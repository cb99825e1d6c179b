"""Inviscid backward (first-family) shocks for 1-D Lagrangian gas dynamics.

State variables are specific volume v and velocity u.  The pressure law is
the convex barotropic power law p(v) = v**(-gamma); jump states are linked
by the Rankine-Hugoniot relations and admissibility is the Lax criterion
(velocity drop across the jump, characteristic speeds straddling the shock
speed).  Only backward shocks (negative speed, compression from left to
right) are handled here.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "PressureLaw",
    "ShockData",
    "LaxReport",
    "pressure",
    "d_pressure",
    "dd_pressure",
    "lambda1",
    "build_shock",
    "rh_residuals",
    "check_lax",
    "riemann_shock_eval",
]


@dataclass(frozen=True)
class PressureLaw:
    """Barotropic power law p(v) = v**(-gamma), gamma >= 1.

    Decreasing and strictly convex in v for every gamma >= 1, which is all
    the wave construction below relies on.
    """

    gamma: float

    def __post_init__(self):
        if not np.isfinite(self.gamma) or self.gamma < 1.0:
            raise ValidationError(f"gamma must be finite and >= 1, got {self.gamma}")


def _check_positive_volume(v):
    v = np.asarray(v, dtype=float)
    # min and max propagate NaN, which fails both comparisons
    if v.size and not (v.min() > 0.0 and v.max() < np.inf):
        raise ValidationError("specific volume must be positive and finite")
    return v


def pressure(v, law: PressureLaw):
    """p(v) = v**(-gamma).  Accepts scalars or arrays, v > 0."""
    v = _check_positive_volume(v)
    return v ** (-law.gamma)


def d_pressure(v, law: PressureLaw):
    """p'(v) = -gamma * v**(-gamma-1), strictly negative."""
    v = _check_positive_volume(v)
    return -law.gamma * v ** (-law.gamma - 1.0)


def dd_pressure(v, law: PressureLaw):
    """p''(v) = gamma*(gamma+1) * v**(-gamma-2), strictly positive."""
    v = _check_positive_volume(v)
    return law.gamma * (law.gamma + 1.0) * v ** (-law.gamma - 2.0)


def lambda1(v, law: PressureLaw):
    """First characteristic speed -sqrt(-p'(v)) of the inviscid system."""
    return -np.sqrt(-d_pressure(v, law))


@dataclass(frozen=True)
class ShockData:
    """End states, speed and strength of an admissible backward shock.

    Invariants: v_minus > v_plus > 0, s < 0, u_plus < u_minus and
    delta == v_minus - v_plus.  Instances should be built through
    ``build_shock`` which guarantees the jump relations close.
    """

    v_minus: float
    v_plus: float
    u_minus: float
    u_plus: float
    s: float
    delta: float


def build_shock(v_minus: float, v_plus: float, u_minus: float,
                law: PressureLaw) -> ShockData:
    """Construct the backward shock joining (v_minus, u_minus) to v_plus.

    The speed is the negative root of the jump relation
    s**2 = (p(v_plus) - p(v_minus)) / (v_minus - v_plus) and the downstream
    velocity follows from u_plus = u_minus - s*(v_plus - v_minus).

    Raises ValidationError unless finite with v_minus > v_plus > 0.
    """
    if not np.isfinite(u_minus):
        raise ValidationError("u_minus must be finite")
    if not 0.0 < v_plus < np.inf:
        raise ValidationError("v_plus must be positive and finite")
    if not v_plus < v_minus < np.inf:
        raise ValidationError(
            f"v_minus must be finite and exceed v_plus, got v_minus={v_minus}, "
            f"v_plus={v_plus}: not a 1-shock, which requires v_minus > v_plus")

    p_m = pressure(v_minus, law)
    p_p = pressure(v_plus, law)
    s = -np.sqrt((p_p - p_m) / (v_minus - v_plus))
    u_plus = u_minus - s * (v_plus - v_minus)
    return ShockData(v_minus=float(v_minus), v_plus=float(v_plus),
                     u_minus=float(u_minus), u_plus=float(u_plus),
                     s=float(s), delta=float(v_minus - v_plus))


def rh_residuals(shock: ShockData, law: PressureLaw):
    """Relative residuals of the two jump relations.

    Both are normalised by max(|s*delta|, |p jump|) so a correctly built
    shock returns values at rounding level (<= 1e-12).
    """
    dv = shock.v_plus - shock.v_minus
    du = shock.u_plus - shock.u_minus
    dp = pressure(shock.v_plus, law) - pressure(shock.v_minus, law)
    r1 = -shock.s * dv - du
    r2 = -shock.s * du + dp
    scale = max(abs(shock.s * shock.delta), abs(dp))
    return float(r1 / scale), float(r2 / scale)


@dataclass(frozen=True)
class LaxReport:
    """Numbers behind the admissibility verdict."""

    lambda_minus: float   # first characteristic speed at the left state
    lambda_plus: float    # first characteristic speed at the right state
    s: float
    velocity_drop: bool   # u_plus < u_minus
    speed_ordering: bool  # lambda_plus < s < lambda_minus
    satisfied: bool


def check_lax(shock: ShockData, law: PressureLaw) -> LaxReport:
    """Admissibility check: velocity drop plus characteristic ordering."""
    lam_m = float(lambda1(shock.v_minus, law))
    lam_p = float(lambda1(shock.v_plus, law))
    drop = shock.u_plus < shock.u_minus
    ordering = lam_p < shock.s < lam_m
    return LaxReport(lambda_minus=lam_m, lambda_plus=lam_p, s=shock.s,
                     velocity_drop=drop, speed_ordering=ordering,
                     satisfied=drop and ordering)


def riemann_shock_eval(shock: ShockData, x, t: float):
    """Piecewise-constant shock solution at position(s) x and time t >= 0.

    Left state for x < s*t, right state otherwise; points exactly on the
    ray x == s*t deterministically take the right state.
    """
    if t < 0.0:
        raise ValidationError("time must be nonnegative")
    x = np.asarray(x, dtype=float)
    left = x < shock.s * t
    v = np.where(left, shock.v_minus, shock.v_plus)
    u = np.where(left, shock.u_minus, shock.u_plus)
    if x.ndim == 0:
        return float(v), float(u)
    return v, u
