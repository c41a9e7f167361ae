"""Asymptotic extremes of codebook selection under linear feedback scaling.

With feedback depth R = r n over n dimensions, the smallest and largest
selected quadratic forms converge almost surely:

    c_min -> x_r_minus / beta,      c_max -> x_r_plus / beta,

where x_r_minus in (lambda_t_minus, 1) and x_r_plus in (1, lambda_plus) are
the unique levels at which the t = 0 rate equals r log 2.  Both admit
explicit formulas: a fixed-point branch x e^(1 - x) = 2^(-beta r) when the
optimal tilt is interior, and an explicit edge branch once r crosses the
threshold where the tilt saturates at an interval endpoint.
"""

from __future__ import annotations

import dataclasses
import math

from ._brent import brentq
from .ratefn import ConsistencyError, RateContext, _edge_log_moment, rate_zero
from .spectra import MpLaw, mp_law

__all__ = [
    "AsymptoticResult",
    "thresholds",
    "solve_x_minus",
    "solve_x_plus",
    "solve_x_by_rate",
    "asymptotic_limits",
    "throughput",
]

_LN2 = math.log(2.0)


@dataclasses.dataclass(frozen=True)
class AsymptoticResult:
    """Limits for one (beta, r) pair; branch tags record the formula used."""

    beta: float
    r: float
    x_minus: float
    x_plus: float
    c_min_limit: float
    c_max_limit: float
    r_min: float | None
    r_max: float
    branch_minus: str
    branch_plus: str


def _check_beta_r(beta: float, r: float) -> None:
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError(f"beta must be finite and positive, got {beta!r}")
    if not (math.isfinite(r) and r >= 0.0):
        raise ValueError(f"r must be finite and >= 0, got {r!r}")


def thresholds(beta: float) -> tuple[float | None, float]:
    """Branch-switch rates (r_min, r_max).

    r_min exists only for beta < 1 (the lower tilt can saturate only when
    the continuous edge is positive); r_max exists for every beta.
    """
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError(f"beta must be finite and positive, got {beta!r}")
    root = math.sqrt(beta)
    # One expression on side s; log1p(-sqrt(beta)) is a domain error for beta >= 1.
    r_min, r_max = (
        (s * root - math.log1p(s * root)) / (beta * _LN2) if s > 0.0 or beta < 1.0 else None
        for s in (-1.0, 1.0)
    )
    return r_min, r_max


def _side(law: MpLaw, side: str) -> tuple[float, float]:
    """Side sign s (-1 for 'minus', +1 for 'plus') and the support edge there."""
    return (-1.0, law.lambda_t_minus) if side == "minus" else (1.0, law.lambda_plus)


def _fixed_point(beta: float, r: float, side: str) -> float:
    """Root of x e^(1 - x) = 2^(-beta r), solved in log space.

    g(u) = u + 1 - e^u + beta r log 2 with u = log x is strictly monotone on
    each side of u = 0, so the bracket never degenerates.
    """
    shift = beta * r * _LN2

    def g(u: float) -> float:
        return u + 1.0 - math.exp(u) + shift

    if side == "minus":
        lo = -shift - 2.0  # g(lo) = -1 - exp(lo): a sign margin rounding cannot flip
        hi = 0.0
    else:
        lo = 0.0
        hi = 2.0 * math.log1p(math.sqrt(beta))  # u at the upper support edge
    u = brentq(g, lo, hi, xtol=1e-14, rtol=8.9e-16)
    return math.exp(u)


def _solve_x(beta: float, r: float, side: str) -> tuple[float, str]:
    """Level and branch on one side; the side sign s mirrors the explicit edge branch."""
    _check_beta_r(beta, r)
    r_min, r_max = thresholds(beta)
    threshold = r_min if side == "minus" else r_max
    if threshold is not None and r > threshold:
        law = mp_law(beta)
        s, edge = _side(law, side)
        return edge - s * math.exp(_edge_log_moment(law, s) - r * _LN2), "explicit"
    return _fixed_point(beta, r, side), "fixed_point"


def solve_x_minus(beta: float, r: float) -> tuple[float, str]:
    """Lower level x_r_minus and the branch ('explicit' or 'fixed_point').

    The explicit branch inverts the lower-edge rate at zero,
    integral log(lam - lambda_minus) d mu - log(x - lambda_minus) = r log 2.
    """
    return _solve_x(beta, r, "minus")


def solve_x_plus(beta: float, r: float) -> tuple[float, str]:
    """Upper level x_r_plus and the branch ('explicit' or 'fixed_point').

    The explicit branch inverts the upper-edge rate at zero,
    integral log(lambda_plus - lam) d mu - log(lambda_plus - x) = r log 2.
    """
    return _solve_x(beta, r, "plus")


def solve_x_by_rate(beta: float, r: float, side: str) -> float:
    """Invert rate_zero(x) = r log 2 directly, without the explicit formulas.

    Serves as the independent route against solve_x_minus / solve_x_plus.
    The root is found in a log-distance variable from the relevant support
    edge, which keeps the search accurate when x is within rounding of it.
    """
    _check_beta_r(beta, r)
    if side not in ("minus", "plus"):
        raise ValueError(f"side must be 'minus' or 'plus', got {side!r}")
    if r == 0.0:
        return 1.0  # the rate vanishes only at the mean, where no bracket changes sign
    law = mp_law(beta)
    target = r * _LN2
    root = math.sqrt(beta)
    s, edge = _side(law, side)

    def value_at(w: float) -> float:
        return rate_zero(RateContext(law, edge - s * math.exp(w))).value - target

    # Guaranteed-sign left bracket: the edge branch is exactly edge_log_moment - w
    # once x is past 1 + s sqrt(beta).  The lower side at beta >= 1 has an atom at
    # zero instead, and there the interior rate obeys rate(e^w) >= (-1 - w)/beta.
    if s < 0.0 and law.beta >= 1.0:
        w_lo = -2.0 - law.beta * target
    else:
        w_lo = min(math.log(root * (1.0 + s * root)), _edge_log_moment(law, s) - target) - 1.0
    w_hi = math.log(abs(1.0 - edge)) - 1e-9  # just inside x = 1, where the rate is ~0
    if value_at(w_lo) <= 0.0 or value_at(w_hi) >= 0.0:
        raise ConsistencyError(
            f"rate equation bracket failed for beta={beta}, r={r}, side={side}"
        )
    w = brentq(value_at, w_lo, w_hi, xtol=1e-13, rtol=8.9e-16)
    return edge - s * math.exp(w)


def asymptotic_limits(beta: float, r: float) -> AsymptoticResult:
    """Solve both levels and scale them into performance limits.

    Each level is substituted back into the rate at zero; a residual beyond
    1e-8 + |alpha*| ulp(x) raises ConsistencyError.  The rate's slope in x is
    the optimal tilt alpha*, so rounding x to a double alone moves the rate
    by up to |alpha*| ulp(x), about 1e-7 at r = 28.
    """
    x_minus, branch_minus = solve_x_minus(beta, r)
    x_plus, branch_plus = solve_x_plus(beta, r)
    r_min, r_max = thresholds(beta)
    law = mp_law(beta)
    target = r * _LN2

    def residual(x: float) -> tuple[float, float]:
        point = rate_zero(RateContext(law, x))
        return point.value - target, 1e-8 + abs(point.alpha_star) * math.ulp(x)

    (res_minus, tol_minus), (res_plus, tol_plus) = residual(x_minus), residual(x_plus)
    if abs(res_minus) > tol_minus or abs(res_plus) > tol_plus:
        raise ConsistencyError(
            f"defining-equation residuals too large at beta={beta}, r={r}: "
            f"minus {res_minus:.3e}, plus {res_plus:.3e}"
        )
    return AsymptoticResult(
        beta=beta,
        r=r,
        x_minus=x_minus,
        x_plus=x_plus,
        c_min_limit=x_minus / beta,
        c_max_limit=x_plus / beta,
        r_min=r_min,
        r_max=r_max,
        branch_minus=branch_minus,
        branch_plus=branch_plus,
    )


def throughput(c: float, sigma2: float, mode: str) -> float:
    """Single-user throughput in nats for a selected quadratic form c.

    mode 'cdma_min': log(1 + 1/(sigma2 + c)), interference energy c.
    mode 'mimo_max': log(1 + c/sigma2), beamforming gain c.
    """
    if not (math.isfinite(c) and c >= 0.0):
        raise ValueError(f"c must be finite and >= 0, got {c!r}")
    if not (math.isfinite(sigma2) and sigma2 > 0.0):
        raise ValueError(f"sigma2 must be finite and positive, got {sigma2!r}")
    if mode == "cdma_min":
        return math.log1p(1.0 / (sigma2 + c))
    if mode == "mimo_max":
        return math.log1p(c / sigma2)
    raise ValueError(f"mode must be 'cdma_min' or 'mimo_max', got {mode!r}")
