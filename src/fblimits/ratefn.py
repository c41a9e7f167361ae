"""Cumulant generating function of the spectral law and its Legendre transform.

For a level x strictly inside the support, the averaged cumulant generating
function of (lam - x) Y with Y ~ Exp(1) is

    cgf(alpha) = - integral log(1 - alpha (lam - x)) d mu(lam),

finite exactly on [-1/(x - lam_t_minus), 1/(lam_plus - x)].  Its Legendre
transform rate(t) = sup_alpha { alpha t - cgf(alpha) } is the large-deviation
rate of the weighted exponential sums that govern codebook selection, and
rate(0) is the quantity the asymptotic performance limits invert.

Two values are computed twice, by quadrature against the law and in closed
form, and compared at runtime: the rate at zero (explicit optimal tilt,
endpoint log-moments) and the cgf derivative where the eta transform's real
branch applies.  A disagreement raises; cgf itself has no closed-form check.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ._brent import brentq
from .spectra import DEFAULT_QUADRATURE, MpLaw, QuadratureConfig, mp_integrate

__all__ = [
    "RateContext",
    "LegendrePoint",
    "ConsistencyError",
    "cgf",
    "cgf_prime",
    "cgf_prime_closed",
    "f_kernel",
    "eta_integral",
    "shannon_integral",
    "optimal_tilt",
    "rate_zero",
    "rate_function",
]

_EDGE_SHRINK = 1e-12  # relative pull-in used when a solver needs the open interval


class ConsistencyError(RuntimeError):
    """Two supposedly equivalent evaluation routes disagreed."""


@dataclasses.dataclass(frozen=True)
class RateContext:
    """Law, level x in (lambda_t_minus, lambda_plus), and quadrature choice."""

    law: MpLaw
    x: float
    cfg: QuadratureConfig = DEFAULT_QUADRATURE

    def __post_init__(self) -> None:
        # Only a subnormal level next to the atom at zero overflows an interval end.
        lo, hi = self.law.lambda_t_minus, self.law.lambda_plus
        if not (lo < self.x < hi and all(map(math.isfinite, self.interval()))):
            raise ValueError(
                f"x={self.x!r} must lie strictly inside ({lo}, {hi}) with a finite tilt interval"
            )

    def interval(self) -> tuple[float, float]:
        """Closed finiteness interval of the cumulant generating function."""
        return (
            -1.0 / (self.x - self.law.lambda_t_minus),
            1.0 / (self.law.lambda_plus - self.x),
        )


@dataclasses.dataclass(frozen=True)
class LegendrePoint:
    """One evaluation of the Legendre transform.

    boundary_hit marks a supremum attained at an endpoint of the finiteness
    interval rather than at an interior stationary point.
    """

    alpha_star: float
    value: float
    t: float
    boundary_hit: bool


def cgf(ctx: RateContext, alpha: float) -> float:
    """Cumulant generating function; +inf outside the finiteness interval."""
    lo, hi = ctx.interval()
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha < lo or alpha > hi:
        return math.inf
    if alpha == 0.0:
        return 0.0
    law, x = ctx.law, ctx.x
    if law.atom_mass > 0.0 and 1.0 + alpha * x <= 0.0:
        # The atom at zero contributes -atom_mass*log(1 + alpha x), which
        # diverges at the left endpoint when the law has an atom.
        return math.inf
    return -mp_integrate(law, lambda lam: np.log1p(-alpha * (lam - x)), ctx.cfg)


def _interior(ctx: RateContext, alpha: float) -> float:
    """alpha as a float, refused unless strictly inside the tilt interval."""
    lo, hi = ctx.interval()
    alpha = float(alpha)
    if not (lo < alpha < hi):
        raise ValueError(f"alpha={alpha!r} outside the open interval ({lo:.6g}, {hi:.6g})")
    return alpha


def cgf_prime(ctx: RateContext, alpha: float) -> float:
    """Derivative d cgf / d alpha = integral (lam - x)/(1 - alpha(lam - x)) d mu.

    Quadrature value, cross-checked against the algebraic route wherever
    that route's real branch applies; a disagreement beyond 1e-9 raises.
    """
    alpha = _interior(ctx, alpha)
    law, x = ctx.law, ctx.x
    quad = mp_integrate(law, lambda lam: (lam - x) / (1.0 - alpha * (lam - x)), ctx.cfg)
    d = 1.0 + alpha * x
    # Cross-check against the algebraic route away from its numerically
    # hostile zones: alpha -> 0 and d -> 0 cancel the leading terms,
    # z -> -1/lambda_plus loses the kernel's radicand.
    if abs(alpha) > 1e-6 and d > 1e-4 and -alpha / d > -(1.0 - 1e-6) / law.lambda_plus:
        closed = cgf_prime_closed(ctx, alpha)
        if abs(closed - quad) > 1e-9 * max(1.0, abs(quad)):
            raise ConsistencyError(
                f"cgf derivative disagrees: quadrature {quad!r} vs closed {closed!r} "
                f"at beta={law.beta}, x={x}, alpha={alpha}"
            )
    return quad


def f_kernel(z: float, law: MpLaw) -> float:
    """Closed-form kernel ( sqrt(1 + lam_minus z) - sqrt(1 + lam_plus z) )^2.

    Real for z >= -1/lambda_plus; the eta and Shannon transforms of the law
    are algebraic in it.
    """
    z = float(z)
    rm = 1.0 + law.lambda_minus * z
    rp = 1.0 + law.lambda_plus * z
    if rm < -1e-12 or rp < -1e-12:
        raise ValueError(f"z={z!r} outside the real branch (z >= -1/lambda_plus)")
    # The root difference, formed as (rp - rm) / (sqrt(rm) + sqrt(rp)) with
    # rp - rm = 4 sqrt(beta) z, keeps its digits as z -> 0.
    root_sum = math.sqrt(max(rm, 0.0)) + math.sqrt(max(rp, 0.0))
    return (4.0 * math.sqrt(law.beta) * z / root_sum) ** 2


def eta_integral(z: float, law: MpLaw) -> float:
    """Closed form of integral z lam / (1 + z lam) d mu(lam).

    The atom contributes nothing, so the value is the same whether the law
    is taken with or without its mass at zero.
    """
    z = float(z)
    if z == 0.0:
        return 0.0
    return f_kernel(z, law) / (4.0 * z * law.beta)


def shannon_integral(z: float, law: MpLaw) -> float:
    """Closed form of integral log(1 + z lam) d mu(lam) (atom contributes 0)."""
    z = float(z)
    if z == 0.0:
        return 0.0
    beta = law.beta
    f = f_kernel(z, law)
    a1, b1 = z - 0.25 * f, z * beta - 0.25 * f  # a - 1 and b - 1, taken by log1p
    # a = (p_a + S)/2 cancels where p_a < 0 (b likewise); S^2 - p_a^2 = 4 beta z, S^2 - p_b^2 = 4 z.
    p_a, p_b = 1.0 + (1.0 - beta) * z, 1.0 + (beta - 1.0) * z
    if min(p_a, p_b) < 0.0:
        s = math.sqrt(1.0 + law.lambda_minus * z) * math.sqrt(1.0 + law.lambda_plus * z)
        a1 = a1 if p_a >= 0.0 else 2.0 * beta * z / (s - p_a) - 1.0
        b1 = b1 if p_b >= 0.0 else 2.0 * z / (s - p_b) - 1.0
    return math.log1p(a1) + math.log1p(b1) / beta - f / (4.0 * z * beta)


def cgf_prime_closed(ctx: RateContext, alpha: float) -> float:
    """Derivative of the cumulant generating function in closed form.

    Valid where the kernel's real branch applies: alpha = 0, the removable
    point alpha = -1/x (beta < 1), and interior alpha with 1 + alpha x > 0.
    """
    alpha = _interior(ctx, alpha)
    law, x = ctx.law, ctx.x
    if alpha == 0.0:
        return law.mean - x
    d = 1.0 + alpha * x
    if abs(d) <= 1e-13 * max(1.0, abs(alpha) * x):
        # Removable point alpha = -1/x, reachable only for beta < 1 where the
        # law has inverse moment 1/(1 - beta).
        if law.beta >= 1.0:
            raise ValueError("alpha = -1/x is not interior for beta >= 1")
        return x * (1.0 - x / (1.0 - law.beta))
    if d < 0.0:
        raise ValueError("closed form requires 1 + alpha x > 0; use quadrature here")
    z = -alpha / d
    return -x / d + f_kernel(z, law) / (4.0 * alpha * alpha * law.beta)


def optimal_tilt(ctx: RateContext) -> float:
    """Maximizer alpha* of -cgf over the finiteness interval, in closed form.

    Interior stationary point (x - 1)/(beta x) in the bulk; the interval
    endpoint when x is at least 1 + sqrt(beta) (upper) or, for beta < 1, at
    most 1 - sqrt(beta) (lower).
    """
    return _saddle(ctx)[0]


def _edge_log_moment(law: MpLaw, s: float) -> float:
    """integral log(s (edge - lam)) d mu, closed form; s = -1 (lower edge) needs beta < 1."""
    root = math.sqrt(law.beta)
    log_edge = (1.0 - 1.0 / law.beta) * math.log1p(s * root)
    return 0.5 * math.log(law.beta) + log_edge + s / root


def _saddle(ctx: RateContext) -> tuple[float, float]:
    """Optimal tilt and -cgf there in closed form, from one branch decision.

    On side s = sign(x - 1) the tilt is the interval end once s x >= s + sqrt(beta)
    (the lower side only for beta < 1); otherwise it is the interior stationary
    point, its tilt clamped into the interval and its value floored at 0.
    """
    law, x = ctx.law, ctx.x
    root = math.sqrt(law.beta)
    lo, hi = ctx.interval()
    s = 1.0 if x >= 1.0 else -1.0
    if s * x >= s + root and (s > 0.0 or law.beta < 1.0):
        end, edge = (hi, law.lambda_plus) if s > 0.0 else (lo, law.lambda_minus)
        return end, _edge_log_moment(law, s) - math.log(s * (edge - x))
    alpha = min(max((x - 1.0) / (law.beta * x), lo), hi)
    return alpha, max((x - 1.0 - math.log(x)) / law.beta, 0.0)


def rate_zero(ctx: RateContext) -> LegendrePoint:
    """Legendre transform at t = 0, i.e. -cgf at the optimal tilt.

    The closed form of the one branch decision is returned after a quadrature
    check.  A miss beyond 1e-6 is forgiven up to twice the grid's own
    resolution, estimated at half the node count only on such a miss: near a
    spectrum edge that touches zero the integrand carries a bare logarithmic
    endpoint singularity and the grid error plateaus around 1e-4 instead of
    1e-12.  A ConsistencyError means a genuine branch or sign defect, not
    grid noise.
    """
    alpha, value_closed = _saddle(ctx)
    value_quad = -cgf(ctx, alpha)
    miss = abs(value_quad - value_closed)
    tol = 1e-6
    if math.isfinite(value_quad) and miss > tol:
        half_cfg = QuadratureConfig(node_count=max(16, ctx.cfg.node_count // 2))
        value_half = -cgf(RateContext(law=ctx.law, x=ctx.x, cfg=half_cfg), alpha)
        tol += 2.0 * abs(value_quad - value_half)
    if not math.isfinite(value_quad) or miss > tol:
        raise ConsistencyError(
            f"rate at zero disagrees: quadrature {value_quad!r} vs closed form "
            f"{value_closed!r} (tol {tol:.3g}) at beta={ctx.law.beta}, x={ctx.x}"
        )
    lo, hi = ctx.interval()
    return LegendrePoint(
        alpha_star=alpha,
        value=value_closed,
        t=0.0,
        boundary_hit=(alpha == hi or alpha == lo),
    )


def rate_function(ctx: RateContext, t: float) -> LegendrePoint:
    """Legendre transform sup_alpha { alpha t - cgf(alpha) }.

    The supremum over alpha < 0 covers t below the mean gap 1 - x, alpha > 0
    covers t above it.  When the derivative never reaches t inside the
    interval the supremum sits at the endpoint and boundary_hit is set.
    """
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    law, x = ctx.law, ctx.x
    mean_gap = law.mean - x
    if t == mean_gap:
        return LegendrePoint(alpha_star=0.0, value=0.0, t=t, boundary_hit=False)

    s = 1.0 if t > mean_gap else -1.0
    lo, hi = ctx.interval()
    end = hi if s > 0.0 else lo

    # Walk the probe geometrically toward the endpoint until the derivative
    # brackets t; the derivative may stay finite at the endpoint (genuine
    # boundary supremum) or blow up (atom / edge), in which case the walk
    # always terminates.
    probe = end - s * _EDGE_SHRINK * (hi - lo)
    bracketed = None
    for _ in range(220):
        if s * (cgf_prime(ctx, probe) - t) >= 0.0:
            bracketed = probe
            break
        gap = probe - end
        next_probe = end + gap / 16.0
        if next_probe == probe or next_probe == end:
            break
        probe = next_probe
    if bracketed is None:
        value = end * t - cgf(ctx, end)
        if not math.isfinite(value):
            raise ConsistencyError(
                f"boundary supremum not finite at alpha={end!r} for t={t!r}"
            )
        return LegendrePoint(alpha_star=end, value=max(value, 0.0), t=t, boundary_hit=True)

    # Next to the atom the bracket reaches -1/x, up to -1e308: about 1100 halvings to xtol.
    alpha = brentq(lambda al: cgf_prime(ctx, al) - t, min(bracketed, 0.0), max(bracketed, 0.0),
                   xtol=1e-12, rtol=8.9e-16, maxiter=4000)
    value = alpha * t - cgf(ctx, alpha)
    if value < -1e-9:
        raise ConsistencyError(f"negative transform value {value!r} at t={t!r}")
    return LegendrePoint(alpha_star=alpha, value=max(value, 0.0), t=t, boundary_hit=False)
