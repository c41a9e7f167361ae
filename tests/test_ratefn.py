"""Log-moment generating function, closed transforms, and the rate function."""

import math

import numpy as np
import pytest

from fblimits import (
    ConsistencyError,
    RateContext,
    cgf,
    cgf_prime,
    cgf_prime_closed,
    eta_integral,
    f_kernel,
    mp_integrate,
    mp_law,
    optimal_tilt,
    rate_function,
    rate_zero,
    shannon_integral,
)
from fblimits import ratefn


def ctx(beta: float, x: float) -> RateContext:
    return RateContext(law=mp_law(beta), x=x)


def tilt_interval(c: RateContext) -> tuple[float, float]:
    # cgf is finite for alpha in (-1/(x - lambda_t_minus), 1/(lambda_plus - x)).
    law = c.law
    return -1.0 / (c.x - law.lambda_t_minus), 1.0 / (law.lambda_plus - c.x)


# ---------------------------------------------------------------------------
# cgf


def test_cgf_zero_tilt():
    assert cgf(ctx(1.0, 0.5), 0.0) == 0.0


def test_cgf_small_tilt_quadratic_window():
    # cgf(alpha) = alpha(1-x) + alpha^2 var/2 + ...; at x = 1 the linear term
    # drops and var = beta, so cgf(0.01) for beta = 1 sits near 5e-5.
    val = cgf(ctx(1.0, 1.0), 0.01)
    assert 4e-5 < val < 6e-5


def test_cgf_finite_at_upper_endpoint():
    # At alpha = 1/(lambda_plus - x) the integrand has a log singularity at
    # the upper edge, which the quadrature resolves to a finite value.
    c = ctx(1.0, 0.5)
    val = cgf(c, tilt_interval(c)[1])
    assert math.isfinite(val)
    assert val > 0.0


def test_cgf_two_integrand_spellings_agree():
    # -E log(1 - alpha(lam - x)) and -E log((1 + alpha x) - alpha lam) are
    # the same function written two ways.
    c = ctx(0.5, 0.8)
    alpha = 0.4 * tilt_interval(c)[1]
    a = -mp_integrate(c.law, lambda lam: np.log1p(-alpha * (lam - c.x)))
    b = -mp_integrate(c.law, lambda lam: np.log((1.0 + alpha * c.x) - alpha * lam))
    assert a == pytest.approx(b, abs=1e-12)
    assert cgf(c, alpha) == pytest.approx(a, abs=1e-12)


def test_cgf_infinite_outside_interval():
    c = ctx(1.0, 0.5)
    lo, hi = tilt_interval(c)
    assert cgf(c, hi * 1.5) == math.inf
    assert cgf(c, lo * 1.5) == math.inf
    assert cgf(c, math.nan) == math.inf


# ---------------------------------------------------------------------------
# cgf_prime


@pytest.mark.parametrize("beta,x", [(0.5, 0.8), (1.0, 0.5), (2.0, 1.3)])
def test_cgf_prime_at_zero_is_mean_gap(beta, x):
    assert cgf_prime(ctx(beta, x), 0.0) == pytest.approx(1.0 - x, abs=1e-10)


def test_cgf_prime_matches_finite_difference():
    c = ctx(1.0, 0.7)
    lo, hi = tilt_interval(c)
    h = 1e-6
    for frac in (-0.5, -0.1, 0.3, 0.7):
        alpha = frac * (hi if frac > 0 else -lo)
        fd = (cgf(c, alpha + h) - cgf(c, alpha - h)) / (2.0 * h)
        assert cgf_prime(c, alpha) == pytest.approx(fd, rel=1e-5, abs=1e-8)


@pytest.mark.parametrize("beta,x", [(0.25, 0.6), (0.5, 1.2), (1.0, 0.5), (2.0, 2.0), (4.0, 1.0)])
def test_cgf_prime_closed_route_agrees(beta, x):
    c = ctx(beta, x)
    lo, hi = tilt_interval(c)
    for frac in (-0.9, -0.5, -0.1, 0.1, 0.5, 0.9):
        alpha = frac * (hi if frac > 0 else -lo)
        if 1.0 + alpha * x <= 1e-3:
            # Outside the closed form's real branch (possible for beta < 1).
            with pytest.raises(ValueError):
                cgf_prime_closed(c, alpha)
            continue
        quad = cgf_prime(c, alpha)
        closed = cgf_prime_closed(c, alpha)
        assert closed == pytest.approx(quad, rel=1e-9, abs=1e-9)


def test_cgf_prime_closed_removable_point():
    # At alpha = -1/x the closed form's two diverging terms cancel to
    # x(1 - x/(1 - beta)); compare against the quadrature route.
    c = ctx(0.25, 0.6)
    alpha = -1.0 / c.x
    want = c.x * (1.0 - c.x / (1.0 - c.law.beta))
    assert cgf_prime(c, alpha) == pytest.approx(want, rel=1e-8)
    # The closed form takes its own removable-point and zero-tilt branches.
    assert cgf_prime_closed(c, alpha) == pytest.approx(want, rel=1e-13)
    assert cgf_prime_closed(c, 0.0) == c.law.mean - c.x
    # For beta >= 1, -1/x is the open end of the interval: just inside it the
    # closed form refuses instead of cancelling.
    c = ctx(2.0, 0.6)
    with pytest.raises(ValueError, match="not interior"):
        cgf_prime_closed(c, math.nextafter(-1.0 / c.x, 0.0))


def test_cgf_prime_vanishes_at_interior_tilt():
    c = ctx(1.0, 0.5)
    assert optimal_tilt(c) == pytest.approx(-1.0, abs=1e-14)
    assert abs(cgf_prime(c, -1.0)) < 1e-9


# ---------------------------------------------------------------------------
# closed transforms


def test_f_kernel_trivials():
    law = mp_law(1.0)
    assert f_kernel(0.0, law) == 0.0
    # beta = 1: lambda_minus = 0, lambda_plus = 4, so F(1) = (1 - sqrt 5)^2.
    assert f_kernel(1.0, law) == pytest.approx(6.0 - 2.0 * math.sqrt(5.0), abs=1e-12)


def test_f_kernel_rejects_branch_violation():
    law = mp_law(1.0)
    with pytest.raises(ValueError):
        f_kernel(-0.3, law)  # below -1/lambda_plus = -0.25


def test_eta_integral_golden_point():
    got = eta_integral(1.0, mp_law(1.0))
    assert got == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, abs=1e-10)


@pytest.mark.parametrize("z", (0.5, 1.0, 2.0))
@pytest.mark.parametrize("beta", (0.5, 1.0, 2.0))
def test_transform_identities_match_quadrature(z, beta):
    law = mp_law(beta)
    eta_quad = mp_integrate(law, lambda lam: z * lam / (1.0 + z * lam))
    shan_quad = mp_integrate(law, lambda lam: np.log1p(z * lam))
    assert eta_integral(z, law) == pytest.approx(eta_quad, abs=1e-8)
    assert shannon_integral(z, law) == pytest.approx(shan_quad, abs=1e-8)


def test_transform_identities_negative_z():
    # The identities continue below zero until z = -1/lambda_plus.
    law = mp_law(0.5)
    z = -0.8 / law.lambda_plus
    eta_quad = mp_integrate(law, lambda lam: z * lam / (1.0 + z * lam))
    shan_quad = mp_integrate(law, lambda lam: np.log1p(z * lam))
    assert eta_integral(z, law) == pytest.approx(eta_quad, abs=1e-8)
    assert shannon_integral(z, law) == pytest.approx(shan_quad, abs=1e-8)


# ---------------------------------------------------------------------------
# optimal tilt


def test_optimal_tilt_branches():
    # Interior stationary point.
    assert optimal_tilt(ctx(1.0, 0.5)) == pytest.approx(-1.0, abs=1e-14)
    # Upper endpoint: x = 2 >= 1 + sqrt(0.25) so alpha* = 1/(lambda_plus - x).
    law = mp_law(0.25)
    assert optimal_tilt(ctx(0.25, 2.0)) == pytest.approx(
        1.0 / (law.lambda_plus - 2.0), abs=1e-14
    )
    # Lower endpoint: x = 0.3 <= 1 - sqrt(0.25), alpha* = -1/(x - lambda_minus).
    assert optimal_tilt(ctx(0.25, 0.3)) == pytest.approx(
        -1.0 / (0.3 - law.lambda_minus), abs=1e-12
    )


# ---------------------------------------------------------------------------
# rate at zero


def test_rate_zero_vanishes_at_mean():
    for beta in (0.5, 1.0, 2.0):
        pt = rate_zero(ctx(beta, 1.0))
        assert abs(pt.value) <= 1e-10
        assert pt.value >= 0.0


@pytest.mark.parametrize("beta", (0.5, 1.0, 2.0))
def test_rate_zero_monotone_both_sides(beta):
    law = mp_law(beta)
    lo = np.linspace(law.lambda_t_minus + 0.05, 0.95, 20)
    hi = np.linspace(1.05, law.lambda_plus - 0.05, 20)
    below = [rate_zero(ctx(beta, float(x))).value for x in lo]
    above = [rate_zero(ctx(beta, float(x))).value for x in hi]
    assert all(a > b for a, b in zip(below, below[1:]))
    assert all(a < b for a, b in zip(above, above[1:]))
    assert min(below + above) > 0.0


def test_rate_zero_interior_closed_form():
    # Between the endpoint regimes the value reduces to (x - 1 - log x)/beta.
    for beta, x in ((1.0, 0.5), (2.0, 0.3), (0.5, 0.9)):
        want = (x - 1.0 - math.log(x)) / beta
        assert rate_zero(ctx(beta, x)).value == pytest.approx(want, abs=1e-9)


def test_rate_zero_divergence_at_lower_support_edge():
    # Approaching the effective lower edge the rate grows without bound.
    law = mp_law(0.5)
    prev = 0.0
    for k in (2, 3, 4, 6):
        x = law.lambda_minus + 10.0**-k
        val = rate_zero(ctx(0.5, x)).value
        assert val > prev
        prev = val
    assert prev > 3.0

    prev = 0.0
    for k in (2, 4, 6):
        val = rate_zero(ctx(1.0, 10.0**-k)).value
        assert val > prev
        prev = val
    assert prev > 10.0


def test_rate_zero_boundary_branch_continuity():
    # Where the optimal tilt migrates from the interior to an endpoint the
    # two expressions must hand over continuously.
    for beta in (0.25, 0.5):
        for x_edge in (1.0 - math.sqrt(beta), 1.0 + math.sqrt(beta)):
            eps = 1e-7
            a = rate_zero(ctx(beta, x_edge - eps)).value
            b = rate_zero(ctx(beta, x_edge + eps)).value
            assert a == pytest.approx(b, abs=1e-5)
            got = rate_zero(ctx(beta, x_edge)).value
            assert min(a, b) <= got <= max(a, b)


def count_integrals(monkeypatch) -> list:
    """Node count of every mp_integrate call that ratefn makes from here on."""
    calls = []

    def counted(law, f, cfg):
        calls.append(cfg.node_count)
        return mp_integrate(law, f, cfg)

    monkeypatch.setattr(ratefn, "mp_integrate", counted)
    return calls


def test_rate_zero_integrates_once_when_the_grid_agrees(monkeypatch):
    calls = count_integrals(monkeypatch)
    rate_zero(ctx(2.0, 0.5))
    assert calls == [4096]


def test_rate_zero_forgives_a_miss_within_the_half_grid_resolution(monkeypatch):
    # At beta = 1 the integrand carries a log singularity at the edge lam = 0,
    # so the full grid misses the closed form by ~3.4e-4 at x = 1e-12; only
    # the half-grid estimate of that resolution lets the check pass.
    c = ctx(1.0, 1e-12)
    closed = c.x - 1.0 - math.log(c.x)
    assert abs(-cgf(c, optimal_tilt(c)) - closed) > 1e-4
    calls = count_integrals(monkeypatch)
    assert rate_zero(c).value == closed
    assert calls == [4096, 2048]


def test_rate_zero_raises_when_the_closed_form_is_off(monkeypatch):
    saddle = ratefn._saddle

    def off(c):
        alpha, value = saddle(c)
        return alpha, value + 1e-3

    monkeypatch.setattr(ratefn, "_saddle", off)
    with pytest.raises(ConsistencyError, match="rate at zero disagrees"):
        rate_zero(ctx(2.0, 0.5))


# ---------------------------------------------------------------------------
# full Legendre transform


def test_rate_function_zero_at_the_mean_gap():
    c = ctx(1.0, 0.5)
    pt = rate_function(c, 1.0 - c.x)
    assert pt.value == pytest.approx(0.0, abs=1e-10)
    assert pt.alpha_star == pytest.approx(0.0, abs=1e-8)


def test_rate_function_t_zero_matches_rate_zero():
    for beta, x in ((0.5, 0.7), (1.0, 0.5), (2.0, 1.6)):
        a = rate_function(ctx(beta, x), 0.0)
        b = rate_zero(ctx(beta, x))
        assert a.value == pytest.approx(b.value, abs=1e-9)


def test_rate_function_against_grid_search():
    # Brute-force the supremum of alpha t - cgf(alpha) on a dense grid.
    c = ctx(1.0, 0.5)
    lo, hi = tilt_interval(c)
    grid = np.linspace(lo + 1e-6, hi - 1e-6, 4001)
    for t in (-0.8, -0.2, 0.0, 0.4, 1.2):
        brute = max(a * t - cgf(c, float(a)) for a in grid)
        pt = rate_function(c, t)
        assert pt.value >= brute - 1e-9
        assert pt.value == pytest.approx(brute, abs=5e-5)


def test_rate_function_convex_in_t():
    c = ctx(2.0, 1.5)
    rng = np.random.default_rng(0)
    for _ in range(100):
        t0, t1 = sorted(rng.uniform(-1.5, 1.5, size=2))
        mid = 0.5 * (t0 + t1)
        v0 = rate_function(c, float(t0)).value
        v1 = rate_function(c, float(t1)).value
        vm = rate_function(c, mid).value
        assert vm <= 0.5 * (v0 + v1) + 1e-9


def test_rate_function_tilt_sign_tracks_deviation_side():
    c = ctx(1.0, 0.5)
    gap = 1.0 - c.x
    assert rate_function(c, gap - 0.3).alpha_star < 0.0
    assert rate_function(c, gap + 0.3).alpha_star > 0.0


def test_rate_function_boundary_hit_flag():
    # For beta < 1 the lower tilt endpoint is finite with a finite derivative,
    # so sufficiently negative t pins the supremum at the endpoint.
    c = ctx(0.25, 0.6)
    lo, _ = tilt_interval(c)
    t = cgf_prime(c, lo * (1.0 - 1e-9)) - 0.5
    pt = rate_function(c, t)
    assert pt.boundary_hit
    assert pt.alpha_star == pytest.approx(lo, rel=1e-6)
    # Interior deviations keep the flag off.
    assert not rate_function(c, 0.0).boundary_hit


def test_rate_function_nonnegative():
    c = ctx(0.5, 1.3)
    for t in np.linspace(-1.0, 1.0, 11):
        assert rate_function(c, float(t)).value >= -1e-12


def test_context_rejects_level_outside_support():
    law = mp_law(0.5)
    with pytest.raises(ValueError):
        RateContext(law=law, x=law.lambda_plus + 0.1)
    with pytest.raises(ValueError):
        RateContext(law=law, x=law.lambda_minus - 0.01)
