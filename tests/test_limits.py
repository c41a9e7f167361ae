"""Threshold formulas, level solvers, and throughput mappings."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from fblimits import (
    ConsistencyError,
    RateContext,
    asymptotic_limits,
    mp_law,
    rate_zero,
    solve_x_by_rate,
    solve_x_minus,
    solve_x_plus,
    thresholds,
    throughput,
)
from fblimits import limits

LN2 = math.log(2.0)


def test_threshold_values():
    # r_max = (sqrt(b) - log(1 + sqrt(b))) / (b log 2), and for b < 1
    # r_min = (-log(1 - sqrt(b)) - sqrt(b)) / (b log 2).
    def r_max_formula(b):
        s = math.sqrt(b)
        return (s - math.log1p(s)) / (b * LN2)

    def r_min_formula(b):
        s = math.sqrt(b)
        return (-math.log1p(-s) - s) / (b * LN2)

    for beta in (0.25, 0.5, 1.0, 2.0, 4.0):
        r_min, r_max = thresholds(beta)
        assert r_max == pytest.approx(r_max_formula(beta), abs=1e-13)
        if beta < 1.0:
            assert r_min == pytest.approx(r_min_formula(beta), abs=1e-13)
        else:
            assert r_min is None
    # Frozen spot values.
    assert thresholds(0.25) == pytest.approx((1.114609918222073, 0.5455400788933021))
    assert thresholds(1.0)[1] == pytest.approx(0.44269504088896344, abs=1e-14)


def test_thresholds_small_beta_limit():
    # Both thresholds approach 1/(2 log 2) as beta -> 0.
    r_min, r_max = thresholds(1e-4)
    center = 1.0 / (2.0 * LN2)
    assert abs(r_min - center) < 0.01
    assert abs(r_max - center) < 0.01


def test_solve_x_minus_against_bisection_oracle():
    # Interior branch solves x - 1 - log x = beta r log 2; oracle by brentq
    # on that scalar equation directly.
    for beta, r in ((1.0, 1.0), (2.0, 1.0), (1.0, 0.3)):
        target = beta * r * LN2
        oracle = brentq(
            lambda x: x - 1.0 - math.log(x) - target, 1e-12, 1.0 - 1e-12, xtol=1e-15
        )
        x, branch = solve_x_minus(beta, r)
        assert branch == "fixed_point"
        assert x == pytest.approx(oracle, abs=1e-12)
    assert solve_x_minus(1.0, 1.0)[0] == pytest.approx(0.23196095298653446, abs=1e-12)


def test_solve_x_plus_explicit_value():
    # For beta = 1, r = 1 > r_max the endpoint branch is exact:
    # x = lambda_plus - e/2.
    x, branch = solve_x_plus(1.0, 1.0)
    assert branch == "explicit"
    assert x == pytest.approx(4.0 - math.e / 2.0, abs=1e-13)


def test_solver_residuals():
    # Each solved level must satisfy its defining equation.
    from fblimits import RateContext, mp_law, rate_zero

    for beta in (0.5, 1.0, 2.0):
        for r in (0.3, 1.0, 2.5):
            law = mp_law(beta)
            for x in (solve_x_minus(beta, r)[0], solve_x_plus(beta, r)[0]):
                got = rate_zero(RateContext(law, x)).value
                assert got == pytest.approx(r * LN2, abs=1e-9)


def test_branch_continuity_at_thresholds():
    eps = 1e-9
    r_min, _ = thresholds(0.25)
    lo = solve_x_minus(0.25, r_min - eps)[0]
    hi = solve_x_minus(0.25, r_min + eps)[0]
    assert lo == pytest.approx(hi, abs=1e-7)
    assert solve_x_minus(0.25, r_min)[0] == pytest.approx(0.5, abs=1e-9)
    for beta in (0.5, 1.0, 2.0):
        _, r_max = thresholds(beta)
        lo = solve_x_plus(beta, r_max - eps)[0]
        hi = solve_x_plus(beta, r_max + eps)[0]
        assert lo == pytest.approx(hi, abs=1e-7)
        assert solve_x_plus(beta, r_max)[0] == pytest.approx(
            1.0 + math.sqrt(beta), abs=1e-9
        )


def test_levels_monotone_in_rate():
    rs = [0.1 * k for k in range(1, 21)]
    for beta in (0.5, 1.0, 2.0):
        xm = [solve_x_minus(beta, r)[0] for r in rs]
        xp = [solve_x_plus(beta, r)[0] for r in rs]
        assert all(a > b for a, b in zip(xm, xm[1:]))
        assert all(a < b for a, b in zip(xp, xp[1:]))


def test_level_endpoints():
    # Tiny rate keeps both levels near the mean.
    assert abs(solve_x_minus(1.0, 1e-3)[0] - 1.0) < 0.1
    assert abs(solve_x_plus(1.0, 1e-3)[0] - 1.0) < 0.1
    # Large rate drives the levels to the support edges; at beta = 1, r = 8
    # the exact upper value is 4 - e/256.
    x = solve_x_plus(1.0, 8.0)[0]
    assert x == pytest.approx(4.0 - math.e / 256.0, abs=1e-12)
    assert abs(x - 4.0) < 0.02
    assert asymptotic_limits(4.0, 16.0).c_min_limit <= 0.01


def test_limits_collapse_at_tiny_rate():
    res = asymptotic_limits(2.0, 1e-4)
    assert res.c_min_limit == pytest.approx(0.5, abs=0.01)
    assert res.c_max_limit == pytest.approx(0.5, abs=0.01)
    assert res.c_min_limit < 0.5 < res.c_max_limit


def test_asymptotic_limits_fields_and_scaling():
    res = asymptotic_limits(2.0, 1.0)
    assert res.c_min_limit == pytest.approx(res.x_minus / 2.0, abs=1e-15)
    assert res.c_max_limit == pytest.approx(res.x_plus / 2.0, abs=1e-15)
    assert res.branch_minus == "fixed_point"
    assert res.r_min is None
    assert res.r_max == pytest.approx(0.38436279501498355, abs=1e-13)


# asymptotic_limits(beta, r) levels on criterion 1's 5x5 grid.  Pinned to
# 1e-13 relative rather than bit for bit: the explicit branches' evaluation
# order is free to change, their value is not.
PINNED_LIMITS = (
    (0.25, 0.25, 0.7337919186528883, 1.323914815433638),
    (0.25, 0.5, 0.6393674556424845, 1.4759352630939924),
    (0.25, 1.0, 0.5206939420862208, 1.7026625111903222),
    (0.25, 2.0, 0.3853352832366127, 1.976331255595161),
    (0.25, 4.0, 0.28383382080915315, 2.1815828138987903),
    (0.5, 0.25, 0.6393674556424845, 1.4759352630939921),
    (0.5, 0.5, 0.5206939420862208, 1.7094704191457106),
    (0.5, 1.0, 0.3806201146772015, 2.0623315162090154),
    (0.5, 2.0, 0.23252036700463946, 2.488272539291055),
    (0.5, 4.0, 0.12246991997133858, 2.807728306602585),
    (1.0, 0.25, 0.5206939420862208, 1.7094704242947958),
    (1.0, 0.5, 0.3806201146772015, 2.0778844859204417),
    (1.0, 1.0, 0.23196095298653444, 2.6408590857704777),
    (1.0, 2.0, 0.10182843109414198, 3.320429542885239),
    (1.0, 4.0, 0.02354013150457164, 3.8301073857213095),
    (2.0, 0.25, 0.3806201146772015, 2.0779604501004534),
    (2.0, 0.5, 0.23196095298653444, 2.6771948499219405),
    (2.0, 1.0, 0.10182843109414198, 3.600169414124053),
    (2.0, 2.0, 0.02354013150457164, 4.714298269435121),
    (2.0, 4.0, 0.001439098582330213, 5.549894910918423),
    (4.0, 0.25, 0.23196095298653444, 2.678346990016666),
    (4.0, 0.5, 0.10182843109414198, 3.6850010896432197),
    (4.0, 1.0, 0.02354013150457164, 5.241728228487609),
    (4.0, 2.0, 0.001439098582330213, 7.120864114243805),
    (4.0, 4.0, 5.613426303731852e-06, 8.530216028560952),
)


def test_limits_are_pinned():
    for beta, r, x_minus, x_plus in PINNED_LIMITS:
        res = asymptotic_limits(beta, r)
        assert res.x_minus == pytest.approx(x_minus, rel=1e-13, abs=0.0)
        assert res.x_plus == pytest.approx(x_plus, rel=1e-13, abs=0.0)


# Exact pins of the limits layer where its branches switch.  The lower and
# upper edge rules share one signed closed form, so a sign slip on either
# side moves these values; 1e-15 relative leaves room for no formula change.
PIN_REL = 1e-15

# (beta, r_min, r_max)
PINNED_THRESHOLDS = (
    (0.25, 1.114609918222073, 0.5455400788933021),
    (0.5, 1.5028277131336454, 0.4971722868663549),
    (0.999999, 19.488893378089195, 0.44269512291028107),
    (1.0, None, 0.44269504088896344),
    (2.0, None, 0.38436279501498355),
    (4.0, None, 0.32510689526419273),
)
# (beta, r, x_minus, branch_minus, x_plus, branch_plus) at each threshold and
# one ulp either side of it
PINNED_LEVELS = (
    (0.25, 1.1146099182220728, 0.5000000000000001, "fixed_point", 1.7444615737671827, "explicit"),
    (0.25, 1.114609918222073, 0.5000000000000001, "fixed_point", 1.744461573767183, "explicit"),
    (0.25, 1.1146099182220732, 0.49999999999999994, "explicit", 1.744461573767183, "explicit"),
    (0.25, 0.545540078893302, 0.625782534201283, "fixed_point", 1.5, "fixed_point"),
    (0.25, 0.5455400788933021, 0.6257825342012829, "fixed_point", 1.4999999999999998, "fixed_point"),
    (0.25, 0.5455400788933022, 0.6257825342012829, "fixed_point", 1.5, "explicit"),
    (0.5, 1.5028277131336452, 0.2928932188134525, "fixed_point", 2.3130214956171153, "explicit"),
    (0.5, 1.5028277131336454, 0.2928932188134524, "fixed_point", 2.3130214956171153, "explicit"),
    (0.5, 1.5028277131336456, 0.2928932188134524, "explicit", 2.3130214956171153, "explicit"),
    (0.5, 0.49717228686635484, 0.521760853702841, "fixed_point", 1.7071067811865472, "fixed_point"),
    (0.5, 0.4971722868663549, 0.521760853702841, "fixed_point", 1.7071067811865477, "fixed_point"),
    (0.5, 0.49717228686635495, 0.521760853702841, "fixed_point", 1.7071067811865477, "explicit"),
    (0.999999, 19.48889337808919, 5.000001249699817e-07, "fixed_point", 3.9999943055250937, "explicit"),
    (0.999999, 19.488893378089195, 5.0000012496998e-07, "fixed_point", 3.9999943055250937, "explicit"),
    (0.999999, 19.488893378089198, 5.000001249699786e-07, "explicit", 3.9999943055250937, "explicit"),
    (0.999999, 0.442695122910281, 0.4063759111018599, "fixed_point", 1.9999994999998747, "fixed_point"),
    (0.999999, 0.44269512291028107, 0.4063759111018599, "fixed_point", 1.9999994999998747, "fixed_point"),
    (0.999999, 0.4426951229102811, 0.40637591110185983, "fixed_point", 1.999999499999876, "explicit"),
    (1.0, 0.4426950408889634, 0.40637573995995996, "fixed_point", 2.0, "fixed_point"),
    (1.0, 0.44269504088896344, 0.4063757399599599, "fixed_point", 2.0, "fixed_point"),
    (1.0, 0.4426950408889635, 0.40637573995995985, "fixed_point", 2.0, "explicit"),
    (2.0, 0.3843627950149835, 0.28798172717076637, "fixed_point", 2.414213562373095, "fixed_point"),
    (2.0, 0.38436279501498355, 0.28798172717076637, "fixed_point", 2.414213562373096, "fixed_point"),
    (2.0, 0.3843627950149836, 0.28798172717076626, "fixed_point", 2.414213562373095, "explicit"),
    (4.0, 0.3251068952641927, 0.17856062787792107, "fixed_point", 3.0000000000000004, "fixed_point"),
    (4.0, 0.32510689526419273, 0.17856062787792107, "fixed_point", 3.0000000000000004, "fixed_point"),
    (4.0, 0.3251068952641928, 0.17856062787792104, "fixed_point", 3.0, "explicit"),
)
# (beta, r, side, solve_x_by_rate) at the same rates; the inversions that
# raise ConsistencyError near beta = 1 are left out
PINNED_RATE_INVERSIONS = (
    (0.25, 1.1146099182220728, "minus", 0.49999999999999994),
    (0.25, 1.1146099182220728, "plus", 1.7444615737671827),
    (0.25, 1.114609918222073, "minus", 0.4999999999999999),
    (0.25, 1.114609918222073, "plus", 1.7444615737671827),
    (0.25, 1.1146099182220732, "minus", 0.49999999999999983),
    (0.25, 1.1146099182220732, "plus", 1.744461573767183),
    (0.25, 0.545540078893302, "minus", 0.6257825342012829),
    (0.25, 0.545540078893302, "plus", 1.5),
    (0.25, 0.5455400788933021, "minus", 0.625782534201283),
    (0.25, 0.5455400788933021, "plus", 1.5),
    (0.25, 0.5455400788933022, "minus", 0.6257825342012828),
    (0.25, 0.5455400788933022, "plus", 1.5),
    (0.5, 1.5028277131336452, "plus", 2.3130214956171153),
    (0.5, 1.5028277131336454, "minus", 0.2928932188134524),
    (0.5, 1.5028277131336454, "plus", 2.3130214956171153),
    (0.5, 1.5028277131336456, "minus", 0.2928932188134524),
    (0.5, 1.5028277131336456, "plus", 2.3130214956171153),
    (0.5, 0.49717228686635484, "minus", 0.5217608537028401),
    (0.5, 0.49717228686635484, "plus", 1.7071067811865475),
    (0.5, 0.4971722868663549, "minus", 0.52176085370284),
    (0.5, 0.4971722868663549, "plus", 1.7071067811865475),
    (0.5, 0.49717228686635495, "minus", 0.52176085370284),
    (0.5, 0.49717228686635495, "plus", 1.7071067811865475),
    (1.0, 0.4426950408889634, "minus", 0.40637573995995757),
    (1.0, 0.4426950408889634, "plus", 2.0),
    (1.0, 0.44269504088896344, "minus", 0.4063757399599575),
    (1.0, 0.44269504088896344, "plus", 2.0),
    (1.0, 0.4426950408889635, "minus", 0.4063757399599575),
    (1.0, 0.4426950408889635, "plus", 2.0),
    (2.0, 0.3843627950149835, "minus", 0.2879817271707664),
    (2.0, 0.3843627950149835, "plus", 2.414213562373095),
    (2.0, 0.38436279501498355, "minus", 0.28798172717076637),
    (2.0, 0.38436279501498355, "plus", 2.414213562373095),
    (2.0, 0.3843627950149836, "minus", 0.28798172717076626),
    (2.0, 0.3843627950149836, "plus", 2.414213562373095),
    (4.0, 0.3251068952641927, "minus", 0.17856062787792024),
    (4.0, 0.3251068952641927, "plus", 3.0000000000000853),
    (4.0, 0.32510689526419273, "minus", 0.17856062787792024),
    (4.0, 0.32510689526419273, "plus", 3.000000000000087),
    (4.0, 0.3251068952641928, "minus", 0.1785606278779202),
    (4.0, 0.3251068952641928, "plus", 3.000000000000087),
)
# (beta, x, alpha_star, value) of rate_zero at the pinned levels whose
# optimal tilt sits on an interval endpoint
PINNED_EDGE_RATES = (
    (0.25, 0.5000000000000001, -3.9999999999999982, 0.7725887222397805),
    (0.25, 1.7444615737671827, 1.9780889999832905, 0.7725887222397808),
    (0.25, 1.744461573767183, 1.9780889999832914, 0.7725887222397813),
    (0.25, 0.49999999999999994, -4.000000000000001, 0.7725887222397811),
    (0.25, 1.5, 1.3333333333333333, 0.37813956756734257),
    (0.25, 1.4999999999999998, 1.333333333333333, 0.3781395675673423),
    (0.5, 2.3130214956171153, 1.6633619358884426, 1.0416807922259366),
    (0.5, 0.2928932188134524, -4.82842712474619, 1.0416807922259366),
    (0.5, 1.7071067811865477, 0.8284271247461903, 0.3446135688939543),
    (0.999999, 5.000001249699817e-07, -2000000.5001206982, 13.50867149725591),
    (0.999999, 5.0000012496998e-07, -2000000.500120705, 13.508671497255913),
    (0.999999, 5.000001249699786e-07, -2000000.5001207106, 13.508671497255916),
    (0.999999, 1.999999499999876, 0.5000003750003126, 0.3068528762928998),
    (1.0, 2.0, 0.5, 0.3068528194400547),
    (2.0, 2.414213562373095, 0.2928932188134525, 0.2664199876767761),
    (2.0, 2.414213562373096, 0.29289321881345254, 0.2664199876767763),
    (4.0, 3.0000000000000004, 0.16666666666666666, 0.22534692783297272),
    (4.0, 3.0, 0.16666666666666666, 0.22534692783297272),
)


def test_threshold_branches_are_pinned():
    for beta, r_min, r_max in PINNED_THRESHOLDS:
        got_min, got_max = thresholds(beta)
        assert got_max == pytest.approx(r_max, rel=PIN_REL, abs=0.0)
        if r_min is None:
            assert got_min is None
        else:
            assert got_min == pytest.approx(r_min, rel=PIN_REL, abs=0.0)
    for beta, r, x_minus, branch_minus, x_plus, branch_plus in PINNED_LEVELS:
        got_minus, got_branch_minus = solve_x_minus(beta, r)
        got_plus, got_branch_plus = solve_x_plus(beta, r)
        assert (got_branch_minus, got_branch_plus) == (branch_minus, branch_plus)
        assert got_minus == pytest.approx(x_minus, rel=PIN_REL, abs=0.0)
        assert got_plus == pytest.approx(x_plus, rel=PIN_REL, abs=0.0)
    for beta, r, side, x in PINNED_RATE_INVERSIONS:
        assert solve_x_by_rate(beta, r, side) == pytest.approx(x, rel=PIN_REL, abs=0.0)
    for beta, x, alpha_star, value in PINNED_EDGE_RATES:
        point = rate_zero(RateContext(mp_law(beta), x))
        assert point.boundary_hit
        assert point.alpha_star == pytest.approx(alpha_star, rel=PIN_REL, abs=0.0)
        assert point.value == pytest.approx(value, rel=PIN_REL, abs=0.0)


def test_rate_inversion_agrees_with_branch_formulas():
    for beta in (0.5, 1.0, 2.0):
        for r in (0.3, 1.0, 3.0):
            assert solve_x_by_rate(beta, r, "minus") == pytest.approx(
                solve_x_minus(beta, r)[0], abs=1e-9
            )
            assert solve_x_by_rate(beta, r, "plus") == pytest.approx(
                solve_x_plus(beta, r)[0], abs=1e-9
            )


def test_rate_inversion_handles_extreme_rates():
    # Deep rates push x within rounding distance of the support edges; the
    # log-distance search must not lose the bracket.
    x = solve_x_by_rate(1.0, 64.0, "minus")
    assert 0.0 < x < 1e-10
    x = solve_x_by_rate(0.25, 40.0, "plus")
    assert 0.0 < 2.25 - x < 1e-6


def test_levels_next_to_the_tilt_switch_keep_the_tilt_in_the_interval():
    # Within an ulp of 1 +- sqrt(beta) the interior tilt (x - 1)/(beta x) can
    # round past the interval end; these three calls once raised there.
    r_min = thresholds(0.5)[0]
    res = asymptotic_limits(0.01, thresholds(0.01)[1])
    cases = (
        (0.5, 0.2928932188134525),
        (0.5, solve_x_by_rate(0.5, math.nextafter(r_min, 0.0), "minus")),
        (0.01, res.x_minus),
        (0.01, res.x_plus),
    )
    for beta, x in cases:
        c = RateContext(mp_law(beta), x)
        lo, hi = c.interval()
        assert lo <= rate_zero(c).alpha_star <= hi


@pytest.mark.parametrize("beta", (0.25, 1.0, 4.0))
def test_deep_rates_pass_the_residual_check(beta):
    # The rate's slope in x is alpha*, ~1e8 at r = 28, so one ulp of the level
    # moves the rate by ~1e-7; the residual bound allows for it.
    for r in (28.0, 40.0, 50.0):
        assert asymptotic_limits(beta, r).branch_plus == "explicit"


@pytest.mark.parametrize("r, moved", ((1.0, 1e-7), (28.0, -1e-9)))
def test_residual_check_catches_a_moved_level(monkeypatch, r, moved):
    solve = limits.solve_x_plus

    def nudged(beta, r):
        x, branch = solve(beta, r)
        return x * (1.0 + moved), branch

    monkeypatch.setattr(limits, "solve_x_plus", nudged)
    with pytest.raises(ConsistencyError, match="residuals too large"):
        asymptotic_limits(1.0, r)


@pytest.mark.parametrize("beta", (0.25, 1.0, 4.0))
def test_zero_rate_puts_both_levels_at_the_mean(beta):
    res = asymptotic_limits(beta, 0.0)
    assert (res.x_minus, res.x_plus) == (1.0, 1.0)
    assert res.c_min_limit == res.c_max_limit == 1.0 / beta
    assert (res.branch_minus, res.branch_plus) == ("fixed_point", "fixed_point")
    assert solve_x_by_rate(beta, 0.0, "minus") == solve_x_by_rate(beta, 0.0, "plus") == 1.0
    with pytest.raises(ValueError, match=">= 0"):
        solve_x_minus(beta, -0.5)


def test_throughput_golden_points():
    assert throughput(0.0, 1.0, "mimo_max") == 0.0
    assert throughput(0.0, 1.0, "cdma_min") == pytest.approx(LN2, abs=1e-15)
    c = 4.0 - math.e / 2.0
    assert throughput(c, 1.0, "mimo_max") == pytest.approx(math.log(1.0 + c), abs=1e-15)
    with pytest.raises(ValueError):
        throughput(1.0, 0.0, "mimo_max")
    with pytest.raises(ValueError):
        throughput(1.0, 1.0, "nonsense")


def test_input_validation():
    with pytest.raises(ValueError):
        thresholds(0.0)
    with pytest.raises(ValueError):
        solve_x_minus(1.0, -0.5)
    with pytest.raises(ValueError):
        solve_x_by_rate(1.0, 1.0, "sideways")


# The geometric 200x200 grid beta in [1e-3, 50], r in [1e-3, 20].  Its
# largest shifts beta r log 2 reach about 693, where x_r_minus is ~1e-301.
DOMAIN_BETAS = np.geomspace(1e-3, 50.0, 200)
DOMAIN_RATES = np.geomspace(1e-3, 20.0, 200)
# Grid points whose fixed-point bracket once lost its sign to rounding.
BRACKET_POINTS = (
    (5.095978550731885, 18.105209876548013),
    (7.872830623681995, 11.56870159672752),
    (15.117705584454635, 6.057770420396425),
    (15.96242235804436, 5.763676462567724),
    (27.49336791342105, 6.691742831706307),
    (29.029587077711522, 3.1720571370438266),
    (50.0, 1.834829123311494),
)


def test_levels_solve_over_the_whole_domain():
    failures = []
    for beta in DOMAIN_BETAS.tolist():
        law = mp_law(beta)
        for r in DOMAIN_RATES.tolist():
            try:
                x_minus = solve_x_minus(beta, r)[0]
                x_plus = solve_x_plus(beta, r)[0]
            except ValueError as exc:
                failures.append((beta, r, str(exc)))
                continue
            if not law.lambda_t_minus < x_minus < 1.0 < x_plus < law.lambda_plus:
                failures.append((beta, r, x_minus, x_plus))
    assert not failures, failures[:10]


def test_domain_subsample_matches_rate_inversion():
    subsample = [(b, r) for b in DOMAIN_BETAS[::33].tolist() for r in DOMAIN_RATES[::33].tolist()]
    for beta, r in subsample + list(BRACKET_POINTS):
        res = asymptotic_limits(beta, r)
        assert res.x_minus == pytest.approx(solve_x_by_rate(beta, r, "minus"), rel=1e-6, abs=0.0)
        assert res.x_plus == pytest.approx(solve_x_by_rate(beta, r, "plus"), rel=1e-6, abs=0.0)

