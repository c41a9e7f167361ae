"""Release gate: ten end-to-end checks tying the numerics together.

Each check prints a single PASS/FAIL line (run with -s to see them all) and
enforces its own runtime budget. Seeds are fixed so reruns are bit-identical;
tolerances are part of the contract, not tuning knobs.
"""

import math
import time

import numpy as np
import pytest

from fblimits import (
    RateContext,
    SimConfig,
    asymptotic_limits,
    c_rand_via_cdf,
    cgf,
    design_codebook,
    eta_integral,
    ldp_rate_estimate,
    mp_integrate,
    mp_law,
    quantile_x_n,
    random_codebook,
    rate_zero,
    sample_spectrum,
    shannon_integral,
    simulate_c_cdf,
    simulate_c_direct,
    simulate_c_spectral,
    solve_x_by_rate,
    solve_x_minus,
    solve_x_plus,
    thresholds,
    uniform_codebook_bound,
)

GRID = (0.25, 0.5, 1.0, 2.0, 4.0)


def report(num: int, ok: bool, detail: str) -> str:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line, flush=True)
    return line


def test_criterion_1_limit_solver_matches_rate_inversion():
    t0 = time.perf_counter()
    worst = 0.0
    for beta in GRID:
        for r in GRID:
            res = asymptotic_limits(beta, r)
            lo = solve_x_by_rate(beta, r, "minus")
            hi = solve_x_by_rate(beta, r, "plus")
            worst = max(worst, abs(res.x_minus - lo), abs(res.x_plus - hi))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-6 and dt < 10.0
    line = report(1, ok, f"closed-form vs bisection on 25-point grid, "
                         f"max|dx|={worst:.2e}, {dt:.2f}s")
    assert ok, line


def test_criterion_2_transform_identities():
    t0 = time.perf_counter()
    worst = 0.0
    for beta in (0.5, 1.0, 2.0):
        law = mp_law(beta)
        for z in (0.5, 1.0, 2.0):
            eta_q = mp_integrate(law, lambda lam: z * lam / (1.0 + z * lam))
            sh_q = mp_integrate(law, lambda lam: np.log1p(z * lam))
            worst = max(worst, abs(eta_integral(z, law) - eta_q),
                        abs(shannon_integral(z, law) - sh_q))
    golden = abs(eta_integral(1.0, mp_law(1.0)) - (3.0 - math.sqrt(5.0)) / 2.0)
    worst = max(worst, golden)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and dt < 5.0
    line = report(2, ok, f"closed transforms vs quadrature on 3x3 grid plus "
                         f"golden point, max|d|={worst:.2e}, {dt:.2f}s")
    assert ok, line


def test_criterion_3_rate_function_shape():
    t0 = time.perf_counter()
    zero_worst = 0.0
    monotone = True
    for beta in (0.5, 1.0, 2.0):
        law = mp_law(beta)
        zero_worst = max(zero_worst, abs(rate_zero(RateContext(law, 1.0)).value))
        lo_grid = law.lambda_t_minus + (1.0 - law.lambda_t_minus) * np.linspace(0.05, 0.95, 20)
        lo_rates = [rate_zero(RateContext(law, float(x))).value for x in lo_grid]
        hi_grid = 1.0 + (law.lambda_plus - 1.0) * np.linspace(0.05, 0.95, 20)
        hi_rates = [rate_zero(RateContext(law, float(x))).value for x in hi_grid]
        monotone = (
            monotone
            and all(a > b for a, b in zip(lo_rates, lo_rates[1:]))
            and all(a < b for a, b in zip(hi_rates, hi_rates[1:]))
        )
    rng = np.random.default_rng(0)
    convex_violation = -math.inf
    for _ in range(100):
        beta = float(rng.choice((0.5, 1.0, 2.0)))
        law = mp_law(beta)
        x = float(rng.uniform(law.lambda_t_minus + 0.05, law.lambda_plus - 0.05))
        ctx = RateContext(law, x)
        lo = -0.9 / (x - law.lambda_t_minus)
        hi = 0.9 / (law.lambda_plus - x)
        a1, a2 = sorted(rng.uniform(lo, hi, size=2))
        gap = cgf(ctx, 0.5 * (a1 + a2)) - 0.5 * (cgf(ctx, a1) + cgf(ctx, a2))
        convex_violation = max(convex_violation, gap)
    dt = time.perf_counter() - t0
    ok = zero_worst <= 1e-10 and monotone and convex_violation <= 1e-10 and dt < 10.0
    line = report(3, ok, f"zero at the mean |v|={zero_worst:.1e}, strict "
                         f"monotone both sides={monotone}, max midpoint "
                         f"violation={convex_violation:.1e}, {dt:.2f}s")
    assert ok, line


def test_criterion_4_branch_seam_continuity():
    t0 = time.perf_counter()
    r_min_q, _ = thresholds(0.25)
    worst = abs(solve_x_minus(0.25, r_min_q)[0] - 0.5)
    for beta in (0.5, 1.0, 2.0):
        _, r_max_q = thresholds(beta)
        seam = 1.0 + math.sqrt(beta)
        worst = max(worst, abs(solve_x_plus(beta, r_max_q)[0] - seam))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 1.0
    line = report(4, ok, f"solutions at threshold rates sit on the branch "
                         f"seam, max|dx|={worst:.2e}, {dt:.2f}s")
    assert ok, line


def test_criterion_5_finite_size_extremes_approach_limits():
    """Scaled selected extremes converge monotonically to the limits.

    The paper's limit carries no rate of convergence.  The leading
    finite-size term is the Bahadur-Rao prefactor of the tilted tail,
    P ~ exp(-n I(x)) / (|a*| sigma sqrt(2 pi n)), plus the Gumbel mean of
    the extreme over 2^n codewords; on the min side it predicts relative
    errors of 22.5%, 13.7% and 10.0% at n=16/32/48 and 3.2% at n=200.  The
    5% bar is therefore applied at n=200, where the prediction clears it,
    and not at n=48, where no correct estimator can.  The n=200 point calls
    the two layers simulate_c_cdf loops over directly, sample_spectrum and
    then c_rand_via_cdf at r_fb=n, on 24 spectra with their own fixed seeds.
    """
    t0 = time.perf_counter()
    beta = 2.0
    res = asymptotic_limits(beta, 1.0)
    n_big, m_big = 200, 100
    spectra = [sample_spectrum(n_big, m_big, seed=1000 * 11 + k).eigenvalues
               for k in range(24)]
    summary = []
    ok = True
    for mode, target in (("min", res.x_minus), ("max", res.x_plus)):
        rels = []
        for n in (16, 32, 48):
            cfg = SimConfig(n=n, m=n // 2, r_fb=n, trials=60, seed=11, mode=mode)
            est = simulate_c_cdf(cfg, samples=20000, threads=4)
            rels.append(abs(beta * est.mean - target) / target)
        big = [c_rand_via_cdf(lam, n_big, mode, 20000, seed=1000 * 11 + 500 + k)
               for k, lam in enumerate(spectra)]
        est_big = float(np.mean(big)) * m_big / n_big
        rels.append(abs(beta * est_big - target) / target)
        monotone = all(a > b for a, b in zip(rels, rels[1:]))
        ok = ok and monotone and rels[-1] <= 0.05
        summary.append(f"{mode}: rel errs {'/'.join(f'{e:.3f}' for e in rels)} "
                       f"monotone={monotone} n=200<=5%={rels[-1] <= 0.05}")
    dt = time.perf_counter() - t0
    ok = ok and dt < 600.0
    line = report(5, ok, f"scaled selected extremes at n=16/32/48/200 vs "
                         f"limits; {'; '.join(summary)}; {dt:.1f}s")
    assert ok, line


def test_criterion_6_direct_and_spectral_estimators_agree():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(5):
        cfg = SimConfig(n=4, m=4, r_fb=2, trials=2000, seed=seed, mode="min")
        a = simulate_c_direct(cfg, threads=4)
        b = simulate_c_spectral(cfg, threads=4)
        worst = max(worst, abs(a.mean - b.mean) / math.hypot(a.stderr, b.stderr))
    dt = time.perf_counter() - t0
    ok = worst <= 3.0 and dt < 60.0
    line = report(6, ok, f"enumeration vs spectral route over 5 seeds, "
                         f"max|z|={worst:.2f} (3 sigma bar), {dt:.2f}s")
    assert ok, line


def test_criterion_7_tilted_mc_decay_rates_converge():
    t0 = time.perf_counter()
    target = rate_zero(RateContext(mp_law(1.0), 0.5)).value
    pairs = ldp_rate_estimate(1.0, 0.5, [50, 100, 200], 20000, seed=1)
    rels = [abs(rate - target) / target for _, rate in pairs]
    dt = time.perf_counter() - t0
    non_increasing = all(a >= b for a, b in zip(rels, rels[1:]))
    ok = non_increasing and rels[-1] <= 0.10 and dt < 120.0
    line = report(7, ok, f"decay-rate rel errs at n=50/100/200: "
                         f"{rels[0]:.3f}/{rels[1]:.3f}/{rels[2]:.3f}, "
                         f"non-increasing={non_increasing}, {dt:.2f}s")
    assert ok, line


def test_criterion_8_bound_ensemble_quantile_sandwich():
    t0 = time.perf_counter()
    x_limit = solve_x_minus(1.0, 1.0)[0]
    lam = sample_spectrum(200, 200, seed=1).eigenvalues
    bound = uniform_codebook_bound(lam, 200, "min", seed=101)
    ensemble = c_rand_via_cdf(lam, 200, "min", 20000, seed=201)
    xq = quantile_x_n(lam, 2.0**-200, seed=301)
    rel_b = abs(bound - x_limit) / x_limit
    rel_c = abs(ensemble - x_limit) / x_limit
    rel_q = abs(xq - x_limit) / x_limit
    dt = time.perf_counter() - t0
    ok = (bound <= ensemble and rel_b <= 0.15 and rel_c <= 0.15
          and rel_q <= 0.10 and dt < 300.0)
    line = report(8, ok, f"bound {bound:.4f} <= ensemble {ensemble:.4f}, rel "
                         f"errs vs limit: {rel_b:.3f}/{rel_c:.3f}, quantile "
                         f"{rel_q:.3f}, {dt:.2f}s")
    assert ok, line


def test_criterion_9_designed_codebooks_beat_random():
    t0 = time.perf_counter()
    stats = []
    for n, r_fb in ((4, 3), (8, 6)):
        cfg = SimConfig(n=n, m=n, r_fb=r_fb, trials=4000, seed=5, mode="max")
        designed = design_codebook(n, 1 << r_fb, seed=7)
        a = simulate_c_direct(cfg, codebook=designed, threads=4)
        b = simulate_c_direct(cfg, threads=4)
        gap = a.mean - b.mean
        stats.append((gap / math.hypot(a.stderr, b.stderr), gap / b.mean))
    dt = time.perf_counter() - t0
    ok = stats[0][0] > 3.0 and 0.0 < stats[1][1] < stats[0][1] and dt < 600.0
    line = report(9, ok, f"gap at n=4/R=3 is {stats[0][0]:.1f} sigma, rel gap "
                         f"{stats[0][1]:.4f} -> {stats[1][1]:.4f} at n=8/R=6, "
                         f"{dt:.1f}s")
    assert ok, line


def test_criterion_10_concentration_across_codebooks():
    t0 = time.perf_counter()
    cvs = []
    for n, r_fb in ((6, 6), (12, 12)):
        means = []
        for k in range(50):
            cb = random_codebook(n, 1 << r_fb, seed=1000 + k)
            cfg = SimConfig(n=n, m=n, r_fb=r_fb, trials=500, seed=77, mode="min")
            means.append(simulate_c_direct(cfg, codebook=cb, threads=4).mean)
        arr = np.array(means)
        cvs.append(float(arr.std(ddof=1) / arr.mean()))
    dt = time.perf_counter() - t0
    ok = cvs[1] < cvs[0] and dt < 600.0
    line = report(10, ok, f"codebook-to-codebook CV {cvs[0]:.5f} at (6,6) -> "
                          f"{cvs[1]:.5f} at (12,12), {dt:.1f}s")
    assert ok, line
