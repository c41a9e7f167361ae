"""The four benchmark workloads: inputs from a seed, one op, and its checks.

Each workload builds a fixed list of op inputs from the workload seed and
the timed loop cycles through that list, so the default seed's outputs can
be compared op by op against a recorded reference whatever the run length.
The list is `rounds` rounds in a row, a round being one input of each kind,
so every round does the same mix of work.
Inputs are plain JSON values; the program only ever sees what `run` passes
it.  Every call goes through an attribute of the `fblimits` package at call
time, so the traced run's wrappers see it.

`check` returns None for a correct output or a one-line reason.  It holds
only invariants that every correct output satisfies for any seed.
"""

from __future__ import annotations

import math
import random

GRID = (0.25, 0.5, 1.0, 2.0, 4.0)  # criterion 1's beta and r values
_LN2 = math.log(2.0)
# Criterion 1 tolerance between the closed form and rate inversion.
_SOLVER_AGREEMENT = 1e-6


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


class LimitsSweep:
    """Criterion 1's 5x5 (beta, r) grid: closed forms, rate inversion, rate_function."""

    name = "limits_sweep"
    threads = 1
    rounds = 1

    @staticmethod
    def build(seed: int) -> list[dict]:
        rng = random.Random(seed)
        points = [(b, r) for b in GRID for r in GRID]
        rng.shuffle(points)
        return [{"beta": b, "r": r, "t_frac": rng.uniform(0.05, 0.95)} for b, r in points]

    @staticmethod
    def run(fb, p: dict) -> tuple:
        beta, r = p["beta"], p["r"]
        res = fb.asymptotic_limits(beta, r)
        lo = fb.solve_x_by_rate(beta, r, "minus")
        hi = fb.solve_x_by_rate(beta, r, "plus")
        # t strictly between 0 and the mean gap 1 - x, where the transform
        # falls from r log 2 at t = 0 to 0 at the gap.
        ctx = fb.RateContext(fb.mp_law(beta), res.x_minus)
        rf = fb.rate_function(ctx, p["t_frac"] * (1.0 - res.x_minus))
        return (res.x_minus, res.x_plus, lo, hi, rf.value, rf.alpha_star)

    @staticmethod
    def check(fb, p: dict, out: tuple) -> str | None:
        x_minus, x_plus, lo, hi, value, _ = out
        law = fb.mp_law(p["beta"])
        if not _finite(out):
            return "non-finite output"
        gap = max(abs(x_minus - lo), abs(x_plus - hi))
        if gap > _SOLVER_AGREEMENT:
            return f"closed form and solve_x_by_rate differ by {gap:.3g}"
        if not (law.lambda_t_minus < x_minus < 1.0 < x_plus < law.lambda_plus):
            return f"levels {x_minus!r}, {x_plus!r} outside the support"
        if not (0.0 < value < p["r"] * _LN2):
            return f"rate_function value {value!r} outside (0, r log 2)"
        return None


class CdfExtremes:
    """Criterion 5's six configurations through simulate_c_cdf, one trial per op."""

    name = "cdf_extremes"
    # threads=2 ran slower and less steadily on this route with OpenBLAS
    # unpinned; see perfbench/README.md.
    threads = 1
    beta = 2.0
    samples = 20000
    rounds = 20

    @classmethod
    def build(cls, seed: int) -> list[dict]:
        rng = random.Random(seed)
        return [
            {"n": n, "mode": mode, "seed": rng.getrandbits(32)}
            for _ in range(cls.rounds)
            for n in (16, 32, 48)
            for mode in ("min", "max")
        ]

    @classmethod
    def run(cls, fb, p: dict) -> tuple:
        n = p["n"]
        cfg = fb.SimConfig(n=n, m=n // 2, r_fb=n, trials=1, seed=p["seed"], mode=p["mode"])
        return (fb.simulate_c_cdf(cfg, samples=cls.samples, threads=cls.threads).mean,)

    @classmethod
    def check(cls, fb, p: dict, out: tuple) -> str | None:
        (c,) = out
        # In (1/n) H H* units the limit spectrum is [0, lambda_plus / beta].
        top = fb.mp_law(cls.beta).lambda_plus / cls.beta
        if not (math.isfinite(c) and 0.0 < c < top):
            return f"estimate {c!r} outside the spectrum range (0, {top:.6g})"
        return None


class TailSearch:
    """Tilted-CDF searches one level at a time on fresh n = m = 200 spectra."""

    name = "tail_search"
    threads = 1
    n = 200
    r_fb = 200
    rounds = 30

    @classmethod
    def build(cls, seed: int) -> list[dict]:
        rng = random.Random(seed)
        return [
            {"kind": kind, "seed": rng.getrandbits(32), "spectrum_seed": rng.getrandbits(32)}
            for _ in range(cls.rounds)
            for kind in ("quantile", "bound", "ldp")
        ]

    @classmethod
    def run(cls, fb, p: dict) -> tuple:
        if p["kind"] == "ldp":
            pairs = fb.ldp_rate_estimate(1.0, 0.5, [50, 100, 200], 20000, seed=p["seed"])
            return tuple(rate for _, rate in pairs)
        lam = fb.sample_spectrum(cls.n, cls.n, seed=p["spectrum_seed"]).eigenvalues
        if p["kind"] == "quantile":
            x = fb.quantile_x_n(lam, 2.0 ** -cls.r_fb, seed=p["seed"])
        else:
            x = fb.uniform_codebook_bound(lam, cls.r_fb, "min", seed=p["seed"])
        return (x, float(lam.min()), float(lam.max()))

    @staticmethod
    def check(fb, p: dict, out: tuple) -> str | None:
        if not _finite(out):
            return "non-finite output"
        if p["kind"] == "ldp":
            if not all(rate > 0.0 for rate in out):
                return f"decay rates {out!r} not all positive"
            return None
        x, lmin, lmax = out
        inside = lmin < x < lmax if p["kind"] == "quantile" else lmin <= x < lmax
        if not inside:
            return f"{p['kind']} {x!r} outside the spectrum range ({lmin!r}, {lmax!r})"
        return None


class CodebookEnum:
    """Enumeration over explicit codebooks, the spectral shortcut and design.

    Trial counts put the fixed-codebook and fresh-codebook calls at about the
    same latency, between the short spectral call and the long design call,
    so the median op sits inside one band of latencies instead of on the
    step between two.
    """

    name = "codebook_enum"
    threads = 2
    rounds = 32
    trials = {"fixed": 24, "fresh": 800, "spectral": 100}

    @classmethod
    def build(cls, seed: int) -> list[dict]:
        rng = random.Random(seed)
        out = []
        for _ in range(cls.rounds):
            out += [
                {"kind": "fixed", "seed": rng.getrandbits(32), "codebook_seed": rng.getrandbits(32)},
                {"kind": "fresh", "seed": rng.getrandbits(32)},
                {"kind": "spectral", "seed": rng.getrandbits(32)},
                {"kind": "design", "seed": rng.getrandbits(32)},
            ]
        return out

    @classmethod
    def run(cls, fb, p: dict) -> tuple:
        kind = p["kind"]
        if kind == "design":
            return (fb.design_codebook(4, 8, seed=p["seed"]).min_chordal,)
        if kind == "fixed":
            # Criterion 10's size: n = 12, 2^12 words, one codebook per op.
            codebook = fb.random_codebook(12, 4096, seed=p["codebook_seed"])
            cfg = fb.SimConfig(n=12, m=12, r_fb=12, trials=cls.trials["fixed"], seed=p["seed"])
            est = fb.simulate_c_direct(cfg, codebook=codebook, threads=cls.threads)
            return (codebook.min_chordal, est.mean, est.stderr)
        cfg = fb.SimConfig(n=8, m=8, r_fb=8, trials=cls.trials[kind], seed=p["seed"])
        if kind == "fresh":
            est = fb.simulate_c_direct(cfg, threads=cls.threads)
        else:
            est = fb.simulate_c_spectral(cfg, threads=cls.threads)
        return (est.mean, est.stderr)

    @staticmethod
    def check(fb, p: dict, out: tuple) -> str | None:
        if not _finite(out):
            return "non-finite output"
        kind = p["kind"]
        if kind == "design":
            (chordal,) = out
            # Restart 0 starts from this random codebook and the descent
            # keeps its best point, so the design never falls below it.
            baseline = fb.random_codebook(4, 8, seed=p["seed"]).min_chordal
            if not (baseline <= chordal <= 1.0):
                return f"designed min chordal {chordal!r} outside [{baseline!r}, 1]"
            return None
        if kind == "fixed":
            chordal, mean, stderr = out
            if not (0.0 < chordal <= 1.0):
                return f"min chordal {chordal!r} outside (0, 1]"
        else:
            mean, stderr = out
        # beta = 1: the limit spectrum of (1/n) H H* is [0, 4].
        if not (0.0 < mean < 4.0 and stderr >= 0.0):
            return f"estimate {mean!r} +- {stderr!r} outside the spectrum range (0, 4)"
        return None


WORKLOADS = {w.name: w for w in (LimitsSweep, CdfExtremes, TailSearch, CodebookEnum)}
