"""Finite-size Monte Carlo machinery for codebook selection.

Three routes to the selected quadratic form are kept deliberately separate
so they can cross-check one another:

* direct simulation of v* A v over an explicit codebook,
* the spectral representation min_k sum(lam_i |z_i|^2) / sum(|z_i|^2) with
  i.i.d. complex Gaussian codewords, driven by exponential weights,
* the conditional-CDF route, which integrates (1 - mu(x))^K and scales,
  reaching feedback depths where enumeration is impossible.

The conditional CDF itself is estimated by exponentially tilted importance
sampling with exact likelihood ratios, which keeps log-probabilities
accurate far into the tails.

All randomness flows through counter-based substreams derived from
(seed, role, trial), so results are independent of execution order.  Trials
run in order on the calling thread; BLAS threads are the only parallelism.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from ._brent import brentq
from .spectra import _SEED_MASK, _channel, _clipped_eigs, _complex_normal, sample_spectrum, mp_law

__all__ = [
    "Codebook",
    "SimConfig",
    "Estimate",
    "TiltedCdfResult",
    "BudgetError",
    "ReliabilityError",
    "DIRECT_BUDGET",
    "random_codebook",
    "min_chordal_distance",
    "design_codebook",
    "simulate_c_direct",
    "simulate_c_spectral",
    "simulate_c_cdf",
    "conditional_cdf_mc",
    "conditional_cdf_tilted",
    "ldp_rate_estimate",
    "c_rand_via_cdf",
    "quantile_x_n",
    "uniform_codebook_bound",
]

_LN2 = math.log(2.0)

DIRECT_BUDGET = 5_000_000_000  # max 2^R_fb * n * trials for enumeration paths
_MAX_ENTRIES = 1 << 24  # largest array one call builds: a trial's codewords, the design Gram

_GRAM_BLOCK = 512  # Gram rows formed at once by _max_cross_gain
_LEVEL_BLOCK = 16  # CDF levels whose tilted sums _log_cdf forms at once


class BudgetError(RuntimeError):
    """Requested enumeration work exceeds the configured compute budget."""


class ReliabilityError(RuntimeError):
    """An importance-sampling estimate is too degenerate to report."""


def _seed_sequence(seed: int, *path: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(seed) & _SEED_MASK, *path])


def _rng(seed: int, *path: int) -> np.random.Generator:
    # Philox is counter-based, so disjoint (seed, path) tuples give
    # independent streams.  Exponential draws all take the inverse CDF of
    # random() uniforms (_exponentials); a draw's last bit depends on numpy's
    # log1p build, AVX-512 SIMD or libm, which are at most 1 ulp apart.
    return np.random.Generator(np.random.Philox(seed=_seed_sequence(seed, *path)))


def _exponentials(rng: np.random.Generator, shape) -> np.ndarray:
    """Exp(1) draws -log1p(-u), one uniform u each, transformed in place."""
    u = rng.random(shape)
    np.negative(u, out=u)
    np.log1p(u, out=u)
    return np.negative(u, out=u)


def _child_seed(seed: int, *path: int) -> int:
    return int(_seed_sequence(seed, *path).generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# codebooks


@dataclasses.dataclass(frozen=True, eq=False)
class Codebook:
    """K unit-norm codewords in C^n, one per row of `vectors`."""

    n: int
    vectors: np.ndarray
    kind: str
    seed: int

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @functools.cached_property
    def min_chordal(self) -> float | None:
        """Minimum pairwise chordal distance; None for a single codeword.

        Computed from an O(K^2 n) Gram product on first read, then cached.
        """
        if self.size < 2:
            return None
        return _chordal_from_gain(_max_cross_gain(self.vectors))


def _unit_rows(z: np.ndarray) -> np.ndarray:
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


def _isotropic_rows(rng: np.random.Generator, size: int, n: int) -> np.ndarray:
    """size unit vectors in C^n drawn uniformly from the sphere."""
    return _unit_rows(_complex_normal(rng, (size, n)))


def _real_rows(v: np.ndarray) -> np.ndarray:
    """Rows [Re v, Im v]: complex C^n codewords embedded in R^2n."""
    return np.concatenate((v.real, v.imag), axis=1)


def _max_cross_gain(vectors: np.ndarray) -> float:
    """Largest off-diagonal |<v_i, v_j>|^2, from row blocks of the Gram's upper triangle."""
    worst = 0.0
    conj_t = vectors.conj().T
    for start in range(0, vectors.shape[0], _GRAM_BLOCK):
        p = np.abs(vectors[start:start + _GRAM_BLOCK] @ conj_t[:, start:]) ** 2
        np.fill_diagonal(p, 0.0)  # each row's gain with itself
        worst = max(worst, float(p.max()))
    return worst


def _chordal_from_gain(gain: float) -> float:
    return math.sqrt(max(0.0, 1.0 - gain))


def random_codebook(n: int, size: int, seed: int) -> Codebook:
    """Isotropically random codebook: normalized i.i.d. CN(0,1) rows."""
    if n < 1 or size < 1:
        raise ValueError(f"need n >= 1 and size >= 1, got n={n}, size={size}")
    vectors = _isotropic_rows(_rng(seed, 0), size, n)
    return Codebook(n=n, vectors=vectors, kind="random_isotropic", seed=int(seed))


def min_chordal_distance(codebook: Codebook) -> float:
    """Minimum pairwise chordal distance sqrt(1 - |<v_i, v_j>|^2)."""
    if codebook.size < 2:
        raise ValueError("min chordal distance needs at least two codewords")
    return codebook.min_chordal


def _design_descent(v0: np.ndarray, iterations: int) -> np.ndarray:
    """Soft-min descent on the worst pairwise gain, rows kept unit norm.

    v0 stacks restarts, shape (restarts, size, n), that step together.
    Returns the codebook of least worst pairwise gain over every path and
    iterate, starting points included, the earliest winning ties.
    """
    v = best_v = v0
    best_gain = np.full(v0.shape[0], math.inf)
    diag = np.arange(v0.shape[1])
    steps = max(1, iterations)
    for it in range(steps + 1):
        g = v @ v.conj().transpose(0, 2, 1)
        p = np.abs(g) ** 2
        p[:, diag, diag] = 0.0
        gain = p.max(axis=(1, 2))
        better = gain < best_gain
        best_gain = np.where(better, gain, best_gain)
        best_v = np.where(better[:, None, None], v, best_v)
        if it == steps:
            break
        frac = it / max(1, steps - 1)
        # Anneal the soft-min sharpness over five decades; the final tau must
        # separate pairwise gains that differ by ~1e-5 or the descent stalls
        # before the worst pairs equalize.
        tau = 8.0 * (1e6 / 8.0) ** frac
        eta = 0.7 * (2e-4 / 0.7) ** frac
        w = np.exp(tau * (p - gain[:, None, None]))
        w[:, diag, diag] = 0.0
        w /= w.reshape(len(w), -1).sum(axis=1)[:, None, None]  # >= 1: worst pair's is exp(0)
        grad = (w * g) @ v
        scale = np.linalg.norm(grad, axis=-1).max(axis=1)[:, None, None]
        # A restart with zero gradient (an orthonormal frame) stays put.
        moved = _unit_rows(v - (eta / np.where(scale > 0.0, scale, 1.0)) * grad)
        v = np.where(scale > 0.0, moved, v)
    return best_v[int(np.argmin(best_gain))]


def design_codebook(n: int, size: int, seed: int, iterations: int = 800) -> Codebook:
    """Grassmannian-style packing via soft-min gradient descent, 8 restarts.

    Deterministic in (seed, iterations).  Restart 0 starts from
    random_codebook(n, size, seed), so the designed codebook is never worse
    than that baseline; when size <= n one restart starts from an
    orthonormal frame, whose min chordal distance is already 1.
    """
    if n < 1 or size < 1:
        raise ValueError(f"need n >= 1 and size >= 1, got n={n}, size={size}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if 8 * size * size > _MAX_ENTRIES:
        raise BudgetError(
            f"the Gram of 8 restarts x {size}^2 codeword pairs exceeds the cap of "
            f"{_MAX_ENTRIES} array entries"
        )
    if size == 1:
        vectors = random_codebook(n, 1, seed).vectors
        return Codebook(n=n, vectors=vectors, kind="designed", seed=int(seed))

    inits = [random_codebook(n, size, seed).vectors]
    inits += [_isotropic_rows(_rng(seed, 30 + j), size, n) for j in range(1, 8)]
    if size <= n:
        q, _ = np.linalg.qr(_complex_normal(_rng(seed, 29), (n, n)))
        inits[1] = q[:size].copy()

    vectors = _design_descent(np.stack(inits), iterations)
    return Codebook(n=n, vectors=vectors, kind="designed", seed=int(seed))


# ---------------------------------------------------------------------------
# enumeration estimators


@dataclasses.dataclass(frozen=True)
class SimConfig:
    """One finite-size experiment: n x m channel, feedback depth r_fb bits."""

    n: int
    m: int
    r_fb: int
    trials: int
    seed: int
    mode: str = "min"

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError(f"n and m must be >= 1, got n={self.n}, m={self.m}")
        if self.r_fb < 0:
            raise ValueError(f"r_fb must be >= 0, got {self.r_fb}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.mode not in ("min", "max"):
            raise ValueError(f"mode must be 'min' or 'max', got {self.mode!r}")


@dataclasses.dataclass(frozen=True)
class Estimate:
    mean: float
    stderr: float
    samples: int


def _estimate_from(trials: int, worker) -> Estimate:
    """Mean and standard error of worker(t) over trials t = 0..trials-1."""
    vals = np.array([worker(t) for t in range(trials)], dtype=float)
    stderr = float(np.std(vals, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return Estimate(mean=float(vals.mean()), stderr=stderr, samples=trials)


def _check_budget(cfg: SimConfig, codebook: Codebook | None = None) -> int:
    """Codewords each trial enumerates: the codebook's size, else 2^r_fb."""
    # r_fb is tested first so 2^r_fb is never built for deep feedback.
    k = 0 if cfg.r_fb > 62 else (1 << cfg.r_fb) if codebook is None else codebook.size
    if k == 0 or k * cfg.n * cfg.trials > DIRECT_BUDGET:
        words = f"2^{cfg.r_fb}" if codebook is None or k == 0 else k
        raise BudgetError(
            f"enumeration of {words} codewords x n={cfg.n} x {cfg.trials} trials "
            f"exceeds the budget of {DIRECT_BUDGET:.2e} element ops; "
            "use the conditional-CDF route instead"
        )
    if k * cfg.n > _MAX_ENTRIES:
        raise BudgetError(
            f"{k} codewords x n={cfg.n} per trial exceed the cap of {_MAX_ENTRIES} "
            "array entries; use the conditional-CDF route instead"
        )
    return k


def simulate_c_direct(cfg: SimConfig, codebook: Codebook | None = None, threads: int = 1) -> Estimate:
    """Selected quadratic form of (1/n) H H* by explicit enumeration.

    codebook=None redraws an isotropic codebook every trial (the random
    ensemble); a fixed Codebook evaluates that specific design.
    `threads` is accepted and ignored: trials run in order on this thread.
    """
    k = _check_budget(cfg, codebook)
    if codebook is not None and codebook.n != cfg.n:
        raise ValueError(f"codebook dimension {codebook.n} != cfg.n {cfg.n}")
    fixed = None if codebook is None else _real_rows(codebook.vectors)
    pick = np.min if cfg.mode == "min" else np.max

    def worker(t: int) -> float:
        rng = _rng(cfg.seed, 1, t)
        h = _channel(rng, cfg.n, cfg.m)
        a = (h @ h.conj().T) / cfg.n
        vr = _real_rows(_isotropic_rows(rng, k, cfg.n)) if fixed is None else fixed
        # Re(v* A v) = [Re v, Im v] A_r [Re v, Im v]^T: one real GEMM.
        a_r = np.block([[a.real, -a.imag], [a.imag, a.real]])
        quad = np.einsum("ij,ij->i", vr @ a_r, vr)
        return float(pick(quad))

    return _estimate_from(cfg.trials, worker)


def simulate_c_spectral(cfg: SimConfig, threads: int = 1) -> Estimate:
    """Random-ensemble estimator through the spectral representation.

    Conditional on the spectrum of (1/m) H H*, each isotropic codeword's
    quadratic form is distributed as sum(lam_i Y_i)/sum(Y_i) with Y ~ Exp(1)
    i.i.d.; the m/n factor converts back to (1/n) H H* units.
    `threads` is accepted and ignored: trials run in order on this thread.
    """
    k = _check_budget(cfg)
    pick = np.min if cfg.mode == "min" else np.max
    factor = cfg.m / cfg.n

    def worker(t: int) -> float:
        rng = _rng(cfg.seed, 2, t)
        lam = _clipped_eigs(_channel(rng, cfg.n, cfg.m))
        y = _exponentials(rng, (k, cfg.n))
        ratios = (y @ lam) / y.sum(axis=1)
        return factor * float(pick(ratios))

    return _estimate_from(cfg.trials, worker)


def simulate_c_cdf(cfg: SimConfig, samples: int = 20000, threads: int = 1) -> Estimate:
    """Random-ensemble estimator through the conditional-CDF integral.

    Each trial draws one spectrum and integrates the selected-extreme
    identity E[extreme | lam] over it, so the feedback depth never enters
    as an enumeration count.  Far cheaper than simulate_c_direct once
    2^r_fb codewords stop fitting in memory, at the price of a small
    integration bias controlled by `samples` and the grid refinement.
    `threads` is accepted and ignored: trials run in order on this thread.
    """
    factor = cfg.m / cfg.n

    def worker(t: int) -> float:
        spec = sample_spectrum(cfg.n, cfg.m, _child_seed(cfg.seed, 3, t))
        val = c_rand_via_cdf(
            spec.eigenvalues, cfg.r_fb, cfg.mode, samples, _child_seed(cfg.seed, 4, t)
        )
        return factor * val

    return _estimate_from(cfg.trials, worker)


# ---------------------------------------------------------------------------
# conditional CDF of the weighted exponential ratio


def _as_spectrum(lam) -> np.ndarray:
    arr = np.asarray(lam, dtype=float).ravel()
    if arr.size < 1 or not np.isfinite(arr).all():
        raise ValueError("spectrum must be a non-empty finite array")
    return arr


def conditional_cdf_mc(lam, x: float, samples: int, seed: int) -> float:
    """Plain Monte Carlo estimate of P(sum (lam_i - x) Y_i <= 0)."""
    arr = _as_spectrum(lam)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    coeffs = arr - float(x)
    rng = _rng(seed, 10)
    hits = 0
    remaining = int(samples)
    chunk = max(1, min(remaining, 8_000_000 // max(1, arr.size)))
    while remaining > 0:
        take = min(chunk, remaining)
        s = _exponentials(rng, (take, arr.size)) @ coeffs
        hits += int(np.count_nonzero(s <= 0.0))
        remaining -= take
    return hits / samples


@dataclasses.dataclass(frozen=True)
class TiltedCdfResult:
    x: float
    log_prob: float
    ess: float
    gamma: float


def _panel(arr: np.ndarray, samples: int, seed: int, role: int) -> np.ndarray:
    """Standard exponential draws, one row of len(arr) per sample."""
    return _exponentials(_rng(seed, role), (int(samples), arr.size))


def _tilt_root(coeffs: np.ndarray) -> float:
    """Tilt gamma centering the weighted exponential sum at zero.

    g(gamma) = sum c_i / (1 - gamma c_i) is strictly increasing between the
    poles 1/c_min < 0 < 1/c_max, so the root is unique.  Each bracket end
    sits a relative 1e-9 inside its pole, where the pole term outweighs
    every other term about 1e9-fold, so g changes sign across the bracket
    for fewer than 1e9 coefficients.  Callers pass x strictly inside the
    spectrum, which makes c_min < 0 < c_max.
    """
    lo = (1.0 - 1e-9) / float(coeffs.min())
    hi = (1.0 - 1e-9) / float(coeffs.max())

    def g(gamma: float) -> float:
        return float((coeffs / (1.0 - gamma * coeffs)).sum())

    if g(0.0) == 0.0:
        return 0.0
    return brentq(g, lo, hi, xtol=1e-13, rtol=8.9e-16)


def _log_cdf(arr: np.ndarray, expo: np.ndarray, xs) -> list[tuple[float, float, float, float]]:
    """log P(sum (arr_i - x) Y_i <= 0) at each level x of xs, by exact-likelihood-ratio tilting.

    expo is a _panel of the spectrum.  Each level keeps its own tilt root;
    the tilted sums of _LEVEL_BLOCK levels come from one panel product.  The
    indicator is taken on the rare side of the tilt.  Returns, per level,
    (log_prob, effective sample size, stderr of the rare-side log estimate,
    gamma).
    """
    xs = np.asarray(xs, dtype=float)
    n = expo.shape[0]
    buf = np.empty((min(_LEVEL_BLOCK, xs.size), n))
    out = []
    for start in range(0, xs.size, _LEVEL_BLOCK):
        coeffs = arr - xs[start:start + _LEVEL_BLOCK, None]
        gammas = np.array([_tilt_root(c) for c in coeffs])
        rho = 1.0 - gammas[:, None] * coeffs
        sums = np.matmul(coeffs / rho, expo.T, out=buf[:len(coeffs)])
        for c, gamma, r, s in zip(coeffs, gammas.tolist(), rho, sums):
            lower = float(c.sum()) >= 0.0
            hits = np.compress((s <= 0.0) if lower else (s > 0.0), s)
            if hits.size == 0:
                log_p, ess, se_log = -math.inf, 0.0, math.inf
            else:
                lw = -float(np.log(r).sum()) - gamma * hits
                m = float(lw.max())
                u = np.exp(lw - m)
                s1 = float(u.sum())
                s2 = float((u * u).sum())
                log_p = m + math.log(s1) - math.log(n)
                ess = s1 * s1 / s2
                # stderr of log p from the weight second moment (weights off
                # the event count as zero).
                ratio = n * s2 / (s1 * s1) - 1.0
                se_log = math.sqrt(max(ratio, 0.0) / n)
            if not lower:
                q = math.exp(min(log_p, -1e-17))
                log_p = math.log1p(-min(q, 1.0 - 1e-16))
            out.append((log_p, ess, se_log, gamma))
    return out


def conditional_cdf_tilted(lam, x: float, samples: int, seed: int) -> TiltedCdfResult:
    """Tilted importance-sampling estimate of log P(sum (lam_i - x) Y_i <= 0).

    x must lie strictly between the smallest and largest spectrum values.
    Raises ReliabilityError when the effective sample size drops below 10.
    """
    arr = _as_spectrum(lam)
    x = float(x)
    if not (arr.min() < x < arr.max()):
        raise ValueError(
            f"x={x!r} must lie strictly inside the spectrum range "
            f"({arr.min():.6g}, {arr.max():.6g})"
        )
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    ((log_p, ess, _, gamma),) = _log_cdf(arr, _panel(arr, samples, seed, 11), [x])
    if ess < 10.0:
        raise ReliabilityError(
            f"effective sample size {ess:.2f} < 10 at x={x:.6g}; "
            f"increase samples (gamma={gamma:.4g})"
        )
    return TiltedCdfResult(x=x, log_prob=min(log_p, 0.0), ess=ess, gamma=gamma)


def ldp_rate_estimate(beta: float, x: float, n_list, samples: int, seed: int) -> list[tuple[int, float]]:
    """Empirical decay rates -log mu_n / n along a list of sizes.

    Each size draws one spectrum at m = round(n / beta) and estimates the
    conditional tail probability at level x by tilted sampling.  Levels
    below the mean probe the lower tail; levels above it are handled by
    negating the spectrum, which swaps the tails.
    """
    law = mp_law(beta)
    if not (law.lambda_t_minus < x < law.lambda_plus) or x == 1.0:
        raise ValueError(
            f"x={x!r} must lie in ({law.lambda_t_minus}, {law.lambda_plus}) "
            "and away from the mean at 1"
        )
    out: list[tuple[int, float]] = []
    for n in n_list:
        n = int(n)
        if n < 1:
            raise ValueError(f"sizes must be >= 1, got {n}")
        m = max(1, round(n / beta))
        spec = sample_spectrum(n, m, _child_seed(seed, 21, n))
        eigs = spec.eigenvalues
        if x <= float(eigs.min()) or x >= float(eigs.max()):
            raise ReliabilityError(
                f"level x={x:.6g} fell outside the sampled spectrum at n={n}"
            )
        sign = -1.0 if x > 1.0 else 1.0
        res = conditional_cdf_tilted(sign * eigs, sign * x, samples, _child_seed(seed, 22, n))
        out.append((n, -res.log_prob / n))
    return out


# ---------------------------------------------------------------------------
# conditional-CDF route to the selected extremes


def _survival_power(log_p: float, r_fb: int) -> float:
    """(1 - p)^(2^r_fb) from log p, stable across the whole range."""
    if log_p >= -1e-12:
        return 0.0
    if log_p > -37.0:
        log_t = r_fb * _LN2 + math.log(-math.log1p(-math.exp(log_p)))
    else:
        log_t = r_fb * _LN2 + log_p
    if log_t > 709.0:
        return 0.0
    return math.exp(-math.exp(log_t))


def _grid_integral(f, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """Trapezoid integral of f over [lo, hi] on an adaptive grid.

    f maps an array of levels to an array of values.  The grid starts from
    64 even nodes (f_lo and f_hi are the known end values) and bisects, a
    round at a time, every interval whose end values differ by more than
    0.2; f sees the 62 inner nodes in one call, then each round's midpoints.
    """
    xs = np.linspace(lo, hi, 64)
    vals = np.concatenate(([f_lo], f(xs[1:-1]), [f_hi]))
    while True:
        splits = np.flatnonzero((np.abs(np.diff(vals)) > 0.2) & (np.diff(xs) > 1e-12))
        if splits.size == 0:
            break
        if xs.size + splits.size > 4096:
            raise BudgetError("integration grid would exceed 4096 nodes; integrand too sharp")
        mids = 0.5 * (xs[splits] + xs[splits + 1])
        xs = np.insert(xs, splits + 1, mids)
        vals = np.insert(vals, splits + 1, f(mids))
    # Summed left to right: np.sum's pairwise order would move the result.
    return float(np.cumsum(0.5 * (vals[:-1] + vals[1:]) * np.diff(xs))[-1])


def _level_bisect(arr: np.ndarray, expo: np.ndarray, target: float, se_stop: bool) -> float:
    """Level x with log_cdf(x) = target, by bisection on one panel.

    Common random numbers keep the estimated CDF monotone in x.  The search
    stays strictly inside the spectrum, where the tilt root exists; se_stop
    also ends it once the estimate is within one standard error of target.
    """
    lmin = float(arr.min())
    lmax = float(arr.max())
    span = lmax - lmin
    a = max(lmin + 1e-9 * span, float(np.nextafter(lmin, lmax)))
    b = min(lmax - 1e-9 * span, float(np.nextafter(lmax, lmin)))
    if _log_cdf(arr, expo, [a])[0][0] >= target:
        return a
    if _log_cdf(arr, expo, [b])[0][0] <= target:
        return b
    for _ in range(80):
        mid = 0.5 * (a + b)
        if (b - a) <= 1e-9 * span:
            return mid
        ((log_p, _, se, _),) = _log_cdf(arr, expo, [mid])
        if se_stop and abs(log_p - target) <= se:
            return mid
        if log_p < target:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def _is_degenerate(lmin: float, lmax: float) -> bool:
    """A spectrum no wider than 1e-14 * max(1, |upper edge|) counts as one point."""
    return lmax - lmin <= 1e-14 * max(1.0, abs(lmax))


def _min_or_mirrored_max(fn, lam, r_fb: int, mode: str, samples: int, seed: int) -> float:
    """Validate, then run fn on the spectrum (min) or its negation (max).

    Degenerate input never reaches fn: a degenerate spectrum (_is_degenerate,
    taken after the negation) returns its edge, and r_fb = 0, a single
    codeword, returns the spectrum mean.
    """
    arr = _as_spectrum(lam)
    if r_fb < 0:
        raise ValueError(f"r_fb must be >= 0, got {r_fb}")
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    sign = 1.0 if mode == "min" else -1.0
    arr = sign * arr
    lmin = float(arr.min())
    lmax = float(arr.max())
    if _is_degenerate(lmin, lmax):
        return sign * lmin
    if r_fb == 0:
        return sign * float(arr.mean())
    return sign * fn(arr, r_fb, samples, seed)


def _c_min_via_cdf(arr: np.ndarray, r_fb: int, samples: int, seed: int) -> float:
    lmin = float(arr.min())
    expo = _panel(arr, samples, seed, 12)

    def integrand(xs: np.ndarray) -> np.ndarray:
        return np.array([_survival_power(lp, r_fb) for lp, *_ in _log_cdf(arr, expo, xs)])

    return lmin + _grid_integral(integrand, lmin, float(arr.max()), 1.0, 0.0)


def c_rand_via_cdf(lam, r_fb: int, mode: str, samples: int, seed: int) -> float:
    """Conditional random-ensemble extreme, integrated through the CDF.

    Returns E[ extreme_k sum(lam_i Y_i)/sum(Y_i) | lam ] over 2^r_fb
    independent codewords, in the units of the supplied spectrum; callers
    apply the m/n channel normalization and any averaging over spectra.
    Feedback depths far beyond enumeration are fine since 2^r_fb only ever
    appears inside logarithms.
    """
    return _min_or_mirrored_max(_c_min_via_cdf, lam, r_fb, mode, samples, seed)


def quantile_x_n(lam, p: float, seed: int, samples: int = 20000) -> float:
    """Level x with conditional CDF mu(x) = p, by bisection in x.

    Common random numbers across bisection steps keep the estimated CDF
    monotone in x, so the search is stable even for p around 2^(-200).
    A degenerate spectrum (_is_degenerate) raises ValueError.
    """
    arr = _as_spectrum(lam)
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must be in (0, 1), got {p!r}")
    if _is_degenerate(float(arr.min()), float(arr.max())):
        raise ValueError("spectrum is degenerate; the quantile is not defined")
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    return _level_bisect(arr, _panel(arr, samples, seed, 13), math.log(p), se_stop=True)


def _uniform_min_bound(arr: np.ndarray, r_fb: int, samples: int, seed: int) -> float:
    lmin = float(arr.min())
    expo = _panel(arr, samples, seed, 14)

    def integrand(xs: np.ndarray) -> np.ndarray:
        # min(2^r_fb mu(x), 1), evaluated in logs.
        logs = [r_fb * _LN2 + lp for lp, *_ in _log_cdf(arr, expo, xs)]
        return np.array([math.exp(min(0.0, t)) for t in logs])

    # Quantile at 2^-r_fb with the same exponential panel.
    xq = _level_bisect(arr, expo, -r_fb * _LN2, se_stop=False)
    if xq - lmin <= 1e-12 * max(1.0, abs(lmin)):
        return xq
    return xq - _grid_integral(integrand, lmin, xq, 0.0, integrand(np.array([xq]))[0])


def uniform_codebook_bound(lam, r_fb: int, mode: str, seed: int, samples: int = 20000) -> float:
    """Codebook-independent conditional bound on the selected extreme.

    mode 'min': a lower bound on E[min | lam] valid for every codebook of
    2^r_fb codewords under the isotropic selection statistics; mode 'max'
    gives the mirrored upper bound.  r_fb = 0 returns the conditional mean.
    """
    return _min_or_mirrored_max(_uniform_min_bound, lam, r_fb, mode, samples, seed)
