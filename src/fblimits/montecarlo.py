"""Finite-size Monte Carlo machinery for codebook selection.

Three routes to the selected quadratic form are kept deliberately separate
so they can cross-check one another.  Each computes a minimum; a maximum is
the mirrored minimum, max v = -min(-v), which negation keeps exact:

* direct simulation of v* A v over an explicit codebook,
* the spectral representation min_k sum(lam_i |z_i|^2) / sum(|z_i|^2) with
  i.i.d. complex Gaussian codewords, driven by exponential weights,
* the conditional-CDF route, which integrates (1 - mu(x))^K and scales,
  reaching feedback depths where enumeration is impossible.

The conditional CDF is estimated by exponentially tilted importance sampling
with exact likelihood ratios, so log-probabilities stay accurate in the tails.

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
from .spectra import _SEED_MASK, _channel, _clipped_eigs, _complex_normal, _integer
from .spectra import MpLaw, mp_law, sample_spectrum

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
_MAX_ENTRIES = 1 << 24  # largest array built at once: in a block of enumeration trials, the design Gram

# Gram rows formed at once by _max_cross_gain.  64 rows of 4096 words are a
# 4 MB complex block and a 2 MB modulus, which stay in cache between the
# product and the max; 32 and 128 rows time about the same, 512 about twice
# as slow.
_GRAM_BLOCK = 64
_TRIAL_BLOCK = 64  # direct trials drawn one by one, then computed together
_LEVEL_BLOCK = 16  # CDF levels whose tilted sums _log_cdf forms at once


class BudgetError(RuntimeError):
    """Requested enumeration work exceeds the configured compute budget."""


class ReliabilityError(RuntimeError):
    """An importance-sampling estimate is too degenerate to report."""


def _seed_sequence(seed: int, *path: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([_integer("seed", seed) & _SEED_MASK, *path])


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
        The Gram is formed _GRAM_BLOCK rows at a time, so the read holds at
        most _GRAM_BLOCK x K x 24 bytes of it (a complex block and its
        modulus) next to one conjugated copy of the codewords.
        """
        if self.size < 2:
            return None
        return math.sqrt(max(0.0, 1.0 - _max_cross_gain(self.vectors)))


def _unit_rows(z: np.ndarray) -> np.ndarray:
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


def _isotropic_rows(rng: np.random.Generator, size: int, n: int) -> np.ndarray:
    """size unit vectors in C^n drawn uniformly from the sphere."""
    return _unit_rows(_complex_normal(rng, (size, n)))


def _real_rows(v: np.ndarray) -> np.ndarray:
    """Rows [Re v, Im v]: complex C^n codewords embedded in R^2n."""
    return np.concatenate((v.real, v.imag), axis=-1)


def _max_cross_gain(vectors: np.ndarray) -> float:
    """Largest off-diagonal |<v_i, v_j>|^2, from row blocks of the Gram's upper triangle.

    The running max is taken over |<v_i, v_j>| and squared once: rounding is
    monotone, so max(|g|)^2 == max(|g|^2) exactly.
    """
    worst = 0.0
    conj_t = vectors.conj().T
    for start in range(0, vectors.shape[0], _GRAM_BLOCK):
        p = np.abs(vectors[start:start + _GRAM_BLOCK] @ conj_t[:, start:])
        np.fill_diagonal(p, 0.0)  # each row's gain with itself
        worst = max(worst, float(p.max()))
    return worst * worst


def random_codebook(n: int, size: int, seed: int) -> Codebook:
    """Isotropically random codebook: normalized i.i.d. CN(0,1) rows."""
    n, size, seed = _integer("n", n, 1), _integer("size", size, 1), _integer("seed", seed)
    vectors = _isotropic_rows(_rng(seed, 0), size, n)
    return Codebook(n=n, vectors=vectors, kind="random_isotropic", seed=seed)


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
    for it in range(iterations + 1):
        g = v @ v.conj().transpose(0, 2, 1)
        p = np.abs(g) ** 2
        p[:, diag, diag] = 0.0
        gain = p.max(axis=(1, 2))
        better = gain < best_gain
        best_gain = np.where(better, gain, best_gain)
        best_v = np.where(better[:, None, None], v, best_v)
        if it == iterations:
            break
        frac = it / max(1, iterations - 1)
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


def _hold(entries: int, what: str) -> None:
    """Refuse, with BudgetError, an array of more than _MAX_ENTRIES entries."""
    if entries > _MAX_ENTRIES:
        raise BudgetError(f"{what} holds {entries} entries, over the cap of {_MAX_ENTRIES}")


def design_codebook(n: int, size: int, seed: int, iterations: int = 800) -> Codebook:
    """Grassmannian-style packing via soft-min gradient descent, 8 restarts.

    Deterministic in (seed, iterations).  Restart 0 starts from
    random_codebook(n, size, seed), so the designed codebook is never worse
    than that baseline; when size <= n one restart starts from an
    orthonormal frame, whose min chordal distance is already 1.
    """
    n, size, seed = _integer("n", n, 1), _integer("size", size, 1), _integer("seed", seed)
    iterations = _integer("iterations", iterations, 1)
    _hold(8 * size * size, f"the Gram of 8 restarts x {size}^2 codeword pairs")
    vectors = random_codebook(n, size, seed).vectors
    if size > 1:
        inits = [vectors]
        if size <= n:  # the frame takes restart 1's place, so role 31 is never drawn
            inits.append(np.linalg.qr(_complex_normal(_rng(seed, 29), (n, n)))[0][:size])
        inits += [_isotropic_rows(_rng(seed, 30 + j), size, n) for j in range(len(inits), 8)]
        vectors = _design_descent(np.stack(inits), iterations)
    return Codebook(n=n, vectors=vectors, kind="designed", seed=seed)


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
        for name, least in (("n", 1), ("m", 1), ("r_fb", 0), ("trials", 1), ("seed", None)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), least))
        _check_selection(self.r_fb, self.mode)


def _check_selection(r_fb: int, mode: str) -> float:
    """Refuse a bad r_fb or mode; else the mirror sign, +1 'min' or -1 'max' (max v = -min(-v))."""
    _integer("r_fb", r_fb, 0)
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    return 1.0 if mode == "min" else -1.0


@dataclasses.dataclass(frozen=True)
class Estimate:
    mean: float
    stderr: float
    samples: int


def _estimate_from(vals: np.ndarray) -> Estimate:
    """Mean and standard error of the per-trial values, in trial order."""
    trials = len(vals)
    stderr = float(np.std(vals, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return Estimate(mean=float(vals.mean()), stderr=stderr, samples=trials)


def _trial_blocks(trials: int, entries: int) -> list[range]:
    """Consecutive trial ranges of at most _TRIAL_BLOCK trials.

    A block holds at most _MAX_ENTRIES array entries when each trial holds
    `entries`, which _check_budget has already held to the cap.
    """
    step = min(_TRIAL_BLOCK, _MAX_ENTRIES // entries)
    return [range(start, min(start + step, trials)) for start in range(0, trials, step)]


def _check_budget(cfg: SimConfig, codebook: Codebook | None = None, direct=True) -> tuple[int, int]:
    """Codewords each trial enumerates, and the entries of its largest array.

    The codewords are the codebook's size, else 2^r_fb.  A direct trial's
    largest array is its channel (n m), its real A (4 n^2), or its codewords'
    real rows and their products with A (2 k n each); a spectral trial's is
    its channel, its Gram (n^2) or its k x n exponential panel.
    """
    n, m = cfg.n, cfg.m
    # r_fb is tested first so 2^r_fb is never built for deep feedback.
    k = 0 if cfg.r_fb > 62 else (1 << cfg.r_fb) if codebook is None else codebook.size
    if k == 0 or k * n * cfg.trials > DIRECT_BUDGET:
        words = f"2^{cfg.r_fb}" if codebook is None or k == 0 else k
        raise BudgetError(
            f"enumeration of {words} codewords x n={n} x {cfg.trials} trials "
            f"exceeds the budget of {DIRECT_BUDGET:.2e} element ops; "
            "use the conditional-CDF route instead"
        )
    entries = n * (max(m, 4 * n, 2 * k) if direct else max(m, n, k))
    _hold(entries, f"one trial's largest array ({k} codewords, n={n}, m={m})")
    return k, entries


def simulate_c_direct(cfg: SimConfig, codebook: Codebook | None = None, threads: int = 1) -> Estimate:
    """Selected quadratic form of (1/n) H H* by explicit enumeration.

    codebook=None redraws an isotropic codebook every trial (the random
    ensemble); a fixed Codebook evaluates that specific design.
    Trials run in order on the calling thread: each trial draws its channel
    and then any fresh codewords from its own stream, and the products of a
    block of up to _TRIAL_BLOCK trials are then formed together, which moves
    no bit of any trial.
    `threads` is accepted and ignored.
    """
    k, entries = _check_budget(cfg, codebook)
    if codebook is not None and codebook.n != cfg.n:
        raise ValueError(f"codebook dimension {codebook.n} != cfg.n {cfg.n}")
    n, m = cfg.n, cfg.m
    sign = _check_selection(cfg.r_fb, cfg.mode)
    fixed = None if codebook is None else _real_rows(codebook.vectors)
    vals = np.empty(cfg.trials)
    for block in _trial_blocks(cfg.trials, entries):
        rngs = [_rng(cfg.seed, 1, t) for t in block]
        h = np.stack([_channel(rng, n, m) for rng in rngs])
        a = sign * (h @ h.conj().transpose(0, 2, 1)) / n
        # Re(v* A v) = [Re v, Im v] A_r [Re v, Im v]^T: one real GEMM per trial.
        a_r = np.block([[a.real, -a.imag], [a.imag, a.real]])
        if fixed is None:
            # _isotropic_rows' unit rows, normalised once per block: one norm
            # per trial made a block's draws about 9% slower at n = 8, K = 256.
            vr = _real_rows(_unit_rows(np.stack([_complex_normal(rng, (k, n)) for rng in rngs])))
            quad = np.einsum("bij,bij->bi", vr @ a_r, vr)
        else:
            quad = np.stack([np.einsum("ij,ij->i", fixed @ q, fixed) for q in a_r])
        vals[block.start:block.stop] = sign * quad.min(axis=1)
    return _estimate_from(vals)


def simulate_c_spectral(cfg: SimConfig, threads: int = 1) -> Estimate:
    """Random-ensemble estimator through the spectral representation.

    Conditional on the spectrum of (1/m) H H*, each isotropic codeword's
    quadratic form is distributed as sum(lam_i Y_i)/sum(Y_i) with Y ~ Exp(1)
    i.i.d.; the m/n factor converts back to (1/n) H H* units.
    `threads` is accepted and ignored: trials run in order on this thread.
    """
    k, _ = _check_budget(cfg, direct=False)
    sign = _check_selection(cfg.r_fb, cfg.mode)
    vals = np.empty(cfg.trials)
    for t in range(cfg.trials):
        rng = _rng(cfg.seed, 2, t)
        lam = _clipped_eigs(_channel(rng, cfg.n, cfg.m))
        y = _exponentials(rng, (k, cfg.n))
        vals[t] = sign * np.min((y @ (sign * lam)) / y.sum(axis=1))
    return _estimate_from(cfg.m / cfg.n * vals)


def simulate_c_cdf(cfg: SimConfig, samples: int = 20000, threads: int = 1) -> Estimate:
    """Random-ensemble estimator through the conditional-CDF integral.

    Each trial draws one spectrum and integrates the selected-extreme
    identity E[extreme | lam] over it, so the feedback depth never enters
    as an enumeration count.  Far cheaper than simulate_c_direct once
    2^r_fb codewords stop fitting in memory, at the price of a small
    integration bias controlled by `samples` and the grid refinement.
    `threads` is accepted and ignored: trials run in order on this thread.
    """
    samples = _integer("samples", samples, 2)
    vals = np.empty(cfg.trials)
    for t in range(cfg.trials):
        lam = sample_spectrum(cfg.n, cfg.m, _child_seed(cfg.seed, 3, t)).eigenvalues
        vals[t] = c_rand_via_cdf(lam, cfg.r_fb, cfg.mode, samples, _child_seed(cfg.seed, 4, t))
    return _estimate_from(cfg.m / cfg.n * vals)


# ---------------------------------------------------------------------------
# conditional CDF of the weighted exponential ratio


def _as_spectrum(lam, samples: int, least: int) -> tuple[np.ndarray, int]:
    """lam as a flat finite non-empty array and samples as an int >= least (1 plain, 2 tilted)."""
    arr = np.asarray(lam, dtype=float).ravel()
    if arr.size < 1 or not np.isfinite(arr).all():
        raise ValueError("spectrum must be a non-empty finite array")
    return arr, _integer("samples", samples, least)


def conditional_cdf_mc(lam, x: float, samples: int, seed: int) -> float:
    """Plain Monte Carlo estimate of P(sum (lam_i - x) Y_i <= 0); x = +-inf gives exactly 1 or 0."""
    arr, samples = _as_spectrum(lam, samples, 1)
    if math.isnan(x):
        raise ValueError("level x must not be NaN")
    coeffs = arr - float(x)
    rng = _rng(seed, 10)
    chunk = max(1, min(samples, _MAX_ENTRIES // arr.size))
    hits = 0
    for start in range(0, samples, chunk):
        s = _exponentials(rng, (min(chunk, samples - start), arr.size)) @ coeffs
        hits += int(np.count_nonzero(s <= 0.0))
    return hits / samples


@dataclasses.dataclass(frozen=True)
class TiltedCdfResult:
    x: float
    log_prob: float
    ess: float
    gamma: float


def _panel(arr: np.ndarray, samples: int, seed: int, role: int) -> np.ndarray:
    """Standard exponential draws, one row of len(arr) per sample."""
    return _exponentials(_rng(seed, role), (samples, arr.size))


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


def _lower_is_rare(coeffs: np.ndarray) -> np.ndarray:
    """Per row c of coeffs: is sum c_i Y_i <= 0 the rare side, its mean sum c_i being >= 0?"""
    return coeffs.sum(axis=-1) >= 0.0


def _log_complement(log_q: float) -> float:
    """log(1 - q) from log q, q held at or below 1 - 1e-16."""
    q = math.exp(min(log_q, -1e-17))
    return math.log1p(-min(q, 1.0 - 1e-16))


def _log_cdf(arr: np.ndarray, expo: np.ndarray, xs) -> list[tuple[float, float, float, float]]:
    """log P(sum (arr_i - x) Y_i <= 0) at each level x of xs, by exact-likelihood-ratio tilting.

    expo is a _panel of the spectrum.  Each level keeps its own tilt root;
    the tilted sums of _LEVEL_BLOCK levels come from one panel product.
    numpy forms a one-level block's product by GEMV and a larger block's by
    GEMM, which may round apart, so a level's last bits can depend on how
    many levels share its call; no caller relies on them.  The indicator is
    taken on the rare side of the tilt.  Returns, per level,
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
        for gamma, r, s, lower in zip(gammas.tolist(), rho, sums, _lower_is_rare(coeffs)):
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
                log_p = _log_complement(log_p)
            out.append((log_p, ess, se_log, gamma))
    return out


def conditional_cdf_tilted(lam, x: float, samples: int, seed: int) -> TiltedCdfResult:
    """Tilted importance-sampling estimate of log P(sum (lam_i - x) Y_i <= 0).

    x must lie strictly between the smallest and largest spectrum values.
    Raises ReliabilityError when the effective sample size drops below 10.
    """
    arr, samples = _as_spectrum(lam, samples, 2)
    x = float(x)
    if not (arr.min() < x < arr.max()):
        raise ValueError(
            f"x={x!r} must lie strictly inside the spectrum range "
            f"({arr.min():.6g}, {arr.max():.6g})"
        )
    ((log_p, ess, _, gamma),) = _log_cdf(arr, _panel(arr, samples, seed, 11), [x])
    if ess < 10.0:
        raise ReliabilityError(
            f"effective sample size {ess:.2f} < 10 at x={x:.6g}; "
            f"increase samples (gamma={gamma:.4g})"
        )
    return TiltedCdfResult(x=x, log_prob=min(log_p, 0.0), ess=ess, gamma=gamma)


def _ldp_law(beta: float, x: float) -> MpLaw:
    """The law at beta, once x lies inside its support and away from the mean 1."""
    law = mp_law(beta)
    if not (law.lambda_t_minus < x < law.lambda_plus) or x == 1.0:
        raise ValueError(
            f"x={x!r} must lie in ({law.lambda_t_minus}, {law.lambda_plus}) "
            "and away from the mean at 1"
        )
    return law


def ldp_rate_estimate(beta: float, x: float, n_list, samples: int, seed: int) -> list[tuple[int, float]]:
    """Empirical decay rates -log mu_n / n along a list of sizes.

    Each size draws one spectrum at m = round(n / beta) and estimates the
    conditional tail probability at level x by tilted sampling.  Levels
    below the mean probe the lower tail; levels above it are handled by
    negating the spectrum, which swaps the tails.
    """
    beta = _ldp_law(beta, x).beta
    sizes = [_integer("sizes", n, 1) for n in n_list]
    samples = _integer("samples", samples, 2)
    out: list[tuple[int, float]] = []
    for n in sizes:
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


def _chernoff_fixed(arr: np.ndarray, xs: np.ndarray, r_fb: int) -> np.ndarray:
    """_survival_power of _log_cdf at each level of xs where a Chernoff bound fixes it, else NaN.

    On the rare side of the tilt root t*, a sample's log weight in _log_cdf
    is C(t*) - t* s_j, with C(t) = -sum log(1 - t c_i) and t* s_j >= 0.  So
    the largest log weight is at most C(t*), the weight sum at most the panel
    size N, and the rare-side log estimate at most C(t*) plus a few ulps of
    log N.  C is convex with derivative _tilt_root's g, so C(t*) <= C(t) for
    every t between the poles.  The cap is C(t) + 1e-9 (1 + |C(t)|), a
    margin that dwarfs rounding, at one Newton step from 0, t = -sum c /
    sum c^2, clamped half-way to each pole: one (levels, n) array per call.

    Lower rare side: log_p <= cap.  With r_fb >= 1, _survival_power(cap) is
    1.0 only if exp(log_t) is below half an ulp of 1, so cap < -38 lies on
    the log_p <= -37 branch, where the value only rises as log_p falls: the
    integrand is exactly 1.0.  Upper rare side: log_p >= _log_complement(cap),
    which is non-increasing.  If even 2^(r_fb - 1) codewords' power is 0.0 there, log_t at r_fb clears
    exp's underflow by ln 2, which no rounding across _survival_power's
    branches undoes, so the integrand is exactly 0.0.
    """
    coeffs = arr - xs[:, None]
    step = -coeffs.sum(axis=1) / (coeffs * coeffs).sum(axis=1)
    tilt = np.clip(step, 0.5 / coeffs.min(axis=1), 0.5 / coeffs.max(axis=1))
    caps = -np.log1p(-tilt[:, None] * coeffs).sum(axis=1)
    caps += 1e-9 * (1.0 + np.abs(caps))
    out = np.full(xs.size, np.nan)
    for i, (lower, cap) in enumerate(zip(_lower_is_rare(coeffs), caps.tolist())):
        if lower and _survival_power(cap, r_fb) == 1.0:
            out[i] = 1.0
        elif not lower and _survival_power(_log_complement(cap), r_fb - 1) == 0.0:
            out[i] = 0.0
    return out


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


def _is_degenerate(arr: np.ndarray) -> bool:
    """A spectrum no wider than 1e-14 * max(1, |upper edge|) counts as one point."""
    lmax = float(arr.max())
    return lmax - float(arr.min()) <= 1e-14 * max(1.0, abs(lmax))


def _min_or_mirrored_max(fn, lam, r_fb: int, mode: str, samples: int, seed: int) -> float:
    """Validate, then run fn on the spectrum (min) or its negation (max), and undo the sign.

    Degenerate input never reaches fn: a degenerate spectrum (_is_degenerate,
    taken after the negation) returns its edge, and r_fb = 0, a single
    codeword, returns the spectrum mean.
    """
    arr, samples = _as_spectrum(lam, samples, 2)
    sign = _check_selection(r_fb, mode)
    arr = sign * arr
    if _is_degenerate(arr):
        return sign * float(arr.min())
    if r_fb == 0:
        return sign * float(arr.mean())
    return sign * fn(arr, r_fb, samples, seed)


def _c_min_via_cdf(arr: np.ndarray, r_fb: int, samples: int, seed: int) -> float:
    lmin = float(arr.min())
    expo = _panel(arr, samples, seed, 12)

    def integrand(xs: np.ndarray) -> np.ndarray:
        vals = _chernoff_fixed(arr, xs, r_fb)
        todo = np.flatnonzero(np.isnan(vals))
        vals[todo] = [_survival_power(lp, r_fb) for lp, *_ in _log_cdf(arr, expo, xs[todo])]
        return vals

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
    arr, samples = _as_spectrum(lam, samples, 2)
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must be in (0, 1), got {p!r}")
    if _is_degenerate(arr):
        raise ValueError("spectrum is degenerate; the quantile is not defined")
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
