"""Square-root spectral law of large sample covariance matrices.

The empirical eigenvalue distribution of (1/m) H H*, where H is n x m with
i.i.d. unit-variance complex Gaussian entries and n/m -> beta, converges to
the Marchenko-Pastur law

    d mu(lam) = max(0, 1 - 1/beta) delta_0(lam)
                + sqrt((lam - lam_minus)^+ (lam_plus - lam)^+) / (2 pi beta lam) dlam,

with edges lam_pm = (1 +- sqrt(beta))^2 and unit mean.  This module carries
the closed-form law data, a quadrature rule against the law, and finite-size
spectrum sampling.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from typing import Callable

import numpy as np

__all__ = [
    "MpLaw",
    "QuadratureConfig",
    "SpectrumSample",
    "QuadratureError",
    "EigenSolverError",
    "DEFAULT_QUADRATURE",
    "mp_law",
    "mp_integrate",
    "sample_spectrum",
]

_SEED_MASK = (1 << 64) - 1


class QuadratureError(RuntimeError):
    """Integrand could not be evaluated to a finite value at a node."""


class EigenSolverError(RuntimeError):
    """Eigenvalue decomposition failed for a sampled matrix."""


def _integer(name: str, value, least: int | None = None) -> int:
    """value as an int, refused unless an integer (numpy's too) >= least; every count and seed."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


@dataclasses.dataclass(frozen=True)
class MpLaw:
    """Limit law parameters for aspect ratio beta = lim n/m.

    lambda_t_minus is the lower edge of the full support: 0 when the law has
    an atom at zero (beta >= 1), otherwise the continuous edge lambda_minus.
    """

    beta: float
    lambda_minus: float
    lambda_plus: float
    lambda_t_minus: float
    atom_mass: float
    mean: float = 1.0


def mp_law(beta: float) -> MpLaw:
    """Build the law for a given aspect ratio.

    Parameters
    ----------
    beta : float
        Column-to-row limit ratio n/m; must be finite and positive.
    """
    beta = float(beta)
    if not math.isfinite(beta) or beta <= 0.0:
        raise ValueError(f"beta must be finite and positive, got {beta!r}")
    root = math.sqrt(beta)
    lam_minus = (1.0 - root) ** 2
    lam_plus = (1.0 + root) ** 2
    return MpLaw(
        beta=beta,
        lambda_minus=lam_minus,
        lambda_plus=lam_plus,
        lambda_t_minus=0.0 if beta >= 1.0 else lam_minus,
        atom_mass=max(0.0, 1.0 - 1.0 / beta),
    )


@dataclasses.dataclass(frozen=True)
class QuadratureConfig:
    """Composite midpoint rule in the arc variable lam = c + h*cos(theta).

    The substitution absorbs the square-root edge factor, so smooth
    integrands are resolved to near machine precision and integrable
    endpoint singularities (log terms) stay mild.
    """

    node_count: int = 4096

    def __post_init__(self) -> None:
        object.__setattr__(self, "node_count", _integer("node_count", self.node_count, 16))


DEFAULT_QUADRATURE = QuadratureConfig()


def _nodes_and_weights(law: MpLaw, cfg: QuadratureConfig) -> tuple[np.ndarray, np.ndarray]:
    n = cfg.node_count
    theta = (np.arange(n) + 0.5) * (math.pi / n)
    center = 0.5 * (law.lambda_plus + law.lambda_minus)
    half = 0.5 * (law.lambda_plus - law.lambda_minus)
    lam = center + half * np.cos(theta)
    # (2/pi) sin^2(theta)/lam(theta) dtheta is the continuous part of the law.
    weights = (2.0 / n) * np.sin(theta) ** 2 / lam
    # The weight's cosine series has the tail -(|1-beta|/(2 beta)) sum_k
    # (-rho)^k cos(k theta), rho = min(sqrt(beta), 1/sqrt(beta)), and the
    # midpoint rule aliases its k = 2n, 4n, ... terms onto the mass: 1.6e-5 at
    # beta = 0.999.  Product integration (Sloan & Smith 1980) integrates the
    # n-term cosine interpolant exactly, which adds one term per node.  It
    # underflows to 0 for beta outside about (0.7, 1.4) and at beta = 1.
    beta = law.beta
    rho = min(math.sqrt(beta), 1.0 / math.sqrt(beta))
    tail = abs(1.0 - beta) / (2.0 * beta) * rho ** (n + 1)
    if tail != 0.0:
        sign = np.where(np.arange(n) % 2 == n % 2, 1.0, -1.0)  # (-1)^(n+j)
        weights += (2.0 / n) * tail / min(1.0, 1.0 / beta) * sign * np.sin(theta) / lam
    return lam, weights


def mp_integrate(
    law: MpLaw,
    g: Callable[[np.ndarray | float], np.ndarray | float],
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """Integrate g against the full law, atom included.

    g must accept numpy arrays (and a scalar 0.0 when the law has an atom)
    and return finite real values on [0, lambda_plus].
    """
    lam, weights = _nodes_and_weights(law, cfg)
    with np.errstate(all="ignore"):  # a non-finite value is refused below, with its node
        vals = np.asarray(g(lam), dtype=float)
    if vals.shape != lam.shape:
        raise ValueError("integrand must return one value per node")
    bad = ~np.isfinite(vals)
    if bad.any():
        i = int(np.argmax(bad))
        raise QuadratureError(
            f"integrand returned {vals[i]!r} at lambda={lam[i]:.9g} (node {i} of {cfg.node_count})"
        )
    total = float(vals @ weights)
    if law.atom_mass > 0.0:
        at_zero = float(g(0.0))
        if not math.isfinite(at_zero):
            raise QuadratureError(f"integrand returned {at_zero!r} at the atom lambda=0")
        total += law.atom_mass * at_zero
    return total


@dataclasses.dataclass(frozen=True, eq=False)
class SpectrumSample:
    """Eigenvalues of one sampled (1/m) H H*, sorted ascending."""

    n: int
    m: int
    eigenvalues: np.ndarray
    seed: int


def sample_spectrum(n: int, m: int, seed: int) -> SpectrumSample:
    """Sample the spectrum of (1/m) H H* with H n x m, entries CN(0, 1).

    A CN(0,1) entry is built from two real N(0, 1/2) draws.  Exactly
    max(0, n - m) eigenvalues are zero up to numerical rounding.
    """
    n, m, seed = _integer("n", n, 1), _integer("m", m, 1), _integer("seed", seed)
    h = _channel(np.random.default_rng(seed & _SEED_MASK), n, m)
    try:
        eigs = _clipped_eigs(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise EigenSolverError(f"eigvalsh failed for n={n}, m={m}, seed={seed}: {exc}") from exc
    return SpectrumSample(n=n, m=m, eigenvalues=eigs, seed=seed)


def _complex_normal(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """Real and imaginary parts i.i.d. N(0, 1), the real part drawn first.

    Every Gaussian draw in the package goes through here.
    """
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _channel(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """n x m matrix of i.i.d. CN(0, 1) entries."""
    return math.sqrt(0.5) * _complex_normal(rng, (n, m))


def _clipped_eigs(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of (1/m) H H*, rounding below zero clipped to 0."""
    return np.maximum(np.linalg.eigvalsh((h @ h.conj().T) / h.shape[1]), 0.0)
