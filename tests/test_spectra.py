"""Law construction, quadrature accuracy, and Wishart sampling."""

import math

import numpy as np
import pytest

from fblimits import (
    DEFAULT_QUADRATURE,
    EigenSolverError,
    QuadratureConfig,
    QuadratureError,
    mp_integrate,
    mp_law,
    sample_spectrum,
)
from fblimits import spectra

BETAS = (0.25, 0.5, 1.0, 2.0, 4.0)


@pytest.mark.parametrize("beta", BETAS)
def test_law_edges_and_atom(beta):
    law = mp_law(beta)
    root = math.sqrt(beta)
    assert law.lambda_minus == pytest.approx((1.0 - root) ** 2, abs=1e-14)
    assert law.lambda_plus == pytest.approx((1.0 + root) ** 2, abs=1e-14)
    assert law.atom_mass == pytest.approx(max(0.0, 1.0 - 1.0 / beta), abs=1e-14)
    if beta >= 1.0:
        assert law.lambda_t_minus == 0.0
    else:
        assert law.lambda_t_minus == law.lambda_minus


def test_law_rejects_bad_beta():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            mp_law(bad)


@pytest.mark.parametrize("beta", BETAS)
def test_quadrature_moments(beta):
    law = mp_law(beta)
    assert mp_integrate(law, lambda lam: np.ones_like(lam)) == pytest.approx(1.0, abs=1e-10)
    assert mp_integrate(law, lambda lam: lam) == pytest.approx(1.0, abs=1e-10)
    assert mp_integrate(law, lambda lam: lam * lam) == pytest.approx(1.0 + beta, abs=1e-8)


# beta just off 1, where the plain midpoint rule aliased the weight's cosine
# tail onto the mass (1.6e-5 at 0.999); 1 - 1e-6 is the double 0.999999.
NEAR_ONE = (0.999, 0.99999, 0.999999, 1.0 + 1e-6, 1.001)


@pytest.mark.parametrize("beta", NEAR_ONE)
def test_quadrature_moments_near_one(beta):
    # The 1e-10 mass bar of test_quadrature_moments, for three moments too.
    law = mp_law(beta)
    moments = (1.0, 1.0, 1.0 + beta, 1.0 + 3.0 * beta + beta * beta)
    for power, want in enumerate(moments):
        got = mp_integrate(law, lambda lam: lam ** power)
        assert got == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("beta", BETAS)
def test_weights_away_from_one_are_the_midpoint_rule(beta):
    # The product-integration term underflows to 0 here, so the weights are
    # the plain (2/n) sin^2(theta) / lam of the midpoint rule to the bit.
    lam, weights = spectra._nodes_and_weights(mp_law(beta), DEFAULT_QUADRATURE)
    n = DEFAULT_QUADRATURE.node_count
    theta = (np.arange(n) + 0.5) * (math.pi / n)
    assert np.array_equal(weights, (2.0 / n) * np.sin(theta) ** 2 / lam)


def test_second_moment_against_wishart_mc():
    # Independent oracle for the beta=1 second moment: average of lam^2 over
    # sampled spectra.  n=256 keeps the per-matrix fluctuation well under the
    # 1% window around the limit value 2.
    vals = [sample_spectrum(256, 256, seed).eigenvalues for seed in range(20)]
    mc = float(np.mean([np.mean(v**2) for v in vals]))
    quad = mp_integrate(mp_law(1.0), lambda lam: lam * lam)
    assert quad == pytest.approx(2.0, abs=1e-8)
    assert abs(mc - quad) / quad < 0.01


@pytest.mark.parametrize("beta", (0.25, 0.5))
def test_inverse_moment_below_one(beta):
    # int dmu / lam = 1 / (1 - beta) for beta < 1; the integrand is smooth on
    # the support since the lower edge stays away from zero.
    got = mp_integrate(mp_law(beta), lambda lam: 1.0 / lam)
    assert got == pytest.approx(1.0 / (1.0 - beta), rel=1e-9)


def test_atom_separates_from_continuous_mass():
    # g(0) = 1, g = 0 on the bulk: picks out exactly the atom mass.
    law = mp_law(2.0)
    got = mp_integrate(law, lambda lam: np.where(lam < 1e-12, 1.0, 0.0))
    assert got == pytest.approx(0.5, abs=1e-12)


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(node_count=8)
    assert QuadratureConfig(node_count=16).node_count == 16


def test_quadrature_error_names_offending_node():
    law = mp_law(1.0)

    def bad(lam):
        return np.where(lam > 2.0, np.nan, lam)

    with pytest.raises(QuadratureError) as exc:
        mp_integrate(law, bad)
    assert "lambda=" in str(exc.value)
    with pytest.raises(QuadratureError, match="at the atom lambda=0"):
        mp_integrate(mp_law(2.0), lambda lam: np.where(lam == 0.0, np.inf, lam))


@pytest.mark.parametrize("g", (lambda lam: 1.0, lambda lam: lam[:-1]), ids=("scalar", "short"))
def test_quadrature_refuses_an_integrand_of_the_wrong_shape(g):
    with pytest.raises(ValueError, match="integrand must return one value per node"):
        mp_integrate(mp_law(1.0), g)


def test_sample_spectrum_shapes_and_determinism():
    a = sample_spectrum(8, 16, seed=3)
    b = sample_spectrum(8, 16, seed=3)
    c = sample_spectrum(8, 16, seed=4)
    assert a.eigenvalues.shape == (8,)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert not np.array_equal(a.eigenvalues, c.eigenvalues)
    assert np.all(np.diff(a.eigenvalues) >= 0.0)


def test_sample_spectrum_scalar_case_is_exponential():
    # n = m = 1: the single eigenvalue is |h|^2 with h CN(0,1), i.e. Exp(1).
    vals = np.array(
        [sample_spectrum(1, 1, seed).eigenvalues[0] for seed in range(4000)]
    )
    assert vals.min() > 0.0
    assert abs(vals.mean() - 1.0) < 3.0 / math.sqrt(len(vals))


def test_sample_spectrum_rank_deficiency():
    spec = sample_spectrum(4, 2, seed=0)
    assert np.all(np.abs(spec.eigenvalues[:2]) <= 1e-10)
    assert np.all(spec.eigenvalues[2:] > 1e-6)


def test_sample_spectrum_edge_location():
    spec = sample_spectrum(256, 128, seed=1)
    lam_plus = mp_law(2.0).lambda_plus
    assert abs(spec.eigenvalues[-1] - lam_plus) / lam_plus < 0.05


@pytest.mark.parametrize("beta", (0.5, 2.0))
def test_sampled_ecdf_matches_law(beta):
    # Sup distance between the sampled eigenvalue ECDF at n=512 and the law's
    # CDF evaluated by quadrature on a fixed grid.
    n = 512
    m = round(n / beta)
    law = mp_law(beta)
    eigs = sample_spectrum(n, m, seed=2).eigenvalues
    grid = np.linspace(law.lambda_t_minus, law.lambda_plus, 41)[1:-1]
    worst = 0.0
    for x in grid:
        cdf = mp_integrate(law, lambda lam, x=x: (lam <= x).astype(float))
        ecdf = float(np.mean(eigs <= x))
        worst = max(worst, abs(cdf - ecdf))
    assert worst <= 0.05


def test_sample_spectrum_rejects_bad_dims():
    for n, m in ((0, 4), (4, 0), (-1, 2)):
        with pytest.raises(ValueError):
            sample_spectrum(n, m, seed=0)


def test_sample_spectrum_names_a_failed_eigensolve(monkeypatch):
    def fail(h):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(spectra, "_clipped_eigs", fail)
    with pytest.raises(EigenSolverError, match="eigvalsh failed for n=3, m=2, seed=5"):
        sample_spectrum(3, 2, seed=5)
