"""The in-package Brent solver against scipy's, and the numpy-only runtime."""

import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

import fblimits
from fblimits._brent import brentq

# Every (xtol, rtol) pair the package solves with.
TOLERANCES = ((1e-12, 8.9e-16), (1e-13, 8.9e-16), (1e-14, 8.9e-16))


def _brackets(rng, count):
    """(f, a, b) triples: tanh, cubic, exponential and tilt-root families."""
    cases = []
    for _ in range(count):
        a, s = rng.uniform(-3.0, 3.0), rng.uniform(0.1, 5.0)
        cases.append((lambda x, a=a, s=s: math.tanh(s * (x - a)),
                      a - rng.uniform(0.01, 4.0), a + rng.uniform(0.01, 4.0)))
        r = rng.uniform(-2.0, 2.0)
        cases.append((lambda x, r=r: x**3 - 0.3 * r * x - r, -5.0, 5.0))
        c = rng.uniform(0.1, 3.0)
        cases.append((lambda x, c=c: math.exp(x) - c, -10.0, rng.uniform(2.0, 10.0)))
        coeffs = rng.standard_normal(int(rng.integers(2, 60))) + rng.uniform(-0.5, 0.5)
        if coeffs.min() < 0.0 < coeffs.max():
            # g(gamma) = sum c / (1 - gamma c), bracketed 1e-9 inside its poles.
            cases.append((lambda g, co=coeffs: float((co / (1.0 - g * co)).sum()),
                          (1.0 - 1e-9) / coeffs.min(), (1.0 - 1e-9) / coeffs.max()))
    return cases


def test_port_matches_scipy_bit_for_bit():
    cases = _brackets(np.random.default_rng(20060), 300)
    assert len(cases) > 1000
    for f, a, b in cases:
        for xtol, rtol in TOLERANCES:
            assert brentq(f, a, b, xtol=xtol, rtol=rtol) == scipy_brentq(f, a, b, xtol=xtol, rtol=rtol)


@pytest.mark.parametrize(
    ("f", "a", "b", "maxiter", "error"),
    (
        (lambda x: x * x + 1.0, -1.0, 1.0, 100, ValueError),  # no sign change
        (lambda x: math.nan, -1.0, 1.0, 100, ValueError),
        (lambda x: x if x < 0.5 else math.nan, -1.0, 1.0, 100, ValueError),  # NaN mid-solve
        (lambda x: x**3 - 0.3, -1.0, 1.0, 3, RuntimeError),
    ),
)
def test_errors_match_scipy(f, a, b, maxiter, error):
    with pytest.raises(error) as ours:
        brentq(f, a, b, xtol=1e-12, rtol=8.9e-16, maxiter=maxiter)
    with pytest.raises(error) as theirs:
        scipy_brentq(f, a, b, xtol=1e-12, rtol=8.9e-16, maxiter=maxiter)
    assert str(ours.value) == str(theirs.value)


def test_cli_runs_without_scipy():
    src = str(pathlib.Path(fblimits.__file__).resolve().parents[1])
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        f"sys.path.insert(0, {src!r})\n"
        "from fblimits.cli import main\n"
        "code = main(['asymptotic', '--beta', '2', '--rate', '1'])\n"
        "loaded = [m for m, mod in sys.modules.items() if mod is not None and m.split('.')[0] == 'scipy']\n"
        "assert code == 0, code\n"
        "assert loaded == [], loaded\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert '"x_minus"' in proc.stdout
