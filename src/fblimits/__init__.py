"""Asymptotic limits of finite-rate-feedback codebook selection.

The package splits into four layers:

* spectra: the limiting square-root spectral law and quadrature against it,
  plus finite-size spectrum sampling,
* ratefn: the tilted log-moment function of that law and its Legendre
  transform, the large-deviation rate of the selection statistic,
* limits: closed-form and root-found asymptotes of the selected extremes
  as feedback scales linearly with the dimension,
* montecarlo: finite-size estimators (direct, spectral, conditional-CDF)
  and codebook construction used to verify the asymptotes.
"""

from . import spectra, ratefn, limits, montecarlo
from .spectra import *
from .ratefn import *
from .limits import *
from .montecarlo import *

__version__ = "0.1.0"

__all__ = ["__version__", *spectra.__all__, *ratefn.__all__, *limits.__all__, *montecarlo.__all__]
