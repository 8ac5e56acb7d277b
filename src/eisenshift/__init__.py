"""Eisenstein and shifted-Eisenstein irreducibility with certificates.

The package decides, with verifiable (shift, prime) certificates, whether an
integer polynomial f or any of its shifts f(x+s) satisfies the Eisenstein
criterion; computes the density constants governing how often random
polynomials do; and reproduces exact censuses and Monte Carlo experiments
over height-bounded coefficient boxes.

Each module's `__all__` is the one list of its public names; this package
re-exports all of them.
"""

from . import algebra, census, density, eisenstein, errors, intpoly, primes
from .algebra import *  # noqa: F401,F403
from .census import *  # noqa: F401,F403
from .density import *  # noqa: F401,F403
from .eisenstein import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .intpoly import *  # noqa: F401,F403
from .primes import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (errors, intpoly, algebra, primes, eisenstein, density, census)
    for name in module.__all__
]
