"""SUSY and sl(2) structure of the PT-symmetric complexified Scarf well.

The library half computes everything in closed form: partner
potentials, the PT constraint, the exchanged pair of superpotentials
and their two level towers, the bifurcation of the spectrum into
conjugate pairs as the PT-breaking parameter moves off zero, and the
algebraic (m, b) labels realizing the same wells. The numerics half
re-derives the spectra from a finite-difference eigensolver that is
never told where a level is: the closed forms only size its box, cap
the real part it searches and are matched against what it finds, so
each analytic claim is checked by an independent route. The cli module
exposes both halves as the `pcs-spectra` command.
"""

from . import core, errors, numerics, sl2, spectra
from .core import *  # noqa: F403
from .errors import *  # noqa: F403
from .numerics import *  # noqa: F403
from .sl2 import *  # noqa: F403
from .spectra import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *core.__all__,
    *spectra.__all__,
    *numerics.__all__,
    *sl2.__all__,
    *errors.__all__,
]
