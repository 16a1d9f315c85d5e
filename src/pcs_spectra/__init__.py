"""SUSY and sl(2) structure of the PT-symmetric complexified Scarf well.

The library half computes everything in closed form: partner
potentials, the PT constraint, the exchanged pair of superpotentials
and their two level towers, the bifurcation of the spectrum into
conjugate pairs as the PT-breaking parameter moves off zero, and the
algebraic (m, b) labels realizing the same wells. The numerics half
re-derives the spectra from two dense sinc-collocation eigensolves
that are never told where a level is: the closed forms only size
their box, cap the real part kept and are matched against what they
find, so each analytic claim is checked by an independent route. The cli module
exposes both halves as the `pcs-spectra` command.

Importing the package loads core, errors and spectra. numerics and sl2,
and the names they export, load on first access (PEP 562), so a
closed-form call never pays for compiling them.
"""

import importlib

from . import core, errors, spectra
from .core import *  # noqa: F403
from .errors import *  # noqa: F403
from .spectra import *  # noqa: F403

__version__ = "0.1.0"

# numerics.__all__ and sl2.__all__, written out so that listing them
# loads neither module; test_package pins them to the modules' lists
_LAZY = {
    "numerics": (
        "DEFAULT_TOL_MATCH",
        "Grid",
        "DiscretizedOperator",
        "EigenResult",
        "AnalyticLevel",
        "MatchedLevel",
        "VerificationReport",
        "default_grid",
        "discretize",
        "eigen_near",
        "refine_eigenvalue",
        "bound_spectrum",
        "verify_spectrum",
    ),
    "sl2": (
        "Sl2Params",
        "build_sl2_potential",
        "correspondence_residuals",
        "solve_m_given_b",
        "m_square_identities",
        "solve_correspondence",
    ),
}
_LAZY_OWNER = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "__version__",
    *core.__all__,
    *spectra.__all__,
    *_LAZY["numerics"],
    *_LAZY["sl2"],
    *errors.__all__,
]


def __getattr__(name: str):
    # runs only for names not bound here: the two lazy modules themselves
    # (importing one binds it as a package attribute) and their exports,
    # read from the module on each access
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _LAZY_OWNER:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY_OWNER[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
