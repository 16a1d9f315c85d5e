"""SUSY and sl(2) structure of the PT-symmetric complexified Scarf well.

The library half computes everything in closed form: partner
potentials, the PT constraint, the exchanged pair of superpotentials
and their two level towers, the bifurcation of the spectrum into
conjugate pairs as the PT-breaking parameter moves off zero, and the
algebraic (m, b) labels realizing the same wells. The numerics half
re-derives the spectra from a finite-difference eigensolver that never
looks at the closed forms except as search seeds, so each analytic
claim is checked by an independent route. The cli module exposes both
halves as the `pcs-spectra` command.
"""

from .core import (
    TOL_CONSTRAINT,
    BranchSign,
    ComplexSusyParams,
    PcsPhysicalParams,
    PotentialCoefficients,
    PtConstraintReport,
    Superpotential,
    SusyParams,
    complexify,
    dual_superpotentials,
    exchange_map,
    partner_potentials,
    pcs_partner_coefficients,
    physical_to_susy,
    pt_constraint_check,
    susy_to_physical,
)
from .errors import (
    DegenerateB,
    DomainTooSmall,
    LadderExhausted,
    NoConvergence,
    NoRealFactorization,
    PcsSpectraError,
    SingularShift,
)
from .numerics import (
    DEFAULT_TOL,
    DEFAULT_TOL_MATCH,
    AnalyticLevel,
    DiscretizedOperator,
    EigenResult,
    Grid,
    MatchedLevel,
    VerificationReport,
    bound_spectrum,
    default_grid,
    discretize,
    eigen_near,
    refine_eigenvalue,
    verify_spectrum,
)
from .sl2 import (
    Sl2Params,
    build_sl2_potential,
    correspondence_residuals,
    m_square_identities,
    solve_correspondence,
    solve_m_given_b,
)
from .spectra import (
    BifurcationPoint,
    BrokenSpectrum,
    SpectrumSeries,
    bifurcation_scan,
    broken_spectrum,
    energy_sort_key,
    shape_invariance_step,
    two_series_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "TOL_CONSTRAINT",
    "PcsPhysicalParams",
    "SusyParams",
    "BranchSign",
    "ComplexSusyParams",
    "Superpotential",
    "PotentialCoefficients",
    "PtConstraintReport",
    "complexify",
    "partner_potentials",
    "pcs_partner_coefficients",
    "pt_constraint_check",
    "exchange_map",
    "dual_superpotentials",
    "physical_to_susy",
    "susy_to_physical",
    # spectra
    "SpectrumSeries",
    "BifurcationPoint",
    "BrokenSpectrum",
    "energy_sort_key",
    "shape_invariance_step",
    "two_series_spectrum",
    "broken_spectrum",
    "bifurcation_scan",
    # numerics
    "DEFAULT_TOL",
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
    # sl2
    "Sl2Params",
    "build_sl2_potential",
    "correspondence_residuals",
    "solve_m_given_b",
    "m_square_identities",
    "solve_correspondence",
    # errors
    "PcsSpectraError",
    "NoRealFactorization",
    "LadderExhausted",
    "NoConvergence",
    "SingularShift",
    "DomainTooSmall",
    "DegenerateB",
]
