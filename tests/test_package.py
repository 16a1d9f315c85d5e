"""The package's public surface: which names it exports, and from where."""

import importlib

import pcs_spectra

# every exported name, by the module that defines it
EXPORTS = {
    "pcs_spectra": {"__version__"},
    "pcs_spectra.core": {
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
    },
    "pcs_spectra.spectra": {
        "SpectrumSeries",
        "BifurcationPoint",
        "energy_sort_key",
        "shape_invariance_step",
        "two_series_spectrum",
        "broken_spectrum",
        "bifurcation_scan",
    },
    "pcs_spectra.numerics": {
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
    },
    "pcs_spectra.sl2": {
        "Sl2Params",
        "build_sl2_potential",
        "correspondence_residuals",
        "solve_m_given_b",
        "m_square_identities",
        "solve_correspondence",
    },
    "pcs_spectra.errors": {
        "PcsSpectraError",
        "NoRealFactorization",
        "LadderExhausted",
        "TowerTooLong",
        "NoConvergence",
        "SingularShift",
        "DomainTooSmall",
        "DegenerateB",
    },
}


def test_all_lists_exactly_the_public_names_once():
    names = pcs_spectra.__all__
    assert len(names) == len(set(names)) == 52
    assert set(names) == set().union(*EXPORTS.values())


def test_each_name_is_the_defining_modules_object():
    for module_name, names in EXPORTS.items():
        module = importlib.import_module(module_name)
        for name in names:
            obj = getattr(pcs_spectra, name)
            assert obj is getattr(module, name), (module_name, name)
            # classes and functions also say where they were defined
            assert getattr(obj, "__module__", module_name) == module_name, (module_name, name)
