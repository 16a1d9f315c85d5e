"""The package's public surface: which names it exports, from where, and what importing it loads."""

import importlib
import json
import os
import subprocess
import sys
import textwrap

import pytest

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
    assert len(names) == len(set(names)) == 51
    assert set(names) == set().union(*EXPORTS.values())


def test_each_name_is_the_defining_modules_object():
    for module_name, names in EXPORTS.items():
        module = importlib.import_module(module_name)
        for name in names:
            obj = getattr(pcs_spectra, name)
            assert obj is getattr(module, name), (module_name, name)
            # classes and functions also say where they were defined
            assert getattr(obj, "__module__", module_name) == module_name, (module_name, name)


def _fresh(script: str, *args: str) -> dict:
    # This process already holds scipy (test_numerics imports it), so
    # import-time behaviour is read in a new interpreter on the same
    # source tree; the script prints one JSON object as its last line.
    src = os.path.dirname(os.path.dirname(pcs_spectra.__file__))
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    out = json.loads(done.stdout.splitlines()[-1])
    assert out.pop("file") == pcs_spectra.__file__
    return out


def test_closed_form_commands_never_load_scipy():
    # numpy is pinned too: only the commands that handle arrays load it,
    # and sl2 reports its four residuals as plain floats. verify's dense
    # solves run on numpy.linalg, so it loads no scipy either. The
    # package and cli load numerics and sl2 only when a name of theirs
    # is read, so a closed-form call compiles neither
    out = _fresh("""
        import contextlib, io, json, sys

        def loaded():
            names = ("numpy", "scipy", "pcs_spectra.numerics", "pcs_spectra.sl2")
            return [name for name in names if name in sys.modules]

        import pcs_spectra
        from pcs_spectra import cli

        stages = {"import": loaded()}
        well = ["--A", "2", "--B", "3"]
        commands = {
            "closed": [["analyze"], ["spectrum"], ["exchange"], ["bifurcation", "--steps", "11"]],
            "sl2": [["sl2"]],
            "verify": [["verify"]],
        }
        codes = {}
        with contextlib.redirect_stdout(io.StringIO()):
            for stage, argvs in commands.items():
                codes[stage] = [cli.run([*argv, *well]) for argv in argvs]
                stages[stage] = loaded()
        checks = {
            "same": pcs_spectra.verify_spectrum is pcs_spectra.numerics.verify_spectrum,
            "cli": cli.verify_spectrum is pcs_spectra.numerics.verify_spectrum,
            # the written-out lazy names are the two modules' lists, and
            # __all__ keeps its order
            "lazy": pcs_spectra.__all__ == [
                "__version__",
                *pcs_spectra.core.__all__,
                *pcs_spectra.spectra.__all__,
                *pcs_spectra.numerics.__all__,
                *pcs_spectra.sl2.__all__,
                *pcs_spectra.errors.__all__,
            ],
        }
        space = {}
        exec("from pcs_spectra import *", space)
        checks["star"] = set(space) - {"__builtins__"} == set(pcs_spectra.__all__)
        print(json.dumps({
            "file": pcs_spectra.__file__, "codes": codes, "loaded": stages, "checks": checks,
        }))
    """)
    assert out == {
        "codes": {"closed": [0] * 4, "sl2": [0], "verify": [0]},
        "loaded": {
            "import": [],
            "closed": [],
            "sl2": ["pcs_spectra.sl2"],
            "verify": ["numpy", "pcs_spectra.numerics", "pcs_spectra.sl2"],
        },
        "checks": {"same": True, "cli": True, "lazy": True, "star": True},
    }


@pytest.mark.parametrize("order", ["read", "unread"])
def test_scipy_names_are_module_attributes(order):
    # perfbench's tracer reads numerics.zgttrf and numerics.zgttrs and
    # replaces them with setattr before any solve; the solves must then
    # call the replacements, whichever name was read first
    out = _fresh("""
        import json
        import sys
        import scipy.linalg.lapack
        import pcs_spectra
        from pcs_spectra import BranchSign, SusyParams, numerics, pcs_partner_coefficients

        real = scipy.linalg.lapack.zgttrs
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        checks = {}
        if sys.argv[1] == "read":
            checks["zgttrf"] = numerics.zgttrf is scipy.linalg.lapack.zgttrf
            checks["zgttrs"] = numerics.zgttrs is real
            from pcs_spectra.numerics import zgttrs
            checks["from_import"] = zgttrs is real
            try:
                numerics.no_such_name
            except AttributeError:
                checks["attribute_error"] = True
        numerics.zgttrs = counting
        v = pcs_partner_coefficients(SusyParams(A=2.0, B=3.0, C=0.0, alpha=1.0), BranchSign.PLUS)
        numerics.eigen_near(numerics.discretize(v, numerics.Grid(L=12.0, N=200)), -4.0)
        checks["kept"] = numerics.zgttrs is counting
        checks["zgttrf_after"] = numerics.zgttrf is scipy.linalg.lapack.zgttrf
        print(json.dumps({"file": pcs_spectra.__file__, "calls": len(calls), "checks": checks}))
    """, order)
    assert out["calls"] > 0
    assert all(out["checks"].values())
    assert len(out["checks"]) == (6 if order == "read" else 2)
