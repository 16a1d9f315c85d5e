"""Command-line contract: flags, config, schemas, exit codes."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pcs_spectra
import pcs_spectra.spectra
from pcs_spectra import BranchSign, SusyParams, TowerTooLong, cli, numerics
from pcs_spectra.cli import RunConfig, assemble_config, build_parser, run

A23 = ["--A", "2", "--B", "3", "--alpha", "1"]


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_csv(capsys, argv):
    code = run(argv + ["--format", "csv"])
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    return code, rows


def run_quietly(argv):
    """run(argv) with its output captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def edited_prediction(edit1=tuple, edit2=tuple):
    # verify against edited towers: the numeric states are untouched, so
    # the report shows what the edit left unmatched or off
    two_series = numerics.two_series_spectrum

    def edited(*args, **kwargs):
        s1, s2 = two_series(*args, **kwargs)
        return (
            dataclasses.replace(s1, energies=edit1(s1.energies)),
            dataclasses.replace(s2, energies=edit2(s2.energies)),
        )

    return mock.patch.object(numerics, "two_series_spectrum", edited)


def shifted_by(shift):
    return lambda energies: tuple(e + shift for e in energies)


def record_builds(monkeypatch):
    """The grid of every sinc matrix verify builds from here on."""
    eigen = numerics._sinc_eigen
    grids = []

    def recording(v, grid, leaks):
        grids.append(grid)
        return eigen(v, grid, leaks)

    monkeypatch.setattr(numerics, "_sinc_eigen", recording)
    return grids


def hexed(value):
    """value with each float, and each part of a complex, as its hex:
    == on the results compares bits, the signs of zeros included. A
    complex becomes the {"re", "im"} dict a report writes."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, complex):
        return {"re": value.real.hex(), "im": value.imag.hex()}
    if isinstance(value, dict):
        return {k: hexed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [hexed(v) for v in value]
    return value


def same_bits(written, z):
    # a complex parsed back from {"re", "im"} is z to the bit, the sign
    # of a zero part included
    return all(
        a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
        for a, b in ((written["re"], z.real), (written["im"], z.imag))
    )


class TestAnalyze:
    def test_worked_example(self, capsys):
        code, d = run_json(capsys, ["analyze", *A23, "--C", "0", "--branch", "plus"])
        assert code == 0
        assert d["schema_version"] == "1.0"
        assert d["coefficients"]["t2"] == {"re": -15.0, "im": 0.0}
        assert d["coefficients"]["st"]["im"] == 15.0 and d["coefficients"]["st"]["re"] == 0.0
        assert d["coefficients"]["e0"] == {"re": 4.0, "im": 0.0}
        assert d["pt"]["pt_symmetric"] is True
        facts = [s["factorization_energy"]["re"] for s in d["superpotentials"]]
        assert facts == [-4.0, -6.25]

    def test_broken_case_reports_constraint(self, capsys):
        code, d = run_json(capsys, ["analyze", *A23, "--C", "0.5"])
        assert code == 0
        assert d["pt"]["pt_symmetric"] is False
        assert "physical" not in d

    def test_default_branch_and_alpha(self, capsys):
        code, d = run_json(capsys, ["analyze", "--A", "2", "--B", "3"])
        assert code == 0
        assert d["branch"] == "plus" and d["params"]["alpha"] == 1.0


class TestSpectrum:
    def test_json_series(self, capsys):
        code, d = run_json(capsys, ["spectrum", "--A", "2.5", "--B", "3.2"])
        assert code == 0
        labels = [s["label"] for s in d["series"]]
        assert labels == ["series1", "series2"]
        e1 = [e["re"] for e in d["series"][0]["energies"]]
        assert e1 == [-6.25, -2.25, -0.25]

    def test_csv_round_trips_exactly(self, capsys):
        code, rows = run_csv(capsys, ["spectrum", "--A", "2.5", "--B", "3.2"])
        assert code == 0
        assert rows[0] == ["C", "branch", "series", "n", "re_E", "im_E", "residual"]
        body = rows[1:]
        assert len(body) == 6
        # analytic rows carry a blank residual and re-parse exactly
        assert all(r[6] == "" for r in body)
        assert float(body[0][4]) == -6.25
        assert float(body[3][4]) == -((3.2 - 0.5) ** 2)


class TestVerify:
    def test_pass_exit_zero(self, capsys):
        code, d = run_json(capsys, ["verify", "--A", "2.5", "--B", "3.2", "--C", "0"])
        assert code == 0
        assert d["passed"] is True
        assert d["summary"].startswith("6 matched")
        assert d["max_abs_err"] <= 1e-6
        assert len(d["matches"]) == 6

    def test_well_without_bound_states_passes_empty(self, capsys):
        # no level to place: the base grid stands and the search stops at
        # the continuum threshold
        code, d = run_json(capsys, ["verify", "--A", "-1", "--B", "0.2"])
        assert code == 0
        assert d["passed"] is True
        assert d["summary"] == "0 matched, max |dE| = 0.000e+00"
        assert d["grid"] == {"L": 12.0, "N": 4000, "base_L": 12.0, "base_N": 4000}
        assert d["re_limit"] == 0.0
        assert d["matches"] == d["unmatched_analytic"] == d["unmatched_numeric"] == []

    def test_fail_exit_one(self, capsys):
        # every level finds its state, but series2 is predicted 1e-4 off
        with edited_prediction(edit2=shifted_by(1e-4)):
            code, d = run_json(capsys, ["verify", "--A", "2.5", "--B", "3.2"])
        assert code == 1
        assert d["passed"] is False
        assert d["unmatched_analytic"] == d["unmatched_numeric"] == []
        assert d["max_abs_err"] == pytest.approx(1e-4, rel=1e-3)

    def test_report_energies_are_the_verifier_s(self, capsys):
        code, d = run_json(capsys, ["verify", *A23, "--C", "1"])
        p = SusyParams(A=2.0, B=3.0, C=1.0, alpha=1.0)
        report = numerics.verify_spectrum(p)
        assert code == 0 and report.passed
        assert len(d["matches"]) == len(report.matches) == 5
        for written, m in zip(d["matches"], report.matches):
            assert same_bits(written["analytic"], m.analytic.energy)
            assert same_bits(written["numeric"], m.numeric)
        assert d["unmatched_analytic"] == d["unmatched_numeric"] == []

    @staticmethod
    def _run_with_series1(capsys, edit):
        argv = ["verify", "--A", "2", "--B", "3", "--C", "0"]
        with edited_prediction(edit1=edit):
            code, d = run_json(capsys, argv)
            csv_code, rows = run_csv(capsys, argv)
        assert code == csv_code == 1
        assert d["passed"] is False
        return d, rows[1:]

    def test_fail_reports_unmatched_numeric(self, capsys):
        d, rows = self._run_with_series1(capsys, lambda energies: ())
        assert d["summary"].startswith("3 matched")
        assert [m["series"] for m in d["matches"]] == ["series2"] * 3
        assert d["unmatched_analytic"] == []
        left = d["unmatched_numeric"]
        assert [round(u["energy"]["re"], 6) for u in left] == [-4.0, -1.0]
        assert all(u["residual"] > 0 and u["boundary_leak"] >= 0 for u in left)
        # one CSV row per match, then one "unmatched" row per left-over state
        assert [r[2:4] for r in rows] == [["series2", str(n)] for n in range(3)] + [
            ["unmatched", "-1"]
        ] * 2
        for row, u in zip(rows[3:], left):
            assert row[4:] == [repr(u["energy"]["re"]), repr(u["energy"]["im"]),
                               repr(u["residual"])]

    def test_fail_reports_unmatched_analytic(self, capsys):
        d, rows = self._run_with_series1(capsys, lambda energies: energies + (-0.5 + 0j,))
        assert d["summary"].startswith("5 matched")
        assert d["unmatched_numeric"] == []
        assert d["unmatched_analytic"] == [
            {"series": "series1", "n": 2, "energy": {"re": -0.5, "im": 0.0}}
        ]
        # the level with no state is the last row, and its residual is blank
        assert len(rows) == 6
        assert rows[-1] == ["0.0", "plus", "series1", "2", "-0.5", "0.0", ""]
        assert all(row[6] for row in rows[:-1])

    def test_numeric_failure_exit_three(self, capsys):
        code = run(
            ["verify", "--A", "2.5", "--B", "3.2", "--L", "6", "--no-auto-domain"]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert "enlarge the domain" in err

    def test_census_over_budget_exit_three_quickly(self, capsys):
        # a huge but representable box needs sinc solves of n = 4420
        # points, dense eigensolves that would run past a minute
        start = time.perf_counter()
        code = run(["verify", "--A", "2", "--B", "3", "--L", "1e30"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "n = 4420" in captured.err and "budget" in captured.err
        assert elapsed < 10.0

    def test_census_over_budget_builds_no_operator(self, capsys, monkeypatch):
        # the box of L = 1e30 has 150,461 nodes at the default step: the
        # budget refuses it before any operator is built
        built = record_builds(monkeypatch)
        assert run(["verify", "--A", "2", "--B", "3", "--L", "1e30"]) == 3
        assert "budget" in capsys.readouterr().err
        assert built == []

    @pytest.mark.parametrize(
        "argv",
        [["--A", "2", "--B", "3", "--L", "1e30"], ["--A", "20", "--B", "25"]],
        ids=["L 1e30", "(20, 25)"],
    )
    def test_budget_refusal_loads_no_numpy(self, argv):
        # the point budget is read before any array exists, in a fresh
        # interpreter that has not loaded numpy
        script = (
            "import sys\n"
            "from pcs_spectra import cli\n"
            "code = cli.run(['verify', *sys.argv[1:]])\n"
            "print(code, 'numpy' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(pcs_spectra.__file__))
        done = subprocess.run(
            [sys.executable, "-c", script, *argv],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
        )
        assert done.stdout.split() == ["3", "False"]
        assert "budget" in done.stderr

    def test_verify_runs_no_finite_difference_code(self, capsys, monkeypatch):
        # verify and bifurcation --verify-at read their states off the
        # sinc solves alone; the finite-difference pipeline stays for
        # bound_spectrum's callers and criterion 7, and is never entered
        def refuse(*args, **kwargs):
            raise AssertionError("the finite-difference pipeline ran")

        for name in ("bound_spectrum", "discretize", "eigen_near", "refine_eigenvalue"):
            monkeypatch.setattr(numerics, name, refuse)
        wells = [
            ["--A", "2", "--B", "3"], ["--A", "2.5", "--B", "3.2"], ["--A", "2.25", "--B", "3"],
            ["--A", "2", "--B", "2.5"], [*A23, "--C", "1"], [*A23, "--C", "-1"],
        ]
        for well in wells:
            code, d = run_json(capsys, ["verify", *well])
            assert code == 0 and d["passed"], well
        code, d = run_json(capsys, ["bifurcation", *A23, "--steps", "101", "--verify-at", "1"])
        assert code == 0
        [check] = d["verifications"]
        assert check["plus"]["passed"] and check["minus"]["passed"]

    @pytest.mark.parametrize(
        "L, message",
        [(L, "decay length 1/kappa = 0.4") for L in ("0.05", "0.2", "0.3", "0.38")]
        + [(L, "enlarge the domain") for L in ("0.42", "6")],
    )
    def test_narrow_box_exit_three(self, capsys, monkeypatch, L, message):
        # (2, 3)'s most tightly bound level, E = -6.25, decays over
        # 1/kappa = 0.4, and its tail stays above the leak gate out to
        # L = 7.76. A narrower box clips every state, and a squeezed state
        # can land above the threshold, so every level went unmatched, a
        # FAIL: it is refused before any operator is built
        built = record_builds(monkeypatch)
        code = run(["verify", *A23, "--L", L, "--no-auto-domain"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert message in captured.err and "Traceback" not in captured.err
        assert built == []

    def test_deep_well_census_names_its_size(self, capsys):
        code = run(["verify", "--A", "20", "--B", "25"])
        err = capsys.readouterr().err
        assert code == 3
        assert "n = 1603" in err and "budget of 1500" in err

    @pytest.mark.parametrize(
        "well, c",
        [
            (("2", "3"), 1.0),
            (("2.5", "3.2"), 0.05),
            (("2", "2.5"), 0.5),
            (("2", "3"), 0.0),
            (("2", "3"), -0.0),
        ],
        ids=["(2, 3, 1)", "(2.5, 3.2, 0.05)", "(2, 2.5, 0.5) PT-degenerate", "(2, 3, 0)",
             "(2, 3, -0.0)"],
    )
    def test_minus_branch_is_plus_branch_at_minus_c(self, capsys, well, c):
        # bifurcation --verify-at reads (C, minus) from (-C, plus): the
        # two reports agree byte for byte but for the labels of the call
        well_argv = ["verify", "--A", well[0], "--B", well[1], "--C"]
        minus_code, minus = run_json(capsys, well_argv + [repr(c), "--branch", "minus"])
        plus_code, plus = run_json(capsys, well_argv + [repr(-c), "--branch", "plus"])
        assert minus_code == plus_code
        for d in (minus, plus):
            del d["params"], d["branch"]
        assert json.dumps(minus) == json.dumps(plus)


@pytest.mark.parametrize(
    "argv",
    [
        # Re(lam)/alpha >= 2^53: lam - alpha == lam, so the walk never ended
        ["verify", "--A", "1e17", "--B", "3"],
        ["bifurcation", "--A", "1e17", "--B", "3"],
        # a million levels: 74 MB of JSON
        ["spectrum", "--A", "1e6", "--B", "3"],
    ],
    ids=["verify", "bifurcation", "spectrum"],
)
def test_tower_over_level_budget_exit_three_quickly(capsys, argv):
    start = time.perf_counter()
    code = run(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: series1 would hold ")
    assert "over the level budget of 10000" in captured.err
    assert elapsed < 5.0


class TestSl2:
    def test_solutions_reported(self, capsys):
        code, d = run_json(capsys, ["sl2", *A23, "--C", "0"])
        assert code == 0
        ms = sorted(s["m"]["re"] for s in d["solutions"])
        assert ms == pytest.approx([-3.0, -2.5], abs=1e-10)
        assert all(s["max_residual"] <= 1e-10 for s in d["solutions"])

    def test_degenerate_exit_three(self, capsys):
        code = run(["sl2", "--A", "-0.5", "--B", "0"])
        assert code == 3
        assert "degenerate" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        # h^2 underflows, so the operator's 2/h^2 cannot be formed
        ["verify", "--A", "2", "--B", "3", "--L", "1e-300"],
        # h, or h^2, overflows, so the operator's 2/h^2 would be zero
        ["verify", "--A", "2", "--B", "3", "--L", "1e308"],
        ["verify", "--A", "2", "--B", "3", "--L", "1e160"],
        # h passes, but the sinh map packs the nodes over the well closer
        # than h, so 2/(h_i h_{i+1}) overflows there; the auto-grown box
        # of the first is refused sooner, on its census budget
        ["verify", "--A", "2", "--B", "3", "--alpha", "3.5e151"],
        ["verify", "--A", "2", "--B", "3", "--alpha", "5e151", "--no-auto-domain"],
        # finite inputs whose derived coefficients overflow
        ["spectrum", "--A", "1e300", "--B", "3"],
        ["sl2", "--A", "1e200", "--B", "1e200"],
        ["analyze", "--A", "1e200", "--B", "3"],
        # a finite C span within rounding of the largest float: the grid
        # is built without overflow, and its C gives an infinite energy
        ["bifurcation", "--A", "2", "--B", "3", "--C-min", "0",
         "--C-max", "1.7976931348623157e308", "--steps", "7"],
    ],
    ids=[
        "tiny-box", "huge-box", "huge-box-h2", "tiny-node-spacing", "tiny-node-spacing-fixed-box",
        "spectrum-overflow", "sl2-overflow", "analyze-overflow",
        "bifurcation-near-max-span",
    ],
)
def test_unrepresentable_numbers_exit_three(capsys, argv):
    # no warning on the way: the one line on stderr is the error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


class TestExchange:
    def test_report(self, capsys):
        code, d = run_json(capsys, ["exchange", "--A", "2", "--B", "3.2"])
        assert code == 0
        assert d["image"] == {"A": 2.7, "B": 2.5, "C": 0.0, "alpha": 1.0}
        assert d["involution_exact"] is True
        assert d["profile_invariance_err"] <= 1e-13


class TestBifurcation:
    def test_scan_json(self, capsys):
        code, d = run_json(
            capsys,
            ["bifurcation", *A23, "--C-min", "0", "--C-max", "1", "--steps", "11"],
        )
        assert code == 0
        assert len(d["points"]) == 11
        assert d["points"][0]["conjugacy_err"] == 0.0
        assert all(pt["conjugacy_err"] <= 1e-12 for pt in d["points"])

    @pytest.mark.parametrize(
        ("well", "c_min", "c_max"),
        [
            # starts at C = 0, where every Im part is a signed zero
            (A23, 0.0, 1.0),
            # C != 0 throughout, with towers of 2 and 5 levels
            (["--A", "0.7", "--B", "2.9", "--alpha", "0.6"], 0.3, 2.5),
        ],
        ids=["A2-B3", "broken"],
    )
    def test_report_energies_are_the_scan_s(self, capsys, well, c_min, c_max):
        argv = ["bifurcation", *well, "--C-min", str(c_min), "--C-max", str(c_max)]
        code, d = run_json(capsys, argv + ["--steps", "101"])
        assert code == 0
        p0 = SusyParams(**d["params"])
        assert d["c_grid"] == cli._c_grid(c_min, c_max, 101)
        points = pcs_spectra.spectra.bifurcation_scan(p0, d["c_grid"])
        assert len(d["points"]) == len(points) == 101

        def levels(towers):
            return {(s.label, n): e for s in towers for n, e in enumerate(s.energies)}

        for written, pt in zip(d["points"], points):
            for branch in ("plus", "minus"):
                energies = getattr(pt, f"energies_{branch}")
                assert len(written[f"energies_{branch}"]) == len(energies)
                assert all(map(same_bits, written[f"energies_{branch}"], energies))
            # the minus level is the conjugate of the plus level of its label
            plus, minus = levels(pt.plus), levels(pt.minus)
            assert plus.keys() == minus.keys()
            err = max([abs(e - minus[k].conjugate()) for k, e in plus.items()], default=0.0)
            assert written["conjugacy_err"] == err

    def test_scan_csv_eleven_cs(self, capsys, tmp_path):
        out = tmp_path / "bif.csv"
        code = run(
            ["bifurcation", *A23, "--C-min", "0", "--C-max", "1", "--steps", "11",
             "--out", str(out), "--format", "csv"]
        )
        assert code == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["C", "branch", "series", "n", "re_E", "im_E", "residual"]
        assert len({r[0] for r in rows[1:]}) == 11
        # a parsed row reproduces the float exactly
        c0 = [r for r in rows[1:] if float(r[0]) == 0.0 and r[1] == "plus"]
        assert {float(r[4]) for r in c0 if r[2] == "series1"} == {-4.0, -1.0}

    def test_csv_inferred_from_out_extension(self, capsys, tmp_path):
        out = tmp_path / "bif.csv"
        code = run(["bifurcation", *A23, "--steps", "3", "--out", str(out)])
        assert code == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["C", "branch", "series", "n", "re_E", "im_E", "residual"]
        assert len({r[0] for r in rows[1:]}) == 3
        # explicit --format always wins over the extension
        out2 = tmp_path / "bif2.csv"
        code = run(["bifurcation", *A23, "--steps", "3", "--out", str(out2),
                    "--format", "json"])
        assert code == 0
        assert json.loads(out2.read_text())["schema_version"] == "1.0"

    def test_towers_computed_once_rows_equal_json(self, capsys, monkeypatch):
        original = pcs_spectra.spectra.two_series_spectrum
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "pcs_spectra" and (
                getattr(module, "two_series_spectrum", None) is original
            ):
                monkeypatch.setattr(module, "two_series_spectrum", counted)
        argv = ["bifurcation", *A23, "--C-min", "0", "--C-max", "1", "--steps", "11"]
        code, d = run_json(capsys, argv)
        assert code == 0
        # one pair of towers at C = 0, one per branch at each other C
        assert len(calls) <= 2 * 11
        code, rows = run_csv(capsys, argv)
        assert code == 0
        for pt in d["points"]:
            for branch in ("plus", "minus"):
                got = sorted(
                    (r[4], r[5]) for r in rows[1:] if r[0] == repr(pt["C"]) and r[1] == branch
                )
                want = sorted(
                    (repr(e["re"]), repr(e["im"])) for e in pt[f"energies_{branch}"]
                )
                assert got == want, (pt["C"], branch)

    def test_verify_at(self, capsys):
        code, d = run_json(
            capsys,
            ["bifurcation", *A23, "--C-min", "0", "--C-max", "0", "--steps", "1",
             "--verify-at", "0"],
        )
        assert code == 0
        checks = d["verifications"]
        assert len(checks) == 1
        assert checks[0]["plus"]["passed"] and checks[0]["minus"]["passed"]
        assert checks[0]["numeric_conjugacy_err"] <= 1e-6

    def test_verify_at_fail_exit_one(self, capsys):
        argv = ["bifurcation", *A23, "--steps", "2", "--verify-at", "0"]
        with edited_prediction(edit2=shifted_by(1e-4)):
            code, d = run_json(capsys, argv)
        assert code == 1
        [check] = d["verifications"]
        assert check["plus"]["passed"] is False and check["minus"]["passed"] is False

    def test_repeated_verify_at_verified_once(self, capsys, monkeypatch):
        original = numerics.verify_spectrum
        calls = []

        def counted(p, *args, **kwargs):
            calls.append(p.C)
            return original(p, *args, **kwargs)

        monkeypatch.setattr(numerics, "verify_spectrum", counted)
        argv = ["bifurcation", *A23, "--steps", "2"]
        _, scan_rows = run_csv(capsys, argv)
        code, one = run_json(capsys, argv + ["--verify-at", "1"])
        _, one_rows = run_csv(capsys, argv + ["--verify-at", "1"])
        calls.clear()
        code20, twenty = run_json(capsys, argv + ["--verify-at", "1"] * 20)
        assert calls == [1.0, -1.0]
        _, twenty_rows = run_csv(capsys, argv + ["--verify-at", "1"] * 20)
        # the same bytes as verifying each copy anew
        assert code20 == code == 0
        assert twenty.pop("verifications") == one.pop("verifications") * 20
        assert twenty == one
        assert twenty_rows == scan_rows + one_rows[len(scan_rows):] * 20
        # -0.0 and 0.0 are different values and are verified apart
        calls.clear()
        zeros = ["--verify-at", "0", "--verify-at", "-0.0", "--verify-at", "0"]
        _, d = run_json(capsys, argv + zeros)
        assert [math.copysign(1.0, c) for c in calls] == [1.0, -1.0]
        assert [math.copysign(1.0, v["C"]) for v in d["verifications"]] == [1.0, -1.0, 1.0]

    def test_one_dense_census_per_well_up_to_pt_image(self, capsys, monkeypatch):
        # (1, minus) is the PT image of (1, plus) and the same well as
        # (-1, plus): the pair of sinc solves of one well serves both,
        # and the image takes their exact conjugates
        built = record_builds(monkeypatch)
        argv = ["bifurcation", *A23, "--steps", "3", "--verify-at", "1", "--verify-at", "-1"]
        code, d = run_json(capsys, argv)
        assert code == 0
        # the two solves run side by side, so they are taken by size,
        # not in the order they were built
        [coarse, fine] = sorted(built, key=lambda grid: grid.N)
        assert coarse.L == fine.L and coarse.N < fine.N
        assert all(v["numeric_conjugacy_err"] == 0.0 for v in d["verifications"])
        for check in d["verifications"]:
            for plus, minus in zip(check["plus"]["matches"], check["minus"]["matches"]):
                assert minus["numeric"] == {"re": plus["numeric"]["re"], "im": -plus["numeric"]["im"]}
                assert minus["residual"] == plus["residual"]
        # the next run finds those solves cached, and prints the same report
        built.clear()
        code, again = run_json(capsys, argv)
        assert code == 0 and built == [] and again == d
        code, _ = run_json(capsys, ["verify", *A23])
        assert code == 0 and len(built) == 2

    @pytest.mark.parametrize("c", ["1", "0.5"])
    def test_well_reports_the_same_in_every_command(self, capsys, c):
        # (c, minus) is the well (-c, plus), and the PT image of (c, plus):
        # verify and bifurcation --verify-at give each well one report
        keys = ("matches", "max_abs_err", "unmatched_analytic", "unmatched_numeric")
        well = ["--A", "2", "--B", "3"]
        _, minus = run_json(capsys, ["verify", *well, "--C", c, "--branch", "minus"])
        _, flipped = run_json(capsys, ["verify", *well, "--C", f"-{c}"])
        _, plus = run_json(capsys, ["verify", *well, "--C", c])
        numerics._canonical_sinc.cache_clear()
        _, d = run_json(capsys, ["bifurcation", *well, "--steps", "2", "--verify-at", c])
        [check] = d["verifications"]
        for key in keys:
            assert minus[key] == flipped[key] == check["minus"][key], key
            assert plus[key] == check["plus"][key], key

    @pytest.mark.parametrize(
        "argv",
        [
            ["--A", "2", "--B", "2.5", "--steps", "3", "--verify-at", "0.5"],
            ["--A", "1.5", "--B", "2.5", "--alpha", "2", "--verify-at", "0.4"],
        ],
        ids=["(2, 2.5, 0.5)", "(1.5, 2.5, 0.4, alpha 2)"],
    )
    def test_numeric_conjugacy_pairs_levels_by_label(self, capsys, argv):
        # conjugate levels whose real parts differ by rounding cross over
        # in an (Re, Im) sort; paired by (series, n) they agree
        code, d = run_json(capsys, ["bifurcation", *argv])
        assert code == 0
        [check] = d["verifications"]
        assert check["numeric_conjugacy_err"] <= 1e-9

    def test_conjugacy_of_different_labels_is_none(self):
        plus = {("series1", 0): -4 + 1j, ("series2", 0): -1 + 1j}
        assert cli._conjugacy_error(plus, {("series1", 0): -4 - 1j}) is None
        relabelled = {("series1", 0): -4 - 1j, ("series2", 1): -1 - 1j}
        assert cli._conjugacy_error(plus, relabelled) is None
        assert cli._conjugacy_error(plus, {k: e.conjugate() for k, e in plus.items()}) == 0.0
        assert cli._conjugacy_error({}, {}) == 0.0

    def test_leaky_state_off_the_continuum_exit_three(self, capsys):
        # the plus well at C = 1.3 holds a state at E = 1.33 + 1.56i that
        # decays too fast to be box continuum and still leaks through the
        # auto-grown box: a numeric failure, not a FAIL that drops it
        argv = ["bifurcation", "--A", "1.8", "--B", "3.1", "--steps", "2", "--verify-at", "1.3"]
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: state at E = (1.33")
        assert "leaks" in captured.err and "enlarge the domain" in captured.err
        assert "Traceback" not in captured.err


def scan_of(argv):
    """bifurcation_scan on the C grid that the report argv asks for."""
    cfg = assemble_config(build_parser().parse_args(argv))
    grid = cli._c_grid(cfg.c_min, cfg.c_max, cfg.steps)
    return pcs_spectra.spectra.bifurcation_scan(cfg.params, grid)


@st.composite
def scaled_bifurcations(draw):
    # test_spectra's scaled_sweeps as flags: criterion 5's box scaled by
    # 10^k with alpha != 1, and C endpoints that may be either signed zero
    scale = 10.0 ** draw(st.integers(-150, 150))
    A, B = draw(st.floats(0.5, 3.5)), draw(st.floats(0.5, 3.5))
    C = draw(st.floats(-1.5, 1.5))
    alpha = draw(st.floats(0.5, 2.0).filter(lambda a: a != 1.0))
    ends = st.floats(-1.5, 1.5) | st.sampled_from([0.0, -0.0])
    lo, hi = sorted((draw(ends) * scale, draw(ends) * scale))
    return [
        f"--A={A * scale!r}", f"--B={B * scale!r}", f"--C={C * scale!r}",
        f"--alpha={alpha * scale!r}", f"--C-min={lo!r}", f"--C-max={hi!r}",
        "--steps", str(draw(st.sampled_from([1, 2, 101]))),
    ]


@settings(max_examples=100, deadline=None)
@given(scaled_bifurcations())
@example(["--A=2.0", "--B=3.0", "--alpha=0.75", "--C-min=-0.0", "--C-max=0.0", "--steps", "2"])
@example(["--A=2.0", "--B=3.0", "--alpha=0.75", "--C-min=0.0", "--C-max=-0.0", "--steps", "1"])
@example(["--A=2e150", "--B=3e150", "--alpha=1.5e150", "--C-min=-0.0", "--C-max=1e150",
          "--steps", "101"])
def test_report_is_the_scan_bit_for_bit(flags):
    # test_report_energies_are_the_scan_s on scaled wells, signed-zero
    # endpoints and short grids, down to the sign of every zero, and on
    # every CSV row
    argv = ["bifurcation", *flags]
    points = scan_of(argv)
    code, out, err = run_quietly(argv)
    assert (code, err) == (0, "")
    want = [
        {
            "C": pt.C,
            "energies_plus": pt.energies_plus,
            "energies_minus": pt.energies_minus,
            # the minus level is the conjugate of the plus level of its label
            "conjugacy_err": max(
                [
                    abs(e - f.conjugate())
                    for s, t in zip(pt.plus, pt.minus)
                    for e, f in zip(s.energies, t.energies)
                ],
                default=0.0,
            ),
        }
        for pt in points
    ]
    assert hexed(json.loads(out)["points"]) == hexed(want)
    code, out, err = run_quietly(argv + ["--format", "csv"])
    assert (code, err) == (0, "")
    header, *rows = csv.reader(io.StringIO(out))
    assert header == list(cli._CSV_HEADER)
    written = [
        [float(c), branch, label, int(n), complex(float(re), float(im)), residual]
        for c, branch, label, n, re, im, residual in rows
    ]
    want = [
        [pt.C, branch, s.label, n, e, ""]
        for pt in points
        for branch, towers in (("plus", pt.plus), ("minus", pt.minus))
        for s in towers
        for n, e in enumerate(s.energies)
    ]
    assert hexed(written) == hexed(want)


@pytest.mark.parametrize(
    "well, error, message",
    [
        # the first rung overflows on both branches; plus raises first
        (["--A", "2e160", "--B", "3e160", "--alpha", "1e160"], ValueError,
         "factorization_energy must be finite"),
        # only w's energy overflows: B - alpha/2 is 0
        (["--A", "2e160", "--B", "5e159", "--alpha", "1e160"], ValueError,
         "factorization_energy must be finite"),
        # the exchanged pair overflows: B - alpha/2 is -inf
        (["--A", "2", "--B=-1.7e308", "--alpha", "1.7e308"], ValueError,
         "lam must be finite, got (-inf-0j)"),
        # the level budget, on each tower
        (["--A", "10000.5", "--B", "3"], TowerTooLong, "series1 would hold 10001 levels"),
        (["--A", "2", "--B", "1e17", "--C-min", "0.5", "--C-max", "0.5"], TowerTooLong,
         "series2 would hold 100000000000000000 levels"),
    ],
    ids=["both-energies", "w-energy", "exchanged-pair", "series1-budget", "series2-budget"],
)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_raises_the_scan_s_error(well, error, message, fmt):
    argv = ["bifurcation", *well, "--steps", "1", "--format", fmt]
    with pytest.raises(error) as info:
        scan_of(argv)
    assert message in str(info.value)
    assert run_quietly(argv) == (3, "", f"error: {info.value}\n")


@st.composite
def _c_ranges(draw):
    lo = draw(st.floats(allow_nan=False, allow_infinity=False))
    if draw(st.booleans()):
        hi = draw(st.floats(allow_nan=False, allow_infinity=False))
    else:
        # a few ulps above lo: near zero the step underflows to 0.0
        hi = lo
        for _ in range(draw(st.integers(0, 16))):
            hi = math.nextafter(hi, math.inf)
    lo, hi = sorted((lo, hi))
    assume(math.isfinite(hi - lo))
    return lo, hi


@settings(max_examples=200)
@given(_c_ranges(), st.one_of(st.sampled_from([1, 2, cli.MAX_STEPS]), st.integers(1, 50)))
@example((0.0, 5e-324), 7)
@example((5e-324, 2e-323), cli.MAX_STEPS)
@example((-1e-322, 5e-324), 2)
@example((-0.0, 0.0), 1)
@example((0.0, -0.0), 3)
@example((-0.0, -0.0), 2)
@example((-0.0, 1.0), cli.MAX_STEPS)
@example((0.0, 1.7976931348623157e308), 7)
@example((-8.988465674311579e307, 8.988465674311579e307), cli.MAX_STEPS)
@example((1e308, 1.7976931348623157e308), 101)
def test_c_grid_equals_linspace(c_range, steps):
    lo, hi = c_range
    with np.errstate(all="ignore"):
        want = [float(c).hex() for c in np.linspace(lo, hi, steps)]
    assert [c.hex() for c in cli._c_grid(lo, hi, steps)] == want


class TestUsageErrors:
    def test_missing_required_params(self, capsys):
        assert run(["analyze", "--B", "3"]) == 2
        assert "--A and --B" in capsys.readouterr().err

    def test_unknown_flag(self):
        assert run(["analyze", "--A", "2", "--B", "3", "--frobnicate"]) == 2

    def test_csv_not_available_for_analyze(self, capsys):
        assert run(["analyze", "--A", "2", "--B", "3", "--format", "csv"]) == 2

    def test_bad_numeric_overrides(self, capsys, tmp_path):
        assert run(["verify", "--A", "2", "--B", "3", "--L", "-4"]) == 2
        assert run(["analyze", "--A", "2", "--B", "3", "--alpha", "0"]) == 2
        # non-finite values are usage errors, never a crash or a PASS
        assert run(["verify", "--A", "2", "--B", "3", "--L", "inf"]) == 2
        assert run(["analyze", "--A", "2", "--B", "3", "--C", "nan"]) == 2
        # the residual tolerance is fixed, so neither flag nor key sets it
        assert run(["verify", "--A", "2", "--B", "3", "--tol", "1e-9"]) == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"tol": 1e-9}')
        assert run(["verify", "--A", "2", "--B", "3", "--config", str(cfg)]) == 2
        assert "unknown config field 'tol'" in capsys.readouterr().err
        # Python's json reads Infinity, NaN and an overflowing 1e400
        for text in ('{"L": Infinity}', '{"c_min": NaN}', '{"C": 1e400}'):
            cfg.write_text(text)
            assert run(["bifurcation", *A23, "--config", str(cfg)]) == 2
            assert "finite" in capsys.readouterr().err

    def test_match_tolerance_is_fixed(self, capsys, tmp_path):
        # every verdict is judged at DEFAULT_TOL_MATCH, so neither flag
        # nor key moves the bar, whatever the value
        for value in ("1e-3", "1e300", "inf", "nan"):
            assert run(["verify", *A23, "--tol-match", value]) == 2
            assert "unrecognized arguments: --tol-match" in capsys.readouterr().err
        assert run(["bifurcation", *A23, "--verify-at", "1", "--tol-match", "1e-2"]) == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"tol_match": 1e-3}')
        assert run(["verify", *A23, "--config", str(cfg)]) == 2
        assert "unknown config field 'tol_match'" in capsys.readouterr().err

    def test_resolution_is_fixed(self, tmp_path, capsys):
        # the verifier's grid follows the well, so neither flag nor key
        # sets its point count
        for command in ("verify", "bifurcation"):
            assert run([command, *A23, "--N", "1500"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "unrecognized arguments: --N" in captured.err
            assert "Traceback" not in captured.err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"N": 4000}))
        assert run(["verify", *A23, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: unknown config field 'N'\n"

    def test_bad_scan_bounds(self, capsys, tmp_path):
        assert run(["bifurcation", *A23, "--C-min", "1", "--C-max", "0"]) == 2
        assert run(["bifurcation", *A23, "--steps", "0"]) == 2
        assert run(["bifurcation", *A23, "--C-min", "nan"]) == 2
        assert run(["bifurcation", *A23, "--C-max", "inf"]) == 2
        assert run(["bifurcation", *A23, "--verify-at", "inf"]) == 2
        assert "finite" in capsys.readouterr().err
        # both bounds finite, but C-max - C-min overflows: np.linspace
        # would warn and fill the grid with inf and NaN
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"c_min": -1e308, "c_max": 1e308, "steps": 3}')
        expected = "error: --C-max 1e+308 minus --C-min -1e+308 is not a finite float\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for extra in (
                ["--C-min=-1e308", "--C-max", "1e308", "--steps", "3"],
                ["--config", str(cfg)],
            ):
                assert run(["bifurcation", *A23, *extra]) == 2
                assert capsys.readouterr() == ("", expected)

    def test_steps_above_budget(self, capsys, tmp_path):
        # the C grid is allocated whole before the sweep, so flag and
        # config are both capped at cli.MAX_STEPS
        assert run(["bifurcation", *A23, "--steps", "10001"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --steps must be at most 10000, got 10001\n"
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"steps": 10001}')
        assert run(["bifurcation", *A23, "--config", str(cfg)]) == 2
        assert "--steps must be at most 10000" in capsys.readouterr().err
        start = time.perf_counter()
        assert run(["bifurcation", *A23, "--steps", "1000000000"]) == 2
        assert time.perf_counter() - start < 1.0
        assert "got 1000000000" in capsys.readouterr().err
        args = build_parser().parse_args(["bifurcation", *A23, "--steps", "10000"])
        assert assemble_config(args).steps == cli.MAX_STEPS

    def test_verify_at_above_budget(self, capsys, tmp_path):
        start = time.perf_counter()
        assert run(["bifurcation", *A23, *["--verify-at", "1"] * 101]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --verify-at takes at most 100 values, got 101\n"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"verify_at": [1.0] * 101}))
        assert run(["bifurcation", *A23, "--config", str(cfg)]) == 2
        assert "--verify-at takes at most 100 values, got 101" in capsys.readouterr().err
        args = build_parser().parse_args(["bifurcation", *A23, *["--verify-at", "1"] * 100])
        assert len(assemble_config(args).verify_at) == cli.MAX_VERIFY_AT

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0

    @pytest.mark.parametrize("command", ["analyze", "spectrum"])
    def test_unwritable_out_exit_two(self, capsys, tmp_path, command):
        for out in (tmp_path / "missing" / "x.json", tmp_path):
            assert run([command, *A23, "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: cannot write report to {str(out)!r}: ")
            assert "Traceback" not in captured.err


class TestConfig:
    def test_config_overrides_flags(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"B": 3.2, "branch": "plus"}))
        code, d = run_json(
            capsys,
            ["analyze", "--A", "2", "--B", "999", "--config", str(cfg)],
        )
        assert code == 0
        assert d["params"]["B"] == 3.2

    def test_nested_params_object(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {"A": 2.5, "B": 3.2, "alpha": 1.0}}))
        code, d = run_json(capsys, ["spectrum", "--config", str(cfg)])
        assert code == 0
        assert d["params"]["A"] == 2.5

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 1.0}))
        assert run(["analyze", "--A", "2", "--B", "3", "--config", str(cfg)]) == 2
        assert "gamma" in capsys.readouterr().err

    def test_command_mismatch_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "verify"}))
        assert run(["analyze", "--A", "2", "--B", "3", "--config", str(cfg)]) == 2

    def test_wrong_type_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 12.5}))
        assert run(["bifurcation", "--A", "2", "--B", "3", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == "error: config field 'steps' must be an integer, got 12.5\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1, 2]", "config {path!r} must hold a JSON object"),
            ("{bad", "config {path!r} is not valid JSON: Expecting property name enclosed "
             "in double quotes: line 1 column 2 (char 1)"),
            ('{"params": 3}', "config field 'params' must be an object"),
            ('{"params": {"D": 1}}', "unknown config field params.D"),
            ('{"verify_at": 1}', "config field 'verify_at' must be a list of numbers, got 1"),
            ('{"verify_at": [true]}', "config field 'verify_at' must contain only numbers"),
            ('{"format": "xml"}', "--format must be json or csv, got 'xml'"),
            ('{"L": "6"}', "config field 'L' must be a number, got '6'"),
            ('{"auto_domain": 1}', "config field 'auto_domain' must be true/false, got 1"),
            ('{"branch": 1}', "config field 'branch' must be a string, got 1"),
        ],
        ids=["list", "not-json", "params-number", "params-key", "verify-at-number",
             "verify-at-bool", "format", "L-string", "auto-domain-number", "branch-number"],
    )
    def test_malformed_config_exit_two(self, capsys, tmp_path, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert run(["bifurcation", *A23, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: " + message.format(path=str(cfg)) + "\n"

    def test_every_key_lands_in_run_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "command": "bifurcation",
            "params": {"A": 2.5, "B": 3.25},
            "C": 0.5,
            "alpha": 1.5,
            "branch": "minus",
            "L": 30,
            "auto_domain": False,
            "out": "scan.csv",
            "format": "json",
            "c_min": -0.5,
            "c_max": 2.0,
            "steps": 7,
            "verify_at": [0, 0.25],
        }))
        args = build_parser().parse_args(["bifurcation", "--config", str(cfg)])
        assert assemble_config(args) == RunConfig(
            command="bifurcation",
            params=SusyParams(A=2.5, B=3.25, C=0.5, alpha=1.5),
            branch=BranchSign.MINUS,
            L=30.0,
            auto_domain=False,
            out="scan.csv",
            format="json",
            c_min=-0.5,
            c_max=2.0,
            steps=7,
            verify_at=(0.0, 0.25),
        )

    def test_defaults_when_optional_keys_omitted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"A": 2.0, "B": 3.0}))
        args = build_parser().parse_args(["bifurcation", "--config", str(cfg)])
        assert assemble_config(args) == RunConfig(
            command="bifurcation",
            params=SusyParams(A=2.0, B=3.0, C=0.0, alpha=1.0),
            branch=BranchSign.PLUS,
            L=None,
            auto_domain=True,
            out=None,
            format="json",
            c_min=0.0,
            c_max=1.0,
            steps=11,
            verify_at=(),
        )

    def test_missing_file_rejected(self):
        assert run(["analyze", "--A", "2", "--B", "3", "--config", "/nope.json"]) == 2


class TestDeterminism:
    def test_identical_config_identical_bytes(self, capsys):
        run(["spectrum", "--A", "2.5", "--B", "3.2", "--C", "0.3"])
        first = capsys.readouterr().out
        run(["spectrum", "--A", "2.5", "--B", "3.2", "--C", "0.3"])
        second = capsys.readouterr().out
        assert first == second and first.endswith("\n")

    def test_verify_identical_bytes(self, capsys):
        # the numeric digits too, for a fixed BLAS thread count
        assert run(["verify", "--A", "2", "--B", "3"]) == 0
        first = capsys.readouterr().out
        assert run(["verify", "--A", "2", "--B", "3"]) == 0
        second = capsys.readouterr().out
        assert first == second and first.endswith("\n")

    def test_output_file_lf_only(self, tmp_path):
        out = tmp_path / "out.json"
        assert run(["spectrum", "--A", "2.5", "--B", "3.2", "--out", str(out)]) == 0
        raw = out.read_bytes()
        assert b"\r" not in raw and raw.decode("utf-8")


def test_module_entry_point():
    # python -m pcs_spectra.cli runs main(), which exits with run()'s
    # code, in a new interpreter on this source tree
    src = os.path.dirname(os.path.dirname(pcs_spectra.__file__))
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))

    def module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "pcs_spectra.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )

    done = module("analyze", "--A", "2", "--B", "3")
    assert done.returncode == 0
    assert json.loads(done.stdout)["schema_version"] == "1.0"
    done = module("verify", "--A", "2", "--B", "3", "--L", "6", "--no-auto-domain")
    assert done.returncode == 3
    assert done.stdout == ""
    [line] = done.stderr.splitlines()
    assert line.startswith("error: ") and "enlarge the domain" in line



def test_verdict_does_not_follow_the_blas_thread_count():
    # (3, 3.5) sits at the exchange fixed point, where every level is a
    # defective pair; its sinc energies move in their trailing bits with
    # the BLAS thread count, its verdict and labels do not
    src = os.path.dirname(os.path.dirname(pcs_spectra.__file__))
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run(
            [sys.executable, "-m", "pcs_spectra.cli", "verify", "--A", "3", "--B", "3.5"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        reports.append((done.returncode, json.loads(done.stdout)))
    (one_code, one), (two_code, two) = reports
    assert one_code == two_code == 0
    assert [(m["series"], m["n"]) for m in one["matches"]] == [
        (m["series"], m["n"]) for m in two["matches"]
    ]
    assert one["max_abs_err"] <= 1e-9 and two["max_abs_err"] <= 1e-9

class TestParserReuse:
    """run() builds its parser once per process and shares it."""

    @pytest.fixture(autouse=True)
    def empty_parser_cache(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    def test_build_parser_called_once(self, capsys, monkeypatch):
        calls = []

        def counted():
            calls.append(None)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted)
        assert run(["analyze", *A23]) == 0
        assert run(["spectrum", *A23]) == 0
        assert run(["analyze", "--B", "3"]) == 2
        assert len(calls) == 1
        # the public builder still returns a new parser on each call
        assert build_parser() is not build_parser()

    def test_shared_parser_output_equals_fresh_parser(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"command": "spectrum", "A": 2.5, "B": 3.2, "C": 0.3}')
        verify_twice = ["bifurcation", *A23, "--steps", "2",
                        "--verify-at", "0", "--verify-at", "1"]
        calls = [
            ["analyze", *A23, "--frobnicate"],
            ["--help"],
            verify_twice,
            ["verify", "--help"],
            ["spectrum", "--config", str(cfg)],
            ["bifurcation", *A23, "--steps", "3"],
            ["bifurcation"],
            verify_twice,
            ["analyze", *A23],
        ]

        def outcome(argv):
            code = run(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        shared = [outcome(argv) for argv in calls]
        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append(outcome(argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [2, 0, 0, 0, 0, 0, 2, 0, 0]
        assert len(json.loads(shared[2][1])["verifications"]) == 2


class _Float(float):
    # json ignores a subclass's repr, and so must the writer
    def __repr__(self):
        return "not a number"


# containers json writes as their base type; the writer must not take
# them for anything else
class _List(list):
    pass


class _Tuple(tuple):
    pass


class _Dict(dict):
    pass


_TEXT = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600') | st.characters(), max_size=8)
_FLOATS = (
    st.floats()
    | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])
    | st.floats().map(_Float)
)


def _nested(leaves):
    return st.recursive(
        leaves,
        lambda kids: (
            st.lists(kids, max_size=4)
            | st.lists(kids, max_size=4).map(tuple)
            | st.dictionaries(_TEXT, kids, max_size=4)
        ),
        max_leaves=16,
    )


_LEAVES = _FLOATS | st.integers() | st.booleans() | st.none() | _TEXT
_JSON_VALUES = _nested(_LEAVES)
_WITH_COMPLEX = _nested(st.builds(complex, _FLOATS, _FLOATS) | _LEAVES)


def _complex_as_dicts(value):
    # what the writer writes for a complex, as json.dumps input
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, dict):
        return {k: _complex_as_dicts(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_complex_as_dicts(v) for v in value]
    return value


class TestJsonWriter:
    """The report writer gives the bytes of json.dumps(indent=2)."""

    @settings(max_examples=200)
    @given(_JSON_VALUES)
    @example({"a": [], "b": {}, "c": [[], {}, ()], "d": [{"e": [[]]}]})
    @example([_Float(-0.0), _Float(math.nan), _Float(-math.inf), True, 1, None])
    @example(_List([1.0, _List(), "x"]))
    @example(_Tuple((2.5, _Tuple(), None)))
    @example(_Dict({"a": _Dict(), "b": [-0.0]}))
    @example([True, _Float(1.0)])
    def test_equals_json_dumps(self, value):
        assert cli._to_json(value) == json.dumps(value, indent=2)

    @settings(max_examples=200)
    @given(_WITH_COMPLEX)
    @example(complex(-0.0, math.nan))
    @example([complex(-4.0, -0.0), complex(math.inf, 0.0), complex(1.5, -math.inf), 2.0])
    @example((complex(0.0, -0.0), [complex(math.nan, math.nan)], {"z": complex(-0.0, 1e300)}))
    @example([np.complex128(0.25 - 1e-300j), np.float64(-0.0), complex(_Float(2.0), 0.0)])
    def test_complex_equals_json_dumps_of_re_im(self, value):
        assert cli._to_json(value) == json.dumps(_complex_as_dicts(value), indent=2)

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", *A23, "--C", "0.5"],
            ["spectrum", *A23, "--C", "0.5", "--branch", "minus"],
            ["verify", *A23],
            ["sl2", *A23],
            ["bifurcation", *A23, "--steps", "3", "--verify-at", "1"],
            ["exchange", *A23, "--C", "0.5"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_report_bytes_equal_json_dumps(self, capsys, argv):
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_json_report_builds_no_csv_rows(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "_verify_rows", lambda *args: built.append(args) or [])
        assert run(["verify", *A23]) == 0
        assert run(["bifurcation", *A23, "--steps", "2", "--verify-at", "1"]) == 0
        assert built == []
        capsys.readouterr()
        assert run(["verify", *A23, "--format", "csv"]) == 0
        assert len(built) == 1
