"""Command-line contract: flags, config, schemas, exit codes."""

import csv
import io
import json
import sys

import pytest

import pcs_spectra.spectra
from pcs_spectra import DEFAULT_TOL_MATCH, BranchSign, SusyParams
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

    def test_fail_exit_one(self, capsys):
        code, d = run_json(
            capsys,
            ["verify", "--A", "2.5", "--B", "3.2", "--tol-match", "1e-14"],
        )
        assert code == 1
        assert d["passed"] is False

    def test_numeric_failure_exit_three(self, capsys):
        code = run(
            ["verify", "--A", "2.5", "--B", "3.2", "--L", "6", "--N", "1200",
             "--no-auto-domain"]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert "enlarge the domain" in err


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
        # finite inputs whose derived coefficients overflow
        ["spectrum", "--A", "1e300", "--B", "3"],
        ["sl2", "--A", "1e200", "--B", "1e200"],
        ["analyze", "--A", "1e200", "--B", "3"],
    ],
    ids=[
        "tiny-box", "huge-box", "huge-box-h2",
        "spectrum-overflow", "sl2-overflow", "analyze-overflow",
    ],
)
def test_unrepresentable_numbers_exit_three(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


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


class TestUsageErrors:
    def test_missing_required_params(self, capsys):
        assert run(["analyze", "--B", "3"]) == 2
        assert "--A and --B" in capsys.readouterr().err

    def test_unknown_flag(self):
        assert run(["analyze", "--A", "2", "--B", "3", "--frobnicate"]) == 2

    def test_csv_not_available_for_analyze(self, capsys):
        assert run(["analyze", "--A", "2", "--B", "3", "--format", "csv"]) == 2

    def test_bad_numeric_overrides(self, capsys, tmp_path):
        assert run(["verify", "--A", "2", "--B", "3", "--N", "2"]) == 2
        assert run(["verify", "--A", "2", "--B", "3", "--L", "-4"]) == 2
        assert run(["analyze", "--A", "2", "--B", "3", "--alpha", "0"]) == 2
        # non-finite values are usage errors, never a crash or a PASS
        assert run(["verify", "--A", "2", "--B", "3", "--L", "inf"]) == 2
        assert run(["verify", "--A", "2", "--B", "3", "--tol-match", "inf"]) == 2
        assert run(["verify", "--A", "2", "--B", "3", "--tol-match", "nan"]) == 2
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

    def test_tol_match_above_bound(self, capsys, tmp_path):
        # matching looks within 10 tol_match of each level, so a huge
        # value would certify any well; flag and config are both capped
        assert run(["verify", *A23, "--tol-match", "1e300"]) == 2
        assert "--tol-match must be at most" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"tol_match": 0.002}')
        assert run(["verify", *A23, "--config", str(cfg)]) == 2
        assert run(["bifurcation", *A23, "--verify-at", "1", "--tol-match", "1e-2"]) == 2
        assert run(["verify", *A23, "--tol-match", "1e-3"]) == 0

    def test_bad_scan_bounds(self, capsys):
        assert run(["bifurcation", *A23, "--C-min", "1", "--C-max", "0"]) == 2
        assert run(["bifurcation", *A23, "--steps", "0"]) == 2
        assert run(["bifurcation", *A23, "--C-min", "nan"]) == 2
        assert run(["bifurcation", *A23, "--C-max", "inf"]) == 2
        assert run(["bifurcation", *A23, "--verify-at", "inf"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0


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
        cfg.write_text(json.dumps({"N": 12.5}))
        assert run(["verify", "--A", "2", "--B", "3", "--config", str(cfg)]) == 2

    def test_every_key_lands_in_run_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "command": "bifurcation",
            "params": {"A": 2.5, "B": 3.25},
            "C": 0.5,
            "alpha": 1.5,
            "branch": "minus",
            "L": 30,
            "N": 1200,
            "tol_match": 1e-6,
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
            N=1200,
            tol_match=1e-6,
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
            N=None,
            tol_match=DEFAULT_TOL_MATCH,
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

    def test_output_file_lf_only(self, tmp_path):
        out = tmp_path / "out.json"
        assert run(["spectrum", "--A", "2.5", "--B", "3.2", "--out", str(out)]) == 0
        raw = out.read_bytes()
        assert b"\r" not in raw and raw.decode("utf-8")
