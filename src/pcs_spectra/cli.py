"""Command-line front end.

Six subcommands expose the library: analyze (algebra of one well),
spectrum (analytic towers), verify (towers vs numerics), sl2
(algebraic labels), bifurcation (C sweep), exchange (parameter swap).
Reports are JSON by default; spectrum, verify and bifurcation can emit
CSV. All output is deterministic: fixed field order, shortest
round-trip floats, LF line endings.

Exit codes: 0 success (and verification PASS), 1 verification FAIL,
2 usage or config error, 3 numeric failure, including finite inputs
whose derived values overflow or underflow (the underlying error
message is printed to stderr verbatim).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
import typing

import numpy as np

from .core import (
    BranchSign,
    SusyParams,
    dual_superpotentials,
    exchange_map,
    partner_potentials,
    pcs_partner_coefficients,
    pt_constraint_check,
    susy_to_physical,
)
from .errors import PcsSpectraError
from .numerics import DEFAULT_TOL_MATCH, MAX_TOL_MATCH, Grid, default_grid, verify_spectrum
from .sl2 import Sl2Params, correspondence_residuals, m_square_identities, solve_correspondence
from .spectra import bifurcation_scan, energy_sort_key, two_series_spectrum

__all__ = ["RunConfig", "SCHEMA_VERSION", "build_parser", "run", "main"]

SCHEMA_VERSION = "1.0"

_COMMANDS = ("analyze", "spectrum", "verify", "sl2", "bifurcation", "exchange")
_CSV_COMMANDS = ("spectrum", "verify", "bifurcation")
_CSV_HEADER = ("C", "branch", "series", "n", "re_E", "im_E", "residual")


class UsageError(Exception):
    """Bad flags or config; maps to exit code 2."""


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: command, well parameters, overrides.

    The fields are the config file's keys, except that ``params`` stands
    for the SusyParams fields A, B, C and alpha (top level, or nested in
    a "params" object). A field's annotation is its key's type, and its
    default applies when neither the config file nor a flag sets it.
    """

    command: str
    params: SusyParams
    branch: BranchSign = BranchSign.PLUS
    L: float | None = None
    N: int | None = None
    tol_match: float = DEFAULT_TOL_MATCH
    auto_domain: bool = True
    out: str | None = None
    format: str = "json"
    c_min: float = 0.0
    c_max: float = 1.0
    steps: int = 11
    verify_at: tuple[float, ...] = ()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcs-spectra",
        description="SUSY and sl(2) structure of the complexified Scarf well, "
        "with independent numerical verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # no abbreviations: a removed flag must fail rather than silently
    # become a longer one (--tol would be read as --tol-match)
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--A", type=float, default=None, help="tanh strength parameter")
        sp.add_argument("--B", type=float, default=None, help="sech strength parameter")
        sp.add_argument("--C", type=float, default=None, help="PT-breaking parameter (default 0)")
        sp.add_argument("--alpha", type=float, default=None, help="range parameter (default 1)")
        sp.add_argument(
            "--branch", choices=("plus", "minus"), default=None, help="ansatz branch sign"
        )
        sp.add_argument("--config", default=None, help="JSON config overriding flags")
        sp.add_argument("--out", default=None, help="write the report to this path")
        sp.add_argument("--format", choices=("json", "csv"), default=None)

    def gridded(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--L", type=float, default=None, help="half-width of the box")
        sp.add_argument("--N", type=int, default=None, help="interior grid points")
        sp.add_argument(
            "--tol-match",
            type=float,
            default=None,
            help=f"analytic/numeric match tolerance, at most {MAX_TOL_MATCH:g}",
        )
        sp.add_argument(
            "--no-auto-domain",
            action="store_true",
            help="never enlarge the box beyond L (slow-decaying states then fail loudly)",
        )

    common(add("analyze", help="PT constraint, coefficients, dual factorizations"))
    common(add("spectrum", help="analytic level towers of one branch"))
    sp_verify = add("verify", help="match analytic towers against the eigensolver")
    common(sp_verify)
    gridded(sp_verify)
    common(add("sl2", help="algebraic (m, b) labels realizing the well"))
    sp_bif = add("bifurcation", help="sweep C and track both branches")
    common(sp_bif)
    gridded(sp_bif)
    sp_bif.add_argument("--C-min", dest="c_min", type=float, default=None)
    sp_bif.add_argument("--C-max", dest="c_max", type=float, default=None)
    sp_bif.add_argument("--steps", type=int, default=None)
    sp_bif.add_argument(
        "--verify-at",
        dest="verify_at",
        type=float,
        action="append",
        default=None,
        metavar="C",
        help="also run the numeric verifier at this C (repeatable)",
    )
    common(add("exchange", help="parameter-exchange image and invariance check"))
    return parser


# SusyParams requires every well parameter; the CLI defaults these two.
_WELL_DEFAULTS = {"C": 0.0, "alpha": 1.0}


def _fields(cls) -> dict[str, tuple[object, object]]:
    """Field name -> (resolved annotation, default or dataclasses.MISSING)."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default) for f in dataclasses.fields(cls)}


_WELL_FIELDS = {
    key: (hint, _WELL_DEFAULTS.get(key, default))
    for key, (hint, default) in _fields(SusyParams).items()
}
_CONFIG_FIELDS = {
    **_WELL_FIELDS,
    **{key: field for key, field in _fields(RunConfig).items() if key != "params"},
}


def _coerce(key: str, value, hint):
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise UsageError(f"config field {key!r} must be a list of numbers, got {value!r}")
        out = []
        for item in value:
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                raise UsageError(f"config field {key!r} must contain only numbers")
            out.append(float(item))
        return tuple(out)
    # an optional field takes the type it has when set
    want = next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
    if want is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise UsageError(f"config field {key!r} must be a number, got {value!r}")
        return float(value)
    if want is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise UsageError(f"config field {key!r} must be an integer, got {value!r}")
        return value
    if want is bool:
        if not isinstance(value, bool):
            raise UsageError(f"config field {key!r} must be true/false, got {value!r}")
        return value
    # str, or BranchSign, which flags and config name by its value
    if not isinstance(value, str):
        raise UsageError(f"config field {key!r} must be a string, got {value!r}")
    return value


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError(f"config {path!r} must hold a JSON object")
    flat: dict = {}
    params = raw.pop("params", None)
    if params is not None:
        if not isinstance(params, dict):
            raise UsageError("config field 'params' must be an object")
        for key, value in params.items():
            if key not in _WELL_FIELDS:
                raise UsageError(f"unknown config field params.{key}")
            flat[key] = value
    for key, value in raw.items():
        if key not in _CONFIG_FIELDS:
            raise UsageError(f"unknown config field {key!r}")
        flat[key] = value
    return {key: _coerce(key, value, _CONFIG_FIELDS[key][0]) for key, value in flat.items()}


def _number(name: str, value, positive: bool = False) -> None:
    # json.load and float() both accept inf and nan, which no field means
    if value is None:
        return
    if positive and not value > 0:
        raise UsageError(f"--{name} must be positive, got {value}")
    if not math.isfinite(value):
        raise UsageError(f"--{name} must be finite, got {value}")


def assemble_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, flags, and (highest precedence) the config file."""
    given = {
        key: getattr(args, key)
        for key in _CONFIG_FIELDS
        if getattr(args, key, None) is not None
    }
    if getattr(args, "no_auto_domain", False):
        given["auto_domain"] = False
    command = args.command
    if args.config:
        overrides = _load_config(args.config)
        cfg_command = overrides.pop("command", None)
        if cfg_command is not None and cfg_command != command:
            raise UsageError(
                f"config command {cfg_command!r} conflicts with invoked command {command!r}"
            )
        given.update(overrides)

    if "format" not in given and given.get("out", "").lower().endswith(".csv"):
        given["format"] = "csv"
    merged = {
        key: default
        for key, (_, default) in _CONFIG_FIELDS.items()
        if default is not dataclasses.MISSING
    }
    merged.update(given)
    if merged.keys() != _CONFIG_FIELDS.keys():
        raise UsageError("--A and --B are required (flags or config)")
    _number("alpha", merged["alpha"], positive=True)
    _number("L", merged["L"], positive=True)
    _number("tol-match", merged["tol_match"], positive=True)
    if merged["tol_match"] > MAX_TOL_MATCH:
        raise UsageError(f"--tol-match must be at most {MAX_TOL_MATCH}, got {merged['tol_match']}")
    _number("C-min", merged["c_min"])
    _number("C-max", merged["c_max"])
    for c_value in merged["verify_at"]:
        _number("verify-at", c_value)
    if merged["N"] is not None and merged["N"] < 3:
        raise UsageError(f"--N must be at least 3, got {merged['N']}")
    if merged["steps"] < 1:
        raise UsageError(f"--steps must be at least 1, got {merged['steps']}")
    if merged["format"] not in ("json", "csv"):
        raise UsageError(f"--format must be json or csv, got {merged['format']!r}")
    if merged["format"] == "csv" and command not in _CSV_COMMANDS:
        raise UsageError(f"--format csv is only available for {', '.join(_CSV_COMMANDS)}")
    try:
        if isinstance(merged["branch"], str):
            merged["branch"] = BranchSign.from_string(merged["branch"])
        merged["params"] = SusyParams(**{key: merged.pop(key) for key in _WELL_FIELDS})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if command == "bifurcation" and merged["c_max"] < merged["c_min"]:
        raise UsageError(f"--C-max {merged['c_max']} is below --C-min {merged['c_min']}")
    merged["verify_at"] = tuple(merged["verify_at"])
    return RunConfig(**merged)


def _c(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _params_dict(p: SusyParams) -> dict:
    return {"A": p.A, "B": p.B, "C": p.C, "alpha": p.alpha}


def _head(cfg: RunConfig) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": cfg.command,
        "params": _params_dict(cfg.params),
        "branch": cfg.branch.value,
    }


def _cmd_analyze(cfg: RunConfig):
    p = cfg.params
    report = pt_constraint_check(p)
    v = pcs_partner_coefficients(p, cfg.branch)
    w, wx = dual_superpotentials(p, cfg.branch)
    data = _head(cfg)
    data["pt"] = {
        "pt_symmetric": report.pt_symmetric,
        "constraint_residual": report.constraint_residual,
        "degenerate_branch": report.degenerate_branch,
    }
    data["coefficients"] = {"t2": _c(v.t2), "st": _c(v.st), "e0": _c(v.e0)}
    data["superpotentials"] = [
        {
            "lam": _c(sw.lam),
            "mu": _c(sw.mu),
            "factorization_energy": _c(sw.factorization_energy),
        }
        for sw in (w, wx)
    ]
    data["exchange_image"] = _params_dict(exchange_map(p))
    if p.C == 0.0:
        phys = susy_to_physical(p)
        data["physical"] = {"V1": phys.V1, "V2": phys.V2, "alpha": phys.alpha}
    return data, None, 0


def _cmd_spectrum(cfg: RunConfig):
    s1, s2 = two_series_spectrum(cfg.params, cfg.branch)
    data = _head(cfg)
    data["series"] = [
        {
            "label": s.label,
            "factorization_energy": _c(s.factorization_energy),
            "energies": [_c(e) for e in s.energies],
        }
        for s in (s1, s2)
    ]
    rows = [
        (cfg.params.C, cfg.branch.value, s.label, n, e.real, e.imag, "")
        for s in (s1, s2)
        for n, e in enumerate(s.energies)
    ]
    return data, rows, 0


def _verify_payload(report) -> dict:
    return {
        "passed": report.passed,
        "summary": "%d matched, max |dE| = %.3e"
        % (len(report.matches), report.max_abs_err),
        "grid": {
            "L": report.grid.L,
            "N": report.grid.N,
            "base_L": report.base_grid.L,
            "base_N": report.base_grid.N,
        },
        "re_limit": report.re_limit,
        "tol_match": report.tol_match,
        "max_abs_err": report.max_abs_err,
        "matches": [
            {
                "series": m.analytic.series,
                "n": m.analytic.n,
                "analytic": _c(m.analytic.energy),
                "numeric": _c(m.numeric),
                "abs_err": m.abs_err,
                "residual": m.residual,
                "boundary_leak": m.boundary_leak,
            }
            for m in report.matches
        ],
        "unmatched_analytic": [
            {"series": lv.series, "n": lv.n, "energy": _c(lv.energy)}
            for lv in report.unmatched_analytic
        ],
        "unmatched_numeric": [
            {"energy": _c(r.energy), "residual": r.residual, "boundary_leak": r.boundary_leak}
            for r in report.unmatched_numeric
        ],
    }


def _verify_rows(report, c_value: float, branch: BranchSign) -> list:
    rows = [
        (c_value, branch.value, m.analytic.series, m.analytic.n,
         m.numeric.real, m.numeric.imag, m.residual)
        for m in report.matches
    ]
    rows += [
        (c_value, branch.value, lv.series, lv.n, lv.energy.real, lv.energy.imag, "")
        for lv in report.unmatched_analytic
    ]
    rows += [
        (c_value, branch.value, "unmatched", -1, r.energy.real, r.energy.imag, r.residual)
        for r in report.unmatched_numeric
    ]
    return rows


def _verify(cfg: RunConfig, p: SusyParams, branch: BranchSign):
    # --L and --N are positive when set, so `or` falls back only on None
    base = default_grid(p.alpha)
    grid = Grid(L=cfg.L or base.L, N=cfg.N or base.N)
    return verify_spectrum(p, grid, cfg.tol_match, branch=branch, auto_domain=cfg.auto_domain)


def _cmd_verify(cfg: RunConfig):
    report = _verify(cfg, cfg.params, cfg.branch)
    data = _head(cfg)
    data.update(_verify_payload(report))
    rows = _verify_rows(report, cfg.params.C, cfg.branch)
    return data, rows, 0 if report.passed else 1


def _cmd_sl2(cfg: RunConfig):
    p, branch = cfg.params, cfg.branch
    data = _head(cfg)
    solutions = []
    for m, b in solve_correspondence(p, branch):
        res = correspondence_residuals(Sl2Params(m=m, b=b, alpha=p.alpha), p, branch)
        re_m2, half_im_m2 = m_square_identities(b, p, branch)
        m2 = m * m
        solutions.append(
            {
                "m": _c(m),
                "b": _c(b),
                "residuals": [float(r) for r in res],
                "max_residual": float(np.abs(res).max()),
                "identity_errs": [
                    abs(m2.real - re_m2),
                    abs(0.5 * m2.imag - half_im_m2),
                ],
            }
        )
    data["solutions"] = solutions
    return data, None, 0


def _conjugacy_error(plus, minus):
    if len(plus) != len(minus):
        return None
    eps = sorted(plus, key=energy_sort_key)
    ems = sorted((e.conjugate() for e in minus), key=energy_sort_key)
    return max((abs(a - b) for a, b in zip(eps, ems)), default=0.0)


def _cmd_bifurcation(cfg: RunConfig):
    p0 = cfg.params
    c_grid = [float(c) for c in np.linspace(cfg.c_min, cfg.c_max, cfg.steps)]
    points = bifurcation_scan(p0, c_grid)
    data = _head(cfg)
    data["c_grid"] = c_grid
    data["points"] = [
        {
            "C": pt.C,
            "energies_plus": [_c(e) for e in pt.energies_plus],
            "energies_minus": [_c(e) for e in pt.energies_minus],
            "conjugacy_err": _conjugacy_error(pt.energies_plus, pt.energies_minus),
        }
        for pt in points
    ]

    rows = [
        (pt.C, branch.value, s.label, n, e.real, e.imag, "")
        for pt in points
        for branch, towers in ((BranchSign.PLUS, pt.plus), (BranchSign.MINUS, pt.minus))
        for s in towers
        for n, e in enumerate(s.energies)
    ]

    exit_code = 0
    if cfg.verify_at:
        checks = []
        for c_value in cfg.verify_at:
            pc = dataclasses.replace(p0, C=c_value)
            branch_reports = {}
            for branch in (BranchSign.PLUS, BranchSign.MINUS):
                rep = _verify(cfg, pc, branch)
                branch_reports[branch] = rep
                rows += _verify_rows(rep, c_value, branch)
                if not rep.passed:
                    exit_code = 1
            numeric_conj = _conjugacy_error(
                [m.numeric for m in branch_reports[BranchSign.PLUS].matches],
                [m.numeric for m in branch_reports[BranchSign.MINUS].matches],
            )
            checks.append(
                {
                    "C": c_value,
                    "plus": _verify_payload(branch_reports[BranchSign.PLUS]),
                    "minus": _verify_payload(branch_reports[BranchSign.MINUS]),
                    "numeric_conjugacy_err": numeric_conj,
                }
            )
        data["verifications"] = checks
    return data, rows, exit_code


def _cmd_exchange(cfg: RunConfig):
    p = cfg.params
    image = exchange_map(p)
    back = exchange_map(image)
    w, wx = dual_superpotentials(p, cfg.branch)
    v1 = partner_potentials(w)[0]
    v2 = partner_potentials(wx)[0]
    data = _head(cfg)
    data["image"] = _params_dict(image)
    data["roundtrip"] = _params_dict(back)
    data["involution_exact"] = back == p
    data["coefficients"] = {
        "original": {"t2": _c(v1.t2), "st": _c(v1.st), "e0": _c(v1.e0)},
        "exchanged": {"t2": _c(v2.t2), "st": _c(v2.st), "e0": _c(v2.e0)},
    }
    data["profile_invariance_err"] = max(abs(v1.t2 - v2.t2), abs(v1.st - v2.st))
    return data, None, 0


_HANDLERS = {
    "analyze": _cmd_analyze,
    "spectrum": _cmd_spectrum,
    "verify": _cmd_verify,
    "sl2": _cmd_sl2,
    "bifurcation": _cmd_bifurcation,
    "exchange": _cmd_exchange,
}


def _render_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def run(argv=None) -> int:
    """Parse argv, dispatch, write the report; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = assemble_config(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        data, rows, exit_code = _HANDLERS[cfg.command](cfg)
    except (PcsSpectraError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if cfg.format == "csv":
        text = _render_csv(rows)
    else:
        text = json.dumps(data, indent=2) + "\n"
    _emit(text, cfg.out)
    return exit_code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
