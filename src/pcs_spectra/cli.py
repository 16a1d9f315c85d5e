"""Command-line front end.

Six subcommands expose the library: analyze (algebra of one well),
spectrum (analytic towers), verify (towers vs numerics), sl2
(algebraic labels), bifurcation (C sweep), exchange (parameter swap).
Reports are JSON by default; spectrum, verify and bifurcation can emit
CSV, and build their rows only when CSV is asked for. All output is
deterministic: fixed field order, shortest round-trip floats, LF line
endings. JSON is written by _to_json, byte for byte json.dumps(indent=2)
at a fraction of its cost: json takes its pure-Python generator encoder
whenever it indents. Payloads carry complex numbers as they are, and the
writer spells each one as the object {"re": ..., "im": ...}.

Exit codes: 0 success (and verification PASS), 1 verification FAIL,
2 usage or config error, or a report that cannot be written to --out,
3 numeric failure, including finite inputs whose derived values
overflow or underflow and towers over the level budget (the underlying
error message is printed to stderr verbatim).
"""

from __future__ import annotations

import argparse
import cmath
import csv
import dataclasses
import functools
import io
import json
import math
import sys
import typing
from json.encoder import encode_basestring_ascii

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
from .spectra import _branch_energies, _sweep, two_series_spectrum

__all__ = ["RunConfig", "SCHEMA_VERSION", "build_parser", "run", "main"]

SCHEMA_VERSION = "1.0"


def __getattr__(name: str):
    # verify and sl2 import numerics and sl2 when they run, so the
    # closed-form commands load neither; cli.verify_spectrum stays
    # readable (PEP 562) for code that reads it here, such as perfbench's
    # self-test, and each read gives numerics' current binding
    if name == "verify_spectrum":
        from .numerics import verify_spectrum

        return verify_spectrum
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

_CSV_COMMANDS = ("spectrum", "verify", "bifurcation")
_CSV_HEADER = ("C", "branch", "series", "n", "re_E", "im_E", "residual")
# largest bifurcation C grid, which is built whole before the sweep:
# 10,000 steps of (2, 3) take about 0.35 s in-process and print 11 MB
# of JSON on a 2-vCPU VM, and both grow linearly with the step count
MAX_STEPS = 10_000
# most --verify-at values; each distinct well, the plus branch at C or
# -C, is verified once, and C = 1 for (2, 3) takes about 0.04 s for
# both of its wells on a 2-vCPU VM with one BLAS thread
MAX_VERIFY_AT = 100


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
    # no abbreviations: a removed or mistyped flag must fail rather than
    # silently become a longer one (--verify would be read as --verify-at)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves a parser as it found it, so one serves every
    # run() in a process; build_parser is looked up when first called,
    # so a wrapper set on the module attribute sees that call
    return build_parser()


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
    _number("L", merged["L"], positive=True)
    _number("C-min", merged["c_min"])
    _number("C-max", merged["c_max"])
    count = len(merged["verify_at"])
    if count > MAX_VERIFY_AT:
        raise UsageError(f"--verify-at takes at most {MAX_VERIFY_AT} values, got {count}")
    for c_value in merged["verify_at"]:
        _number("verify-at", c_value)
    if merged["steps"] < 1:
        raise UsageError(f"--steps must be at least 1, got {merged['steps']}")
    if merged["steps"] > MAX_STEPS:
        raise UsageError(f"--steps must be at most {MAX_STEPS}, got {merged['steps']}")
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
    if command == "bifurcation" and not math.isfinite(merged["c_max"] - merged["c_min"]):
        # the C grid's step would be inf and its points inf and NaN
        raise UsageError(
            f"--C-max {merged['c_max']} minus --C-min {merged['c_min']} is not a finite float"
        )
    merged["verify_at"] = tuple(merged["verify_at"])
    return RunConfig(**merged)


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
    data["coefficients"] = {"t2": v.t2, "st": v.st, "e0": v.e0}
    data["superpotentials"] = [
        {
            "lam": sw.lam,
            "mu": sw.mu,
            "factorization_energy": sw.factorization_energy,
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
            "factorization_energy": s.factorization_energy,
            "energies": s.energies,
        }
        for s in (s1, s2)
    ]

    def rows():
        return [
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
                "analytic": m.analytic.energy,
                "numeric": m.numeric,
                "abs_err": m.abs_err,
                "residual": m.residual,
                "boundary_leak": m.boundary_leak,
            }
            for m in report.matches
        ],
        "unmatched_analytic": [
            {"series": lv.series, "n": lv.n, "energy": lv.energy}
            for lv in report.unmatched_analytic
        ],
        "unmatched_numeric": [
            {"energy": r.energy, "residual": r.residual, "boundary_leak": r.boundary_leak}
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
    from .numerics import verify_spectrum

    return verify_spectrum(p, L=cfg.L, branch=branch, auto_domain=cfg.auto_domain)


def _cmd_verify(cfg: RunConfig):
    report = _verify(cfg, cfg.params, cfg.branch)
    data = _head(cfg)
    data.update(_verify_payload(report))
    rows = functools.partial(_verify_rows, report, cfg.params.C, cfg.branch)
    return data, rows, 0 if report.passed else 1


def _cmd_sl2(cfg: RunConfig):
    from .sl2 import Sl2Params, _correspondence_residuals, m_square_identities, solve_correspondence

    p, branch = cfg.params, cfg.branch
    data = _head(cfg)
    solutions = []
    for m, b in solve_correspondence(p, branch):
        res = list(_correspondence_residuals(Sl2Params(m=m, b=b, alpha=p.alpha), p, branch))
        re_m2, half_im_m2 = m_square_identities(b, p, branch)
        m2 = m * m
        solutions.append(
            {
                "m": m,
                "b": b,
                "residuals": res,
                "max_residual": max(map(abs, res)),
                "identity_errs": [
                    abs(m2.real - re_m2),
                    abs(0.5 * m2.imag - half_im_m2),
                ],
            }
        )
    data["solutions"] = solutions
    return data, None, 0


def _conjugacy_error(plus: dict, minus: dict):
    # energies keyed by (series, n): the minus level is the conjugate of
    # the plus level with the same label; None when the labels differ
    if plus.keys() != minus.keys():
        return None
    return max([abs(e - minus[k].conjugate()) for k, e in plus.items()], default=0.0)


def _matched_levels(report) -> dict:
    return {(m.analytic.series, m.analytic.n): m.numeric for m in report.matches}


def _c_grid(lo: float, hi: float, steps: int) -> list[float]:
    # np.linspace(lo, hi, steps) to the bit, in plain floats: i*step + lo
    # with the last point set to hi, and (i/div)*span + lo when the step
    # underflows to zero, as numpy does for a subnormal span
    span = hi - lo
    div = steps - 1
    if div == 0:
        # not [lo]: numpy adds lo to 0.0 * span, which turns -0.0 into 0.0
        return [0.0 * span + lo]
    step = span / div
    if step == 0.0:
        grid = [i / div * span + lo for i in range(div)]
    else:
        grid = [i * step + lo for i in range(div)]
    grid.append(hi)
    return grid


def _cmd_bifurcation(cfg: RunConfig):
    p0 = cfg.params
    c_grid = _c_grid(cfg.c_min, cfg.c_max, cfg.steps)
    sweep = list(_sweep(p0, c_grid))
    points = []
    for c, plus, minus in sweep:
        (_, plus1, _), (_, plus2, _) = plus
        (_, minus1, _), (_, minus2, _) = minus
        energies_plus = _branch_energies(plus1, plus2)
        # at C = 0 both branches hold the plus towers
        energies_minus = energies_plus if minus is plus else _branch_energies(minus1, minus2)
        points.append(
            {
                "C": c,
                "energies_plus": energies_plus,
                "energies_minus": energies_minus,
                # the sweep takes each minus tower as the exact conjugate
                # of the plus tower of its label, so their distance is 0.0
                # by construction; the key stays for SCHEMA_VERSION 1.0
                "conjugacy_err": 0.0,
            }
        )
    data = _head(cfg)
    data["c_grid"] = c_grid
    data["points"] = points

    # one report per well: (C, minus) is the well (-C, plus) to the bit,
    # so the plus branch at each signed coupling serves both branches,
    # and repeated values, 0.0 and -0.0, and C and -C share their wells;
    # the plus wells at C and -C are PT images, which numerics censuses
    # once by its own rule, as it does in every command
    reports = {}
    for c_value in cfg.verify_at:
        for w in (c_value, -c_value):
            if w.hex() not in reports:
                reports[w.hex()] = _verify(cfg, dataclasses.replace(p0, C=w), BranchSign.PLUS)
    pairs = [(c, reports[c.hex()], reports[(-c).hex()]) for c in cfg.verify_at]
    if pairs:
        data["verifications"] = [
            {
                "C": c_value,
                "plus": _verify_payload(plus),
                "minus": _verify_payload(minus),
                "numeric_conjugacy_err": _conjugacy_error(
                    _matched_levels(plus), _matched_levels(minus)
                ),
            }
            for c_value, plus, minus in pairs
        ]
    exit_code = 0 if all(rep.passed for rep in reports.values()) else 1

    def rows():
        plus_name, minus_name = BranchSign.PLUS.value, BranchSign.MINUS.value
        out = [
            (c, branch, label, n, e.real, e.imag, "")
            for c, plus, minus in sweep
            for branch, towers in ((plus_name, plus), (minus_name, minus))
            for label, energies, _ in towers
            for n, e in enumerate(energies)
        ]
        for c_value, plus, minus in pairs:
            out += _verify_rows(plus, c_value, BranchSign.PLUS)
            out += _verify_rows(minus, c_value, BranchSign.MINUS)
        return out

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
        "original": {"t2": v1.t2, "st": v1.st, "e0": v1.e0},
        "exchanged": {"t2": v2.t2, "st": v2.st, "e0": v2.e0},
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


@functools.cache
def _layout(indent: str) -> tuple[str, str, str, str, str]:
    """The inner indent and the item separator of a value at indent, and
    the text before, between and after the parts of a complex written
    there as {"re": ..., "im": ...}."""
    inner = indent + "  "
    head, mid, tail = "{\n" + inner + '"re": ', ",\n" + inner + '"im": ', "\n" + indent + "}"
    return inner, ",\n" + inner, head, mid, tail


def _to_json(obj, indent: str = "") -> str:
    """json.dumps(obj, indent=2) for the values a report holds: dicts
    with str keys, lists, tuples, str, int, float, bool and None, with
    each complex z written as the dict {"re": z.real, "im": z.imag}."""
    cls = type(obj)
    # an exact dict, list or tuple, most of a report, skips the chain of
    # leaf types below; a subclass takes it
    if cls is dict or cls is list or cls is tuple:
        return _container_json(obj, indent)
    # floats, the commonest leaf, are tested first
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float.__repr__(obj)
        # the spellings json gives the values JSON has no number for
        if obj != obj:
            return "NaN"
        return "Infinity" if obj > 0.0 else "-Infinity"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, complex):
        _, _, head, mid, tail = _layout(indent)
        return head + _to_json(obj.real) + mid + _to_json(obj.imag) + tail
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    return _container_json(obj, indent)


def _container_json(obj, indent: str) -> str:
    # _to_json of a dict, list or tuple, subclasses included
    inner, sep = _layout(indent)[:2]
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{encode_basestring_ascii(k)}: {_to_json(v, inner)}" for k, v in obj.items()]
        return "{\n" + inner + sep.join(items) + "\n" + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        # a finite complex is formatted in place: the repr of a float
        # part is its shortest round-trip form, as json writes it; a
        # non-finite part, or a subclass's part (numpy's), takes the
        # float path
        _, _, head, mid, tail = _layout(inner)
        items = [
            f"{head}{v.real!r}{mid}{v.imag!r}{tail}"
            if type(v) is complex and cmath.isfinite(v)
            else _to_json(v, inner)
            for v in obj
        ]
        return "[\n" + inner + sep.join(items) + "\n" + indent + "]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _render_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write report to {out!r}: {exc}") from exc


def run(argv=None) -> int:
    """Parse argv, dispatch, write the report; returns the exit code."""
    try:
        args = _parser().parse_args(argv)
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
        text = _render_csv(rows())
    else:
        text = _to_json(data) + "\n"
    try:
        _emit(text, cfg.out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return exit_code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
