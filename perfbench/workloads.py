"""The benchmark's three workloads, generated from a seed.

A workload is one pass: a list of cases, each a call through the
public API plus the check of its output against a known answer from
oracle.py. The run loop in run.py repeats the pass; the same seed
always gives the same cases.

* verify-wells: the CLI's verify and bifurcation --verify-at on fixed
  wells that span the unbroken, broken, exceptional-point and deep-box
  regimes, a negative control that must fail loudly, and seeded wells.
  Nearly all time goes to the numeric oracle (shift scan, Richardson
  refinement, matching).
* closed-form: analyze, spectrum, sl2, exchange and bifurcation without
  --verify-at over seeded draws from the acceptance box. The numeric
  oracle is never called; the time is in argparse, config, JSON and the
  closed-form layers.
* blind-scan: bound_spectrum with no seeds and no auto-domain on a small
  grid: thousands of coefficient-bound shifts, no refinement, no
  matching.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import oracle

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "closed_form.json"


@dataclass
class Case:
    """One timed call and the check of what it returned."""

    name: str
    call: object  # () -> object
    check: object  # (object) -> list[str]
    tag: str | None = None  # per-case end-to-end metric, if any
    # False: checked once per run but kept out of the timed passes
    timed: bool = True


class CliResult(NamedTuple):
    code: int
    out: str
    err: str


def cli_call(lib, argv):
    """A call of the CLI in-process that captures what it prints."""

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.run(list(argv))
        return CliResult(code, out.getvalue(), err.getvalue())

    return call


def _flags(A, B, C=0.0, alpha=1.0, branch="plus"):
    return [
        "--A", repr(A), "--B", repr(B), "--C", repr(C),
        "--alpha", repr(alpha), "--branch", branch,
    ]


def _json_check(want_code, checker):
    def check(value):
        code, out, err = value
        problems = oracle.check_exit(code, want_code)
        if problems:
            return problems + [err.strip()[-200:]] if err else problems
        return checker(json.loads(out))

    return check


# the calibrate.py kind each workload's times are scaled by: the numeric
# workloads spend their time in small LAPACK calls, closed-form in the
# interpreter
CALIBRATION = {"verify-wells": "numeric", "closed-form": "python", "blind-scan": "numeric"}


# --------------------------------------------------------------- verify-wells

VERIFY_FIXED = (
    # (A, B, verdict tag)
    (2.0, 3.0, "verdict_s.unbroken"),
    (2.5, 3.2, None),
    (2.25, 3.0, "verdict_s.deep"),
    (2.0, 2.5, "verdict_s.exceptional"),
)

# Seeded wells are drawn from the whole box A in [1.5, 3], B in [2, 3.5],
# |C| <= 1, alpha = 1, with a random branch. They are checked on every
# run but not timed: on the seed commit one such well costs anywhere
# from 1 s to 30 s, so timing them would make the pass time a property
# of the draw rather than of the program.
SEEDED_BOX = ((1.5, 3.0), (2.0, 3.5), (-1.0, 1.0))
SEEDED_WELLS = 1
KAPPA_FLOOR = 0.25


def draw_seeded_well(rng: random.Random):
    """One well from SEEDED_BOX, with a random branch.

    Wells with kappa_min < KAPPA_FLOOR are rejected: their auto-grown
    grid is unbounded as kappa_min -> 0, and that region belongs to
    property tests of a grid cap, not to a timing benchmark.
    """
    (a_lo, a_hi), (b_lo, b_hi), (c_lo, c_hi) = SEEDED_BOX
    while True:
        A = rng.uniform(a_lo, a_hi)
        B = rng.uniform(b_lo, b_hi)
        C = rng.uniform(c_lo, c_hi)
        branch = rng.choice(("plus", "minus"))
        kappa = oracle.kappa_min(A, B, 1.0)
        if kappa is not None and kappa >= KAPPA_FLOOR:
            return A, B, C, branch


def verify_wells(lib, seed: int) -> list[Case]:
    cases = []
    for A, B, tag in VERIFY_FIXED:
        cases.append(_verify_case(lib, A, B, 0.0, "plus", tag))
    cases.append(
        Case(
            name="verify --A 2 --B 3 --L 6 --no-auto-domain (must exit 3)",
            call=cli_call(lib, ["verify", *_flags(2.0, 3.0), "--L", "6", "--no-auto-domain"]),
            check=lambda value: oracle.check_exit(value.code, 3),
        )
    )
    argv = ["bifurcation", *_flags(2.0, 3.0), "--steps", "101", "--verify-at", "1"]
    cases.append(
        Case(
            name="bifurcation --A 2 --B 3 --steps 101 --verify-at 1",
            call=cli_call(lib, argv),
            check=_json_check(0, lambda d: oracle.check_verify_at(d, 2.0, 3.0, 1.0)),
            tag="verdict_s.broken",
        )
    )
    rng = random.Random(seed)
    for _ in range(SEEDED_WELLS):
        A, B, C, branch = draw_seeded_well(rng)
        cases.append(_verify_case(lib, A, B, C, branch, None, timed=False))
    return cases


def _verify_case(lib, A, B, C, branch, tag, timed=True):
    argv = ["verify", *_flags(A, B, C, 1.0, branch)]
    return Case(
        name=" ".join(argv),
        call=cli_call(lib, argv),
        check=_json_check(
            0, lambda d: oracle.check_verify_payload(d, A, B, C, 1.0, branch)
        ),
        tag=tag,
        timed=timed,
    )


# ---------------------------------------------------------------- closed-form

CLOSED_FORM_COMMANDS = ("analyze", "spectrum", "sl2", "exchange", "bifurcation")
# calls of each command per pass; equal counts keep the command mix,
# and so the cost of a pass, the same for every seed (see _cost_bins)
CALLS_PER_COMMAND = 100
BIFURCATION_STEPS = 101
# criterion 5's box
CLOSED_FORM_BOX = {"A": (0.5, 3.5), "B": (0.5, 3.5), "C": (-1.5, 1.5), "alpha": (0.5, 2.0)}
POOL_SEED = 20100718
POOL_SIZE = 512


def closed_form_pool() -> list[tuple[float, float, float, float, str]]:
    """Fixed draws from the box; their seed outputs are in GOLDEN."""
    rng = random.Random(POOL_SEED)
    pool = []
    for _ in range(POOL_SIZE):
        p = [rng.uniform(*CLOSED_FORM_BOX[k]) for k in ("A", "B", "C", "alpha")]
        pool.append((*p, rng.choice(("plus", "minus"))))
    return pool


def closed_form_argv(command, A, B, C, alpha, branch) -> list[str]:
    argv = [command, *_flags(A, B, C, alpha, branch)]
    if command == "bifurcation":
        argv += ["--steps", str(BIFURCATION_STEPS)]
    return argv


# The closed-form half of each verify-wells verdict: the towers that
# verify certifies, and the sweep that bifurcation --verify-at extends.
CLOSED_FORM_ANCHORS = (
    ("verdict_s.unbroken", "spectrum", (2.0, 3.0, 0.0, 1.0, "plus")),
    ("verdict_s.broken", "bifurcation", (2.0, 3.0, 0.0, 1.0, "plus")),
    ("verdict_s.deep", "spectrum", (2.25, 3.0, 0.0, 1.0, "plus")),
    ("verdict_s.exceptional", "spectrum", (2.0, 2.5, 0.0, 1.0, "plus")),
)
# each anchor runs this often per pass, so its median is steady
ANCHOR_REPS = 10


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def _cost_bins(pool) -> list[list[int]]:
    """Pool indices in CALLS_PER_COMMAND bins of similar level count.

    A report's size, and a bifurcation sweep's work, grow with the
    number of levels in the two towers. Drawing one entry per bin keeps
    the work of a pass the same for every seed.
    """
    def levels(k):
        A, B, C, alpha, branch = pool[k]
        return len(oracle.towers(A, B, C, alpha, branch))

    order = sorted(range(len(pool)), key=lambda k: (levels(k), k))
    n = CALLS_PER_COMMAND
    return [order[i * len(order) // n:(i + 1) * len(order) // n] for i in range(n)]


def closed_form(lib, seed: int) -> list[Case]:
    pool = closed_form_pool()
    golden = load_golden()
    rng = random.Random(seed)
    bins = _cost_bins(pool)
    picks = [
        (None, command, pool[k], golden["digests"][command][k], f"pool[{k}]")
        for command in CLOSED_FORM_COMMANDS
        for k in (rng.choice(b) for b in bins)
    ]
    for tag, command, params in CLOSED_FORM_ANCHORS:
        argv = closed_form_argv(command, *params)
        want = golden["anchors"][" ".join(argv)]
        picks += [(tag, command, params, want, "anchor")] * ANCHOR_REPS
    rng.shuffle(picks)
    return [
        _closed_form_case(lib, tag, command, params, want, golden["schemas"][command], label)
        for tag, command, params, want, label in picks
    ]


def _closed_form_case(lib, tag, command, params, want, schema, label):
    checker = oracle.CLOSED_FORM_CHECKS[command]

    def check_json(data):
        problems = checker(data, *params)
        if oracle.digest(data, schema) != want:
            problems.append("report differs from the seed commit's output")
        return problems

    argv = closed_form_argv(command, *params)
    return Case(
        name=f"{label} {' '.join(argv)}",
        call=cli_call(lib, argv),
        check=_json_check(0, check_json),
        tag=tag,
    )


# ----------------------------------------------------------------- blind-scan

BLIND_POINTS = 4000
# the sl(2) well is rebuilt from the labels of this well and must have
# the same spectrum
SL2_SOURCE = (2.0, 3.0, 0.0, 1.0)
BLIND_WELLS = (
    # (name, verdict tag, A, B, C, alpha, branch)
    ("(2, 3, 0) plus", "verdict_s.unbroken", 2.0, 3.0, 0.0, 1.0, "plus"),
    ("(2, 3, 1) plus", "verdict_s.broken", 2.0, 3.0, 1.0, 1.0, "plus"),
    ("(2, 3, 0.5) minus", None, 2.0, 3.0, 0.5, 1.0, "minus"),
    ("exceptional point (1.5, 2.5, 0, alpha 2)", "verdict_s.exceptional",
     1.5, 2.5, 0.0, 2.0, "plus"),
    ("sl2 rebuild of (2, 3, 0)", None, *SL2_SOURCE, "plus"),
    # the deep anchor of verify-wells: kappa_min = 0.25 makes the box
    # seven times wider than the default at the same N
    ("(2.25, 3, 0) plus", "verdict_s.deep", 2.25, 3.0, 0.0, 1.0, "plus"),
)
LEAK_HALF_WIDTH = 21.0


def blind_scan(lib, seed: int) -> list[Case]:
    """Blind bound_spectrum on each well, in a seeded order.

    The box half-width is 21/kappa_min (predicted edge amplitude about
    1e-9, under the leak gate) stretched by a seeded 0-5 %, and N is
    BLIND_POINTS plus a seeded 0-20.
    """
    rng = random.Random(seed)
    wells = list(BLIND_WELLS)
    rng.shuffle(wells)
    cases = []
    for name, tag, A, B, C, alpha, branch in wells:
        L = LEAK_HALF_WIDTH / oracle.kappa_min(A, B, alpha) * rng.uniform(1.0, 1.05)
        N = BLIND_POINTS + rng.randrange(21)
        grid = lib.numerics.Grid(L=L, N=N)
        if name.startswith("sl2"):
            v = _sl2_rebuild(lib)
        else:
            params = lib.core.SusyParams(A=A, B=B, C=C, alpha=alpha)
            v = lib.core.pcs_partner_coefficients(params, lib.core.BranchSign(branch))
        levels = oracle.merged_levels(A, B, C, alpha, branch)
        # |sech^2| <= 1 and |sech tanh| <= 1/2
        t2, st = oracle.profile(A, B, C, alpha, branch)
        v_max = abs(t2) + 0.5 * abs(st)

        def call(v=v, grid=grid):
            return lib.numerics.bound_spectrum(v, grid)

        def check(results, levels=levels, h=grid.h, v_max=v_max):
            return oracle.check_blind([r.energy for r in results], levels, h, v_max)

        cases.append(Case(name=f"{name} L={L:.3f} N={N}", call=call, check=check, tag=tag))
    return cases


def _sl2_rebuild(lib):
    p = lib.core.SusyParams(*SL2_SOURCE)
    m, b = lib.sl2.solve_correspondence(p)[0]
    return lib.sl2.build_sl2_potential(lib.sl2.Sl2Params(m=m, b=b, alpha=p.alpha))


WORKLOADS = {
    "verify-wells": verify_wells,
    "closed-form": closed_form,
    "blind-scan": blind_scan,
}
