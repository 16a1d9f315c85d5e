"""pcs-spectra benchmark: one workload, one fresh process.

    python3 perfbench/run.py --workload verify-wells --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its
src/ directory and nowhere else. BLAS runs on one thread (THREAD_PIN,
set before numpy loads) and PCS_SPECTRA_THREADS is unset, so the
library's shift-scan pool runs as users get it.

The run measures set-up (fresh interpreters that import the CLI, build
its parser and answer one analyze call), then repeats the workload's
pass until --seconds is spent (at least one pass). Every output is
checked against a known answer; a failed check is listed on stderr and
counted, never raised.

Times are reported in reference seconds: each case's wall and CPU time
is scaled by the machine speed measured just before and just after it
with fixed calibration work (calibrate.py, the kind the workload names
in workloads.CALIBRATION). The raw seconds are kept in the information
line. Set-up time is reported as measured: a fresh interpreter's import
does not follow the calibration.

With --trace 0 the last line of stdout reports the end-to-end metrics,
with --trace 1 the per-layer ones: the first pass runs untraced as the
reference for trace.overhead_s and the rest run under the tracer. The
line before it is a JSON object with the machine, the inputs and the
per-case results; baseline.py collects both into a results file.
"""

from __future__ import annotations

import os

# Before anything imports numpy: BLAS on one thread, and no
# PCS_SPECTRA_THREADS, so the library's pool takes its default of one
# worker per CPU. A caller's values are recorded, not used. With BLAS
# at its default of one thread per CPU as well, a verify-wells pass on
# a 2-vCPU machine took 37-41 s of wall and 63-81 s of CPU time, its
# threads spinning against each other, and three runs spread by 25 %.
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
UNSET = ("PCS_SPECTRA_THREADS",)
_CALLER_THREADS = {k: os.environ.get(k) for k in (*THREAD_PIN, *UNSET)}
os.environ.update(THREAD_PIN)
for _name in UNSET:
    os.environ.pop(_name, None)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import calibrate  # noqa: E402
import machine  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 5
# a calibration sample follows the first case to end this long after
# the previous sample
CALIBRATE_EVERY_S = 0.5
# failures beyond this many are still counted and printed to stderr
MAX_LISTED = 100
MAX_LISTED_CASES = 20
VERDICTS = ("verdict_s.unbroken", "verdict_s.broken", "verdict_s.deep", "verdict_s.exceptional")
SETUP_TIMEOUT_S = 60
SETUP_CODE = """\
import sys
from pcs_spectra import cli
cli.build_parser()
sys.exit(cli.run(["analyze", "--A", "2", "--B", "3"]))
"""


class BenchError(Exception):
    """The benchmark cannot run here (for example, no library source)."""


def load_library():
    """Import pcs_spectra from this checkout's src/ and nowhere else."""
    if not (SRC / "pcs_spectra" / "__init__.py").is_file():
        raise BenchError(f"no library source at {SRC / 'pcs_spectra'}")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("pcs_spectra")
    if Path(pkg.__file__).resolve().parent != (SRC / "pcs_spectra").resolve():
        raise BenchError(f"pcs_spectra imported from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(
        package=pkg,
        **{
            name: importlib.import_module(f"pcs_spectra.{name}")
            for name in ("cli", "core", "numerics", "sl2", "spectra")
        },
    )


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(reps: int):
    """Wall times of fresh interpreters doing the set-up call, and problems."""
    times, problems = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CODE],
                cwd=ROOT,
                env=child_env(),
                capture_output=True,
                text=True,
                timeout=SETUP_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            problems.append(f"set-up took over {SETUP_TIMEOUT_S} s")
            continue
        finally:
            times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            problems.append(f"set-up exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
            continue
        try:
            report = json.loads(proc.stdout)
        except json.JSONDecodeError:
            report = {}
        if report.get("command") != "analyze":
            problems.append("set-up analyze call printed no analyze report")
    return times, problems


def run_case(case):
    """Time one call; its output is checked after the clock stops."""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        value = case.call()
        error = None
    except Exception:
        value, error = None, traceback.format_exc(limit=3).strip().splitlines()[-1]
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if error is None:
        try:
            problems = case.check(value)
        except Exception:
            problems = ["check raised " + traceback.format_exc(limit=3).strip().splitlines()[-1]]
    else:
        problems = [f"call raised {error}"]
    return value, wall, cpu, problems


def run_pass(cases, cal: calibrate.Calibration):
    """One pass; each row's scale comes from the calibration samples
    taken before and after the stretch of cases it ran in."""
    rows, pending = [], []
    out_bytes = 0
    before, since = cal.sample(), time.perf_counter()
    for i, case in enumerate(cases):
        value, wall, cpu, problems = run_case(case)
        if isinstance(value, workloads.CliResult):
            out_bytes += len(value.out.encode())
        rows.append({"case": case.name, "tag": case.tag, "wall": wall, "cpu": cpu,
                     "problems": problems})
        pending.append(rows[-1])
        if time.perf_counter() - since >= CALIBRATE_EVERY_S or i == len(cases) - 1:
            after = cal.sample()
            for row in pending:
                row["scale"] = cal.scale(before, after)
            pending, before, since = [], after, time.perf_counter()
    return {
        "wall": sum(r["wall"] * r["scale"] for r in rows),
        "cpu": sum(r["cpu"] * r["scale"] for r in rows),
        "raw_wall": sum(r["wall"] for r in rows),
        "rows": rows,
        "output_bytes": out_bytes,
    }


def run_passes(cases, budget_s: float, cal, tracer=None):
    """Repeat the pass while the next one is predicted to fit the budget.

    With a tracer the first pass runs untraced, as the reference for the
    tracing overhead, and every later pass runs traced; at least one of
    each.
    """
    passes = []
    minimum = 1 if tracer is None else 2
    t_start = time.perf_counter()
    while True:
        if tracer is not None and passes:
            with tracer:
                passes.append(run_pass(cases, cal))
        else:
            passes.append(run_pass(cases, cal))
        elapsed = time.perf_counter() - t_start
        if len(passes) >= minimum and elapsed * (len(passes) + 1) / len(passes) > budget_s:
            return passes


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(passes, setup_times, rss_mb):
    calls = [r["wall"] * r["scale"] * 1e3 for p in passes for r in p["rows"]]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(p["wall"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["cpu"] for p in passes), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "call_p50_ms": (percentile(calls, 0.50), "ms"),
        "call_p99_ms": (percentile(calls, 0.99), "ms"),
    }
    for tag in VERDICTS:
        times = [r["wall"] * r["scale"] for p in passes for r in p["rows"] if r["tag"] == tag]
        metrics[tag] = (statistics.median(times), "s")
    return metrics


def case_breakdown(tree: tracing.SpanTree) -> list[dict]:
    """Work under each verify_spectrum and blind bound_spectrum call."""
    out = []
    for span in tree.spans:
        top = span.name == "numerics.verify_spectrum" or (
            span.name == "numerics.bound_spectrum"
            and tree.by_id.get(span.parent) is None
        )
        if top:
            entry = {"span": span.name, "seconds": span.end - span.start}
            entry.update(tracing.subtree_counts(tree, span))
            out.append(entry)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        lib = load_library()
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    cases = workloads.WORKLOADS[args.workload](lib, args.seed)
    timed = [c for c in cases if c.timed]
    checked_only = [c for c in cases if not c.timed]
    cal = calibrate.Calibration(workloads.CALIBRATION[args.workload])
    setup_times: list[float] = []
    setup_problems: list[str] = []
    if not args.trace:
        setup_times, setup_problems = measure_setup(SETUP_REPS)
    tracer = tracing.Tracer() if args.trace else None
    passes = run_passes(timed, args.seconds, cal, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None and checked_only:
        with tracer:
            extra = run_pass(checked_only, cal)
    else:
        extra = run_pass(checked_only, cal)

    rows = [r for p in passes for r in p["rows"]] + extra["rows"]
    problems = [f"set-up: {p}" for p in setup_problems]
    problems += [f"{r['case']}: {q}" for r in rows for q in r["problems"]]
    attempted = len(setup_times) + len(rows)
    failed = len(setup_problems) + sum(1 for r in rows if r["problems"])

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine.describe(ROOT, THREAD_PIN, UNSET, _CALLER_THREADS),
        "passes": len(passes),
        "calls_per_pass": len(timed),
        "calibration": {"kind": cal.kind, "reference_s": cal.reference,
                        "samples_s": cal.samples},
        "pass_wall_s": [p["wall"] for p in passes],
        "pass_raw_wall_s": [p["raw_wall"] for p in passes],
        "setup_s_samples": setup_times,
        "checked_only_wall_s": {r["case"]: r["wall"] for r in extra["rows"]},
        "failures": problems[:MAX_LISTED],
    }
    if len(timed) <= MAX_LISTED_CASES:
        info["case_wall_s"] = {
            case.name: [p["rows"][i]["wall"] * p["rows"][i]["scale"] for p in passes]
            for i, case in enumerate(timed)
        }
    if args.trace:
        traced = passes[1:]
        tree = tracing.SpanTree(tracer.spans, tracer.counts)
        out_bytes = sum(p["output_bytes"] for p in traced) + extra["output_bytes"]
        layer = tracing.layer_metrics(tree, len(traced), out_bytes)
        layer["trace.overhead_s"] = (
            statistics.median(p["wall"] for p in traced) - passes[0]["wall"],
            "s",
        )
        metrics = layer
        info["traced_passes"] = len(traced)
        info["cases_traced"] = case_breakdown(tree)
    else:
        metrics = end_to_end(passes, setup_times, rss_mb)
        metrics["ok_frac"] = ((attempted - failed) / attempted, "fraction")
        info["call_samples"] = sum(len(p["rows"]) for p in passes)

    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
