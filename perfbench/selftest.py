"""Self-test of the benchmark's tracer and known-answer checks.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

Kept outside tests/ so the library's own suite never collects it. It
checks that the tracer's counts agree with counts derived without it,
that patching reaches every module and is undone, and that every
known-answer check rejects a deliberately perturbed answer.
"""

from __future__ import annotations

import copy
import json
import math
import os
import sys
import threading
from types import SimpleNamespace

import run  # pins BLAS threads before numpy loads
import calibrate
import oracle
import tracing
import workloads

LIB = run.load_library()

# a shallow well on a coarse grid: the whole scan takes well under a second
TINY = (1.8, 2.4, 0.3, 1.0, "plus")
TINY_GRID = (30.0, 400)


def _cli(argv):
    return workloads.cli_call(LIB, argv)()


def _cli_json(argv):
    code, out, err = _cli(argv)
    assert code == 0, err
    return json.loads(out)


def _tiny_inputs():
    A, B, C, alpha, branch = TINY
    p = LIB.core.SusyParams(A=A, B=B, C=C, alpha=alpha)
    v = LIB.core.pcs_partner_coefficients(p, LIB.core.BranchSign(branch))
    seeds = [e for e, _ in oracle.merged_levels(*TINY)]
    return v, LIB.numerics.Grid(L=TINY_GRID[0], N=TINY_GRID[1]), seeds


# ------------------------------------------------------------------- tracer


def test_counts_match_independent_derivation():
    # with the library's thread pool, and on the calling thread alone
    for threads in ("2", "1"):
        os.environ["PCS_SPECTRA_THREADS"] = threads
        try:
            _check_scan_counts()
        finally:
            del os.environ["PCS_SPECTRA_THREADS"]


def _check_scan_counts():
    v, grid, seeds = _tiny_inputs()
    numerics = LIB.numerics
    original = numerics.eigen_near
    shim_calls = []
    lock = threading.Lock()

    def shim(*args, **kwargs):
        with lock:
            shim_calls.append(1)
        return original(*args, **kwargs)

    numerics.eigen_near = shim
    try:
        tracer = tracing.Tracer()
        with tracer:
            out = numerics.bound_spectrum(v, grid, seeds=seeds)
    finally:
        numerics.eigen_near = original
    tree = tracing.SpanTree(tracer.spans, tracer.counts)
    [bound] = tree.named("numerics.bound_spectrum")
    solves = tree.named("numerics.eigen_near")

    # every solve, on whichever pool thread, hangs under the scan
    assert len(solves) == len(shim_calls) > len(out) > 0
    assert all(s.parent == bound.sid for s in solves)
    # the returned states are exactly the traced results, iterations and all
    returned = {id(r) for r in out}
    mine = [s.note[1] for s in solves if s.note[0] == "ok" and id(s.note[1]) in returned]
    assert len(mine) == len(out)
    assert sum(r.iterations for r in mine) == sum(r.iterations for r in out)
    # inverse iteration solves once per sweep and factors at least once per call
    failed = [s for s in solves if s.note[0] != "ok"]
    if not failed:
        assert tree.total_count("numerics.zgttrs") == sum(
            s.note[1].iterations for s in solves
        )
    assert tree.total_count("numerics.zgttrf") >= len(solves)
    assert tree.count_under("numerics.zgttrf", solves) == tree.total_count("numerics.zgttrf")

    metrics = tracing.layer_metrics(tree, passes=1, output_bytes=0)
    assert metrics["numerics.eigen_near.calls"][0] == len(shim_calls)
    assert metrics["numerics.bound_spectrum.useful_ratio"][0] == len(out) / len(solves)
    kept = (
        metrics["numerics.bound_spectrum.rejected_leak"][0]
        + metrics["numerics.bound_spectrum.rejected_re_limit"][0]
        + metrics["numerics.bound_spectrum.deduplicated"][0]
        + len(out)
    )
    assert kept == len(solves) - len(failed)


def test_cli_spans_and_self_time():
    tracer = tracing.Tracer()
    with tracer:
        _cli_json(["spectrum", "--A", "2", "--B", "3"])
    tree = tracing.SpanTree(tracer.spans, tracer.counts)
    [run_span] = tree.named("cli.run")
    kids = tree.children[run_span.sid]
    assert {k.name for k in kids} == {"cli.build_parser", "spectra.two_series_spectrum"}
    busy = run_span.end - run_span.start
    assert 0.0 < tree.self_time(run_span) < busy
    assert tree.total_count("core.dual_superpotentials") == 1


def _targets():
    names = [(m, n) for m, ns in tracing.SPAN_TARGETS.items() for n in ns]
    names += [(m, n) for m, ns in tracing.COUNT_TARGETS.items() for n in ns]
    return [(m, n, getattr(getattr(LIB, m), n)) for m, n in names]


def test_patching_reaches_every_module_and_is_undone():
    modules = [LIB.package, LIB.cli, LIB.core, LIB.numerics, LIB.sl2, LIB.spectra]
    before = {(mod.__name__, k): v for mod in modules for k, v in vars(mod).items()}
    targets = _targets()
    with tracing.Tracer():
        for _, name, original in targets:
            holders = [mod for mod in modules if before.get((mod.__name__, name)) is original]
            assert holders
            for mod in holders:
                assert getattr(mod, name).__wrapped__ is original, (mod.__name__, name)
        # names imported across modules are wrapped where they are used
        assert LIB.cli.verify_spectrum is LIB.numerics.verify_spectrum
        assert LIB.numerics.two_series_spectrum is LIB.spectra.two_series_spectrum
        assert LIB.sl2.pcs_partner_coefficients is LIB.core.pcs_partner_coefficients
    after = {(mod.__name__, k): v for mod in modules for k, v in vars(mod).items()}
    assert after == before


def test_layer_metrics_cover_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    tree = tracing.SpanTree([], {})
    names = set(tracing.layer_metrics(tree, 1, 0)) | {"trace.overhead_s"}
    assert names == {m["name"] for m in spec["per_layer"]}


def test_case_times_are_scaled_by_the_calibration_around_them():
    class FixedCalibration(calibrate.Calibration):
        def __init__(self, samples):
            super().__init__("python")
            self._next = iter(samples)

        def sample(self):
            self.samples.append(next(self._next))
            return self.samples[-1]

    cal = FixedCalibration([0.01, 0.03])
    cases = [workloads.Case(name=str(k), call=lambda: None, check=lambda v: []) for k in range(3)]
    done = run.run_pass(cases, cal)
    # three quick cases share the samples taken before and after them
    assert cal.samples == [0.01, 0.03]
    assert all(r["scale"] == cal.reference / 0.02 for r in done["rows"])
    assert math.isclose(done["wall"], done["raw_wall"] * cal.reference / 0.02)


# ------------------------------------------------------------ known answers


def _rejects(check, data, perturb):
    assert check(data) == [], check(data)
    bad = copy.deepcopy(data)
    perturb(bad)
    assert check(bad), "perturbed answer was accepted"


def _bump(z, by=1e-6):
    z["re"] += by


def test_closed_form_checks_reject_perturbed_answers():
    A, B, C, alpha, branch = 2.3, 3.1, 0.4, 0.9, "minus"
    argvs = {c: workloads.closed_form_argv(c, A, B, C, alpha, branch)
             for c in workloads.CLOSED_FORM_COMMANDS}
    data = {c: _cli_json(argv) for c, argv in argvs.items()}

    def check(command):
        return lambda d: oracle.CLOSED_FORM_CHECKS[command](d, A, B, C, alpha, branch)

    _rejects(check("spectrum"), data["spectrum"],
             lambda d: _bump(d["series"][1]["energies"][0]))
    _rejects(check("spectrum"), data["spectrum"],
             lambda d: d["series"][0]["energies"].pop())
    _rejects(check("analyze"), data["analyze"], lambda d: _bump(d["coefficients"]["t2"]))
    _rejects(check("exchange"), data["exchange"], lambda d: d["image"].update(A=d["image"]["B"]))
    _rejects(check("exchange"), data["exchange"],
             lambda d: _bump(d["coefficients"]["exchanged"]["st"]))
    _rejects(check("sl2"), data["sl2"], lambda d: _bump(d["solutions"][0]["m"], 1e-8))
    _rejects(check("bifurcation"), data["bifurcation"],
             lambda d: _bump(d["points"][50]["energies_minus"][0]))


def test_seed_output_digest():
    data = _cli_json(["analyze", "--A", "2", "--B", "3"])
    schema = oracle.key_schema(data)
    want = oracle.digest(data, schema)
    added = copy.deepcopy(data)
    added["diagnostics"] = {"new": 1}
    added["pt"]["extra"] = True
    added["schema_version"] = "1.1"
    assert oracle.digest(added, schema) == want
    changed = copy.deepcopy(data)
    t2 = changed["coefficients"]["t2"]
    t2["re"] = math.nextafter(t2["re"], math.inf)  # one unit in the last place
    assert changed != data and oracle.digest(changed, schema) != want
    dropped = copy.deepcopy(data)
    del dropped["exchange_image"]
    assert oracle.digest(dropped, schema) != want


def test_golden_matches_pool():
    golden = workloads.load_golden()
    assert golden["pool_size"] == workloads.POOL_SIZE == len(workloads.closed_form_pool())
    for command in workloads.CLOSED_FORM_COMMANDS:
        assert len(golden["digests"][command]) == workloads.POOL_SIZE
    for _, command, params in workloads.CLOSED_FORM_ANCHORS:
        assert " ".join(workloads.closed_form_argv(command, *params)) in golden["anchors"]


def test_verify_checks_reject_perturbed_answers():
    # the exceptional point: one merged level of multiplicity two per rung
    data = _cli_json(["bifurcation", "--A", "2", "--B", "2.5", "--steps", "3", "--verify-at", "0"])
    payload = data["verifications"][0]["plus"]

    def check(d):
        return oracle.check_verify_payload(d, 2.0, 2.5, 0.0, 1.0, "plus")

    _rejects(check, payload, lambda d: d.update(passed=False))
    _rejects(check, payload, lambda d: _bump(d["matches"][0]["numeric"], 1e-5))
    _rejects(check, payload, lambda d: d["matches"].pop())
    _rejects(check, payload, lambda d: d.update(max_abs_err=2 * d["tol_match"]))
    _rejects(check, payload, lambda d: d["unmatched_numeric"].append({"energy": 0}))

    def check_at(d):
        return oracle.check_verify_at(d, 2.0, 2.5, 1.0)

    _rejects(check_at, data, lambda d: d["verifications"][0].update(numeric_conjugacy_err=1e-3))
    _rejects(check_at, data, lambda d: d["verifications"][0]["minus"].update(passed=False))
    _rejects(check_at, data, lambda d: d.pop("verifications"))

    assert oracle.check_exit(3, 3) == [] and oracle.check_exit(0, 3)


def test_blind_check_rejects_perturbed_answers():
    [case] = [c for c in workloads.blind_scan(LIB, 1) if c.name.startswith("exceptional")]
    results = case.call()
    assert case.check(results) == []
    energies = [r.energy for r in results]

    def rejects(es):
        return case.check([SimpleNamespace(energy=e) for e in es])

    assert rejects(energies[:1])  # the split pair seen as one state
    assert rejects([energies[0], energies[0] + 1e-9])  # the pair merged
    assert rejects(energies + [-0.5 + 0j])  # an unpredicted state
    assert rejects([e + 0.04 for e in energies])  # the pair off its level

    # simple levels, and one on the threshold that may fall either side
    levels = [(-1.0 + 0j, 1), (-1e-6 - 0.5j, 1)]
    h, v_max = 0.01, 10.0
    assert oracle.check_blind([-1.0001 + 0j], levels, h, v_max) == []
    assert oracle.check_blind([-1.0001 + 0j, -2e-6 - 0.5j], levels, h, v_max) == []
    assert oracle.check_blind([-1.01 + 0j], levels, h, v_max)
    assert oracle.check_blind([], levels, h, v_max)
    assert oracle.check_blind([-1.0 + 0j, -1e-6 - 0.5j, -2e-6 - 0.5j], levels, h, v_max)


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as exc:  # report every failing test, then exit non-zero
            failures += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failures} passed, {failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
