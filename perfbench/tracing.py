"""Outside-in tracing of pcs_spectra's layers.

The tracer replaces public functions of pcs_spectra.cli, numerics,
spectra, sl2 and core with wrappers while it is installed, and puts the
originals back when it is removed. The library itself is never edited.
A name is patched in every pcs_spectra module that holds the same
object, because `from .numerics import verify_spectrum` gives cli its
own reference that patching numerics alone would miss.

Span functions record (id, parent, name, start, end, note) in memory;
count functions only count calls, attributed to the span they ran
under. A span opened on a worker thread that has no open span of its
own (eigen_near inside bound_spectrum's thread pool) takes the span
open on the installing thread as its parent: that thread is blocked
inside the call that started the pool.
"""

from __future__ import annotations

import inspect
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

SPAN_TARGETS = {
    "cli": ("run", "build_parser"),
    "numerics": (
        "verify_spectrum",
        "bound_spectrum",
        "refine_eigenvalue",
        "discretize",
        "eigen_near",
    ),
    "spectra": ("two_series_spectrum", "bifurcation_scan"),
    "sl2": ("solve_correspondence", "correspondence_residuals"),
}
# calls too cheap or too frequent to time one by one
COUNT_TARGETS = {
    "numerics": ("zgttrf", "zgttrs"),
    "core": ("pcs_partner_coefficients", "dual_superpotentials"),
}


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    note: object = None


def _note_eigen(args, kwargs, result, error):
    if error is not None:
        return (type(error).__name__, getattr(error, "iterations", 0))
    return ("ok", result)


def _note_bound(fn):
    sig = inspect.signature(fn)

    def note(args, kwargs, result, error):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return {
            "re_limit": bound.arguments["re_limit"],
            "max_leak": bound.arguments["max_leak"],
            "returned": None if error is not None else len(result),
        }

    return note


def _note_discretize(args, kwargs, result, error):
    return None if error is not None else result.grid.N


def _note_verify(args, kwargs, result, error):
    if error is not None:
        return None
    return result.grid.N / result.base_grid.N


# what each span keeps of its call; bound_spectrum's note needs the
# function's signature to read its keyword defaults
NOTES = {
    "numerics.eigen_near": _note_eigen,
    "numerics.discretize": _note_discretize,
    "numerics.verify_spectrum": _note_verify,
}


class Tracer:
    """Spans and counts around the library's public functions."""

    package = "pcs_spectra"

    def __init__(self):
        self.spans: list[Span] = []
        # (name, parent span id) -> calls
        self.counts: dict[tuple[str, int | None], int] = defaultdict(int)
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        # a pool thread: the installing thread waits inside the caller
        home = self._home_stack
        return home[-1] if home else None

    def _span_wrapper(self, name: str, fn, note):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = self._current(stack)
            with self._lock:
                sid = self._next_id
                self._next_id += 1
            span = Span(sid, parent, name, time.perf_counter())
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                if note is not None:
                    span.note = note(args, kwargs, None, exc)
                raise
            else:
                span.end = time.perf_counter()
                if note is not None:
                    span.note = note(args, kwargs, result, None)
                return result
            finally:
                stack.pop()
                with self._lock:
                    self.spans.append(span)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name: str, fn):
        def wrapper(*args, **kwargs):
            parent = self._current(self._stack())
            with self._lock:
                self.counts[(name, parent)] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------- patching

    def _modules(self):
        return [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == self.package or key.startswith(self.package + "."))
        ]

    def install(self) -> None:
        """Patch every target in every package module that refers to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        targets = [(m, n, True) for m, names in SPAN_TARGETS.items() for n in names]
        targets += [(m, n, False) for m, names in COUNT_TARGETS.items() for n in names]
        try:
            for owner, attr, timed in targets:
                original = getattr(sys.modules[f"{self.package}.{owner}"], attr)
                name = f"{owner}.{attr}"
                if timed:
                    note = (
                        _note_bound(original)
                        if name == "numerics.bound_spectrum"
                        else NOTES.get(name)
                    )
                    wrapper = self._span_wrapper(name, original, note)
                else:
                    wrapper = self._count_wrapper(name, original)
                for mod in modules:
                    if mod.__dict__.get(attr) is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        """Put every original back."""
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False


# ------------------------------------------------------------------ analysis


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanTree:
    """Index over recorded spans for per-layer sums."""

    def __init__(self, spans, counts):
        self.spans = list(spans)
        self.counts = dict(counts)
        self.by_id = {s.sid: s for s in self.spans}
        self.children: dict[int | None, list[Span]] = defaultdict(list)
        for s in self.spans:
            self.children[s.parent].append(s)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_time(self, span: Span) -> float:
        kids = [(c.start, c.end) for c in self.children[span.sid]]
        return (span.end - span.start) - _union_length(kids, span.start, span.end)

    def descendants(self, span: Span) -> list[Span]:
        out, todo = [], [span.sid]
        while todo:
            for child in self.children[todo.pop()]:
                out.append(child)
                todo.append(child.sid)
        return out

    def count_under(self, name: str, spans) -> int:
        ids = {s.sid for s in spans}
        return sum(n for (key, parent), n in self.counts.items() if key == name and parent in ids)

    def total_count(self, name: str) -> int:
        return sum(n for (key, _), n in self.counts.items() if key == name)


def eigen_iterations(span: Span) -> int:
    kind, payload = span.note
    return payload.iterations if kind == "ok" else payload


def subtree_counts(tree: SpanTree, root: Span) -> dict:
    """Work under one span: solves, iterations, discretizations, LU calls."""
    under = [root] + tree.descendants(root)
    eig = [s for s in under if s.name == "numerics.eigen_near"]
    return {
        "eigen_near": len(eig),
        "iterations": sum(eigen_iterations(s) for s in eig),
        "discretize": sum(1 for s in under if s.name == "numerics.discretize"),
        "lu_factorizations": tree.count_under("numerics.zgttrf", under),
        "lu_solves": tree.count_under("numerics.zgttrs", under),
    }


def layer_metrics(tree: SpanTree, passes: int, output_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: counts and times per traced pass.

    Totals over everything traced are divided by passes; a run's
    checked-only cases are traced once and so count with its passes.
    Ratios and grid_growth are taken over everything traced and are 0
    when their base is 0 (the layer was not called in this workload).
    """
    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit, per_pass=True):
        out[name] = (value / passes if per_pass else value, unit)

    def ratio(num, den):
        return num / den if den else 0.0

    def busy(spans):
        return sum(s.end - s.start for s in spans)

    eig = tree.named("numerics.eigen_near")
    kinds = [s.note[0] for s in eig]
    put("numerics.eigen_near.calls", len(eig), "count")
    put("numerics.eigen_near.iterations", sum(eigen_iterations(s) for s in eig), "count")
    put("numerics.eigen_near.busy_s", busy(eig), "s")
    put("numerics.eigen_near.failed.no_convergence", kinds.count("NoConvergence"), "count")
    put("numerics.eigen_near.failed.singular_shift", kinds.count("SingularShift"), "count")

    bound = tree.named("numerics.bound_spectrum")
    scan_solves = [c for b in bound for c in tree.children[b.sid] if c.name == "numerics.eigen_near"]
    put(
        "numerics.eigen_near.parallelism",
        ratio(busy(scan_solves), busy(bound)),
        "ratio",
        per_pass=False,
    )
    put("numerics.lu_factorizations", tree.total_count("numerics.zgttrf"), "count")
    put("numerics.lu_solves", tree.total_count("numerics.zgttrs"), "count")

    rejected_leak = rejected_re = dedup = returned = 0
    for b in bound:
        accepted = 0
        for c in tree.children[b.sid]:
            if c.name != "numerics.eigen_near" or c.note[0] != "ok":
                continue
            res = c.note[1]
            if res.energy.real >= b.note["re_limit"]:
                rejected_re += 1
            elif res.boundary_leak > b.note["max_leak"]:
                rejected_leak += 1
            else:
                accepted += 1
        if b.note["returned"] is not None:
            returned += b.note["returned"]
            dedup += accepted - b.note["returned"]
    put("numerics.bound_spectrum.calls", len(bound), "count")
    put("numerics.bound_spectrum.busy_s", busy(bound), "s")
    put("numerics.bound_spectrum.self_s", sum(tree.self_time(b) for b in bound), "s")
    put("numerics.bound_spectrum.useful_ratio", ratio(returned, len(scan_solves)), "ratio", False)
    put("numerics.bound_spectrum.rejected_leak", rejected_leak, "count")
    put("numerics.bound_spectrum.rejected_re_limit", rejected_re, "count")
    put("numerics.bound_spectrum.deduplicated", dedup, "count")

    disc = tree.named("numerics.discretize")
    put("numerics.discretize.calls", len(disc), "count")
    put("numerics.discretize.busy_s", busy(disc), "s")
    put("numerics.discretize.points", sum(s.note or 0 for s in disc), "count")

    refine = tree.named("numerics.refine_eigenvalue")
    put("numerics.refine_eigenvalue.calls", len(refine), "count")
    put("numerics.refine_eigenvalue.busy_s", busy(refine), "s")

    ver = tree.named("numerics.verify_spectrum")
    put("numerics.verify_spectrum.calls", len(ver), "count")
    put("numerics.verify_spectrum.self_s", sum(tree.self_time(v) for v in ver), "s")
    growth = [v.note for v in ver if v.note is not None]
    put("numerics.grid_growth", max(growth, default=0.0), "ratio", per_pass=False)

    for name in (
        "spectra.two_series_spectrum",
        "spectra.bifurcation_scan",
        "sl2.solve_correspondence",
        "sl2.correspondence_residuals",
    ):
        spans = tree.named(name)
        put(f"{name}.calls", len(spans), "count")
        put(f"{name}.busy_s", busy(spans), "s")
    for name in ("core.pcs_partner_coefficients", "core.dual_superpotentials"):
        put(f"{name}.calls", tree.total_count(name), "count")

    runs = tree.named("cli.run")
    put("cli.run.calls", len(runs), "count")
    put("cli.run.self_s", sum(tree.self_time(r) for r in runs), "s")
    put("cli.build_parser.busy_s", busy(tree.named("cli.build_parser")), "s")
    put("cli.output_bytes", output_bytes, "bytes")
    return out
