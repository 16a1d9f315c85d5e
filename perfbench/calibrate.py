"""Machine-speed calibration: fixed work that never touches the library.

On a shared machine the speed a process gets drifts by up to a factor
of two over tens of seconds, with every call slowed alike. The run
times one of these fixed pieces of work between its cases and scales
each case by REFERENCE_S / (calibration time around it), so a figure
reads as seconds on a machine where the calibration takes REFERENCE_S.
A change to the library moves the case times and not the calibration.

Two kinds, matched to what a workload spends its time on:

* python: building and using a fixed argparse parser, and JSON
  encoding and decoding of a fixed document, the interpreter-bound work
  of the CLI and closed-form layers;
* numeric: complex tridiagonal LU factorizations and solves (LAPACK's
  zgttrf/zgttrs, called straight from scipy) with a norm, the small
  calls the numeric oracle's shift scan is made of.

Every result keeps the calibration samples and the raw pass times next
to the scaled ones, so the effect of the scaling can be checked.
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np
from scipy.linalg.lapack import zgttrf, zgttrs

# typical calibration times on a 2-vCPU shared VM (x86_64, CPython 3,
# OpenBLAS); only the ratio of case time to calibration time matters
REFERENCE_S = {"python": 0.0100, "numeric": 0.078}

_DOC = {str(i): [i, i * 0.5, "x" * (i % 7), {"a": i}] for i in range(200)}
_N = 2000
_rng = np.random.default_rng(20100718)
_DL = _rng.standard_normal(_N - 1) + 1j * _rng.standard_normal(_N - 1)
_D = _rng.standard_normal(_N) + 4.0 + 1j * _rng.standard_normal(_N)
_DU = _rng.standard_normal(_N - 1) + 1j * _rng.standard_normal(_N - 1)
_B = np.ones(_N, dtype=complex)


def _python_work() -> None:
    for _ in range(2):
        parser = argparse.ArgumentParser(prog="calibrate")
        commands = parser.add_subparsers(dest="command")
        for name in ("a", "b", "c", "d"):
            sub = commands.add_parser(name)
            for k in range(8):
                sub.add_argument(f"--opt{k}", type=float, default=1.0, help="(%(default)s)")
        parser.parse_args(["b", "--opt1", "2.5", "--opt3", "-1.25"])
    for _ in range(4):
        json.loads(json.dumps(_DOC, indent=1))


def _numeric_work() -> None:
    for k in range(600):
        dl, d, du, du2, ipiv, _ = zgttrf(_DL, _D + 0.01 * k, _DU)
        x = zgttrs(dl, d, du, du2, ipiv, _B)[0]
        x /= np.linalg.norm(x)


_WORK = {"python": _python_work, "numeric": _numeric_work}


class Calibration:
    """Times one kind of calibration work; remembers every sample."""

    def __init__(self, kind: str):
        self.kind = kind
        self.reference = REFERENCE_S[kind]
        self._work = _WORK[kind]
        self.samples: list[float] = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        self._work()
        took = time.perf_counter() - t0
        self.samples.append(took)
        return took

    def scale(self, before: float, after: float) -> float:
        """Factor for work done between two samples."""
        return self.reference / (0.5 * (before + after))
