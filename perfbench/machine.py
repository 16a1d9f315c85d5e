"""Machine and provenance record written into every result."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path


def _blas(module) -> dict:
    try:
        deps = module.show_config(mode="dicts").get("Build Dependencies", {})
    except (TypeError, AttributeError):
        return {"name": "unknown"}
    blas = deps.get("blas", {})
    return {
        "name": blas.get("name", "unknown"),
        "version": blas.get("version", "unknown"),
        "config": blas.get("openblas configuration", ""),
    }


def source_digest(src: Path, patterns=("*.py",)) -> str:
    """Hash of the files under src that match patterns, for checkouts without git."""
    h = hashlib.sha256()
    paths = {path for pattern in patterns for path in src.rglob(pattern)}
    for path in sorted(paths):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def describe(root: Path, pin: dict, unset, caller: dict) -> dict:
    """Machine, library versions, thread settings and source revision.

    pin is the thread setting the run applied and unset the variables it
    removed; caller holds what the environment had before, so an
    overridden setting is on record. source_digest covers the library,
    harness_digest the benchmark's own code and golden outputs.
    """
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "thread_pin": dict(pin),
        "library_thread_env": {k: os.environ.get(k, "unset") for k in unset},
        "os_cpu_count": os.cpu_count(),
        "caller_thread_env": {k: v for k, v in caller.items() if v is not None},
        "git_commit": git_commit(root),
        "source_digest": source_digest(root / "src"),
        "harness_digest": source_digest(Path(__file__).resolve().parent, ("*.py", "golden/*.json")),
        "executable": Path(sys.executable).name,
    }
