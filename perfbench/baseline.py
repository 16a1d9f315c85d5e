"""Run every workload in fresh processes and write a results file.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/results/BENCH_seed.json

For each workload, runs run.py once per seed with tracing off and once
more (first seed) with tracing on, each in its own process, and records
per metric the values, their median and their spread: the distance
between the first and third quartile as a share of the median, next to
a third of the metric's bound from BENCHMARK.json. Every run's machine
and provenance record is kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 400


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{cmd} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return {
        "seed": seed,
        "trace": trace,
        "process_s": elapsed,
        "info": json.loads(lines[-2])["info"],
        "result": json.loads(lines[-1]),
    }


def spread(values) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def summarize(runs, spec) -> dict:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {}
    for name, bound in bounds.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        entry = {
            "unit": runs[0]["result"]["metrics"][name]["unit"],
            "median": statistics.median(values),
            "values": values,
            "bound": bound,
        }
        if len(values) >= 2:
            entry["spread"] = spread(values)
            entry["spread_limit"] = bound / 3.0
        out[name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    report = {"benchmark": spec, "seeds": seeds, "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds:
            runs.append(run_once(name, seed, spec["run_seconds"], 0))
            m = runs[-1]["result"]["metrics"]
            print(name, seed, {k: round(v["value"], 4) for k, v in m.items()}, flush=True)
        traced = run_once(name, seeds[0], spec["run_seconds"], 1)
        entry = {
            "untraced": runs,
            "end_to_end": summarize(runs, spec),
            "traced": traced,
            "per_layer": traced["result"]["metrics"],
        }
        report["workloads"][name] = entry
        for metric, s in entry["end_to_end"].items():
            if "spread" in s:
                flag = "" if s["spread"] < s["spread_limit"] else "  <-- above bound/3"
                print(f"  {metric}: median {s['median']:.6g} spread {s['spread']:.4f}{flag}")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
