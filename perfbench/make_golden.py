"""Record the closed-form workload's reference outputs.

    python3 perfbench/make_golden.py

Runs every pool draw and anchor of the closed-form workload through the
CLI of this checkout and writes, per command, the union of the report
keys and a digest of each report (oracle.digest). Later commits must
reproduce these digests: a report may gain keys, but every value the
reference emitted must stay the same. Regenerate only on a commit whose
output is the intended reference, and say so where the change is
recorded.
"""

from __future__ import annotations

import json
import sys

import run  # pins BLAS threads before numpy loads
import oracle
import workloads


def main() -> int:
    lib = run.load_library()
    pool = workloads.closed_form_pool()
    reports: dict[str, list] = {c: [] for c in workloads.CLOSED_FORM_COMMANDS}
    for command in workloads.CLOSED_FORM_COMMANDS:
        for params in pool:
            code, out, err = workloads.cli_call(lib, workloads.closed_form_argv(command, *params))()
            if code != 0:
                print(f"{command} {params}: exit {code}: {err}", file=sys.stderr)
                return 1
            reports[command].append(json.loads(out))
    anchors = {}
    for _, command, params in workloads.CLOSED_FORM_ANCHORS:
        argv = workloads.closed_form_argv(command, *params)
        code, out, err = workloads.cli_call(lib, argv)()
        if code != 0:
            print(f"{argv}: exit {code}: {err}", file=sys.stderr)
            return 1
        anchors[" ".join(argv)] = (command, json.loads(out))

    schemas = {}
    for command, outs in reports.items():
        schema: dict = {}
        for data in outs:
            oracle.merge_schema(schema, oracle.key_schema(data))
        schemas[command] = schema
    golden = {
        "source": run.machine.git_commit(run.ROOT),
        "source_digest": run.machine.source_digest(run.SRC),
        "pool_seed": workloads.POOL_SEED,
        "pool_size": workloads.POOL_SIZE,
        "schemas": schemas,
        "digests": {
            command: [oracle.digest(d, schemas[command]) for d in outs]
            for command, outs in reports.items()
        },
        "anchors": {
            key: oracle.digest(data, schemas[command]) for key, (command, data) in anchors.items()
        },
    }
    workloads.GOLDEN.parent.mkdir(exist_ok=True)
    with open(workloads.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
