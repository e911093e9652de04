#!/usr/bin/env python3
"""Record golden outputs for seeds into perfbench/goldens.json.

    python3 perfbench/record_goldens.py --workload NAME --seeds 0 1 ...

Run from the root of a checkout of the code whose outputs are taken as
correct. Select goldens are the sha256 of `selected_images` (one id per line)
and are recorded only when the selection also matches oracle.py. Simulate
goldens are the whole report, compared later with exact integers and strings
and floats within run.FLOAT_REL_TOL.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import tempfile
import time

import run
import workloads


def record(workload: str, seed: int, env: dict, src: str, work_root: str):
    run.Child.deadline = time.perf_counter() + run.RUN_LIMIT_S
    workdir = tempfile.mkdtemp(prefix=f"golden-{workload}-{seed}-",
                               dir=work_root)
    try:
        run.prepare(workload, seed, workdir, env, src)
        out = os.path.join(workdir, "out.json")
        child = run.Child(run.python(*run.CLI, *workloads.cli_args(
            workload, seed, workdir, out)), env, os.path.join(workdir, "log"))
        if child.rc != 0:
            raise RuntimeError(f"command failed:\n{child.output}")
        with open(out, encoding="utf-8") as f:
            output = json.load(f)
        if workloads.WORKLOADS[workload]["kind"] == "simulate":
            return output
        problems = run.check_select(out, run.Checker(workload, seed, workdir)
                                    .expected, None)
        if problems:
            raise RuntimeError(f"selection disagrees with oracle.py: {problems}")
        return {"selected_sha256": run.selection_sha256(output["selected_images"])}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def dump_goldens(goldens: dict) -> str:
    """JSON text with one line per golden, so a diff names the seed."""
    blocks = []
    for workload in sorted(goldens):
        lines = [f"  {json.dumps(seed)}: {json.dumps(golden, sort_keys=True)}"
                 for seed, golden in sorted(goldens[workload].items(),
                                            key=lambda item: int(item[0]))]
        blocks.append(f" {json.dumps(workload)}: {{\n" + ",\n".join(lines)
                      + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    src = os.path.join(os.getcwd(), "src")
    work_root = os.path.join(os.getcwd(), ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    env = run.child_env(src)
    path = os.path.join(run.HERE, "goldens.json")
    for seed in args.seeds:
        golden = record(args.workload, seed, env, src, work_root)
        with open(path, encoding="utf-8") as f:
            goldens = json.load(f)
        goldens.setdefault(args.workload, {})[str(seed)] = golden
        with open(path, "w", encoding="utf-8") as f:
            f.write(dump_goldens(goldens))
        print(f"recorded {args.workload} seed {seed}")


if __name__ == "__main__":
    main()
