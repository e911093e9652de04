"""Child process: write one workload's inputs for a seed, plus what to expect.

    python3 perfbench/inputs.py --workload NAME --seed N --dir DIR

Select workloads get DIR/pool.jsonl.gz (images sorted by id) and
DIR/labeled.txt; the simulate workload gets DIR/spec.json. Both get
DIR/expected.json from the reference in oracle.py. Prints one JSON line
describing the inputs and the numerical environment.
"""

from __future__ import annotations

import argparse
import ctypes
import gzip
import json
import os
import platform
import sys

import numpy as np
import scipy

import oracle
import workloads
import taudis
from taudis import core, simharness

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None if not found."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(),
            **{var: os.environ.get(var, "unset") for var in THREAD_VARS}}


def write_select_inputs(name: str, seed: int, workdir: str) -> dict:
    w = workloads.WORKLOADS[name]
    spec = simharness.spec_from_dict(workloads.pool_spec(name, seed))
    pool = simharness.generate_pool(spec)
    labeled = set(simharness.initial_labeled_set(
        pool, workloads.INITIAL_FRACTION, seed))
    unlabeled = []
    instances = 0
    path = os.path.join(workdir, "pool.jsonl.gz")
    with gzip.open(path, "wt", encoding="utf-8", newline="\n",
                   compresslevel=1) as handle:
        for image_id in sorted(pool.images):
            record = core.image_to_record(pool.images[image_id])
            handle.write(json.dumps(record, allow_nan=False) + "\n")
            instances += len(record["instances"])
            if image_id not in labeled:
                unlabeled.append((image_id, [
                    (rec["instance_id"], oracle.instance_entropy(rec),
                     rec["size_ratio"], rec["embedding"])
                    for rec in record["instances"]]))
    del pool
    with open(os.path.join(workdir, "labeled.txt"), "w", encoding="utf-8") as f:
        f.write("".join(f"{iid}\n" for iid in sorted(labeled)))
    expected = oracle.reference_selection(
        unlabeled, w["budget"], workloads.ALPHA, workloads.BETA, w["sigma"])
    with open(os.path.join(workdir, "expected.json"), "w", encoding="utf-8") as f:
        json.dump(expected, f)
    return {"instances": instances, "file_bytes": os.path.getsize(path)}


def write_simulate_inputs(name: str, seed: int, workdir: str) -> dict:
    spec_dict = workloads.pool_spec(name, seed)
    with open(os.path.join(workdir, "spec.json"), "w", encoding="utf-8") as f:
        json.dump(spec_dict, f)
    pool = simharness.generate_pool(simharness.spec_from_dict(spec_dict))
    images = {}
    for image_id, image in pool.images.items():
        images[image_id] = [
            (rec["instance_id"], oracle.instance_entropy(rec), rec["size_ratio"],
             rec["embedding"], pool.instance_clusters[rec["instance_id"]])
            for rec in core.image_to_record(image)["instances"]]
    initial = simharness.initial_labeled_set(pool, workloads.INITIAL_FRACTION,
                                             seed)
    expected = oracle.simulate_reference(
        images, initial, seed, workloads.SIM_ROUNDS, workloads.SIM_BUDGET,
        workloads.GAMMA, spec_dict["num_clusters"], workloads.ALPHA,
        workloads.BETA, workloads.SIGMA)
    with open(os.path.join(workdir, "expected.json"), "w", encoding="utf-8") as f:
        json.dump({"strategies": expected}, f)
    return {}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    if workloads.WORKLOADS[args.workload]["kind"] == "select":
        info = write_select_inputs(args.workload, args.seed, args.dir)
    else:
        info = write_simulate_inputs(args.workload, args.seed, args.dir)
    info["env"] = environment()
    info["taudis"] = taudis.__file__
    print(json.dumps(info))
    return 0


if __name__ == "__main__":
    sys.exit(main())
