#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the taudis CLI (`select` and `simulate`).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is taken from ./src. Inputs are
generated from the seed under ./.bench_work and removed afterwards.

--trace 0 runs the real CLI as a user would, one process per command in a
closed loop with one client, starting commands until S seconds have passed
and at least two have run (the last one runs to completion). Every output is checked against the
independent reference in oracle.py, against what the config determines, and
against the goldens in goldens.json where the seed has one. It reports
the median wall time, CPU time and peak RSS of a command, each read from
os.wait4 on that one child, and the set-up time of a fresh interpreter
(`taudis --version`, median of several).

--trace 1 runs `taudis.cli.main` in-process twice in fresh children, once
plain and once with the outside-in tracer of tracer.py, and reports per-layer
self times and counts plus the tracing overhead. It also rebuilds the largest
similarity graph with one thread and with nproc threads, and reads import
times from `python -X importtime`.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import IMAGE_SCORES, TARGETS  # noqa: E402

CLI = ["-c", "import sys; from taudis.cli import main; sys.exit(main())"]
SETUP_SAMPLES = 11
MIN_COMMANDS = 2  # a median over a fixed count, even when one command is slow
IMPORT_SAMPLES = 3
RUN_LIMIT_S = 170  # every child is killed once a run has taken this long
FLOAT_REL_TOL = 1e-9  # simulate report floats; integers and strings are exact


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

class Child:
    """Outcome of one child process, measured by os.wait4 on its pid."""

    deadline = time.perf_counter() + RUN_LIMIT_S

    def __init__(self, argv, env, log_path):
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=env, stdout=log,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(max(0.0, Child.deadline - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
        with open(log_path, encoding="utf-8", errors="replace") as log:
            self.output = log.read()


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("TAUDIS_THREADS", None)  # commands run at the program default
    return env


def python(*args) -> list[str]:
    return [sys.executable, *args]


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

def selection_sha256(ids) -> str:
    return hashlib.sha256("\n".join(ids).encode("utf-8")).hexdigest()


def _read_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f), None
    except (OSError, ValueError) as exc:
        return None, f"cannot read output {path}: {exc}"


def check_select(out_path, expected, golden) -> list[str]:
    manifest, problem = _read_json(out_path)
    if problem:
        return [problem]
    problems = []
    selected = manifest.get("selected_images")
    if selected != expected["selected_images"]:
        problems.append("selected_images differ from the reference selection")
    if golden and selection_sha256(selected or []) != golden["selected_sha256"]:
        problems.append("selected_images differ from the golden")
    diag = manifest.get("diagnostics", {})
    for key in ("t_c_size", "t_d_size", "coverage"):
        if diag.get(key) != expected[key]:
            problems.append(f"diagnostics.{key} is {diag.get(key)!r}, "
                            f"expected {expected[key]!r}")
    return problems


def _compare(path, got, want, problems) -> None:
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        if not math.isclose(got, want, rel_tol=FLOAT_REL_TOL, abs_tol=0.0):
            problems.append(f"{path}: {got!r} != {want!r}")
    elif isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            problems.append(f"{path}: keys {sorted(got)} != {sorted(want)}")
        for key in want.keys() & got.keys():
            _compare(f"{path}.{key}", got[key], want[key], problems)
    elif isinstance(want, list) and isinstance(got, list) \
            and len(want) == len(got):
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(f"{path}[{i}]", g, w, problems)
    elif type(got) is not type(want) or got != want:
        problems.append(f"{path}: {got!r} != {want!r}")


def check_simulate(out_path, spec, expected, golden) -> list[str]:
    report, problem = _read_json(out_path)
    if problem:
        return [problem]
    problems = []
    if golden is not None:
        _compare("report", report, golden, problems)
    runs = report.get("strategies", {})
    for name, rounds in expected["strategies"].items():
        _compare(f"reference {name}", runs.get(name), rounds, problems)
    # What the spec and config determine, for every strategy.
    for key, value in spec.items():
        if report.get("pool_spec", {}).get(key) != value:
            problems.append(f"pool_spec.{key} is not {value!r}")
    if set(runs) != set(workloads.SIM_STRATEGIES):
        return problems + [f"strategies {sorted(runs)} reported"]
    clusters = spec["num_clusters"]
    initial = round(workloads.INITIAL_FRACTION * spec["num_images"])
    for name, rounds in runs.items():
        if len(rounds) != workloads.SIM_ROUNDS:
            problems.append(f"{name}: {len(rounds)} rounds")
            continue
        previous = 0.0
        for r, m in enumerate(rounds):
            want = {"round_index": r, "num_selected": workloads.SIM_BUDGET,
                    "labeled_total": initial + (r + 1) * workloads.SIM_BUDGET}
            if any(m.get(k) != v for k, v in want.items()):
                problems.append(f"{name} round {r}: counts {m}")
            cov = m.get("cluster_coverage", -1.0)
            if not (previous <= cov <= 1.0) \
                    or abs(cov * clusters - round(cov * clusters)) > 1e-9:
                problems.append(f"{name} round {r}: cluster_coverage {cov!r}")
            previous = cov
            if not (-1.0 <= m.get("redundancy", 9.0) <= 1.0):
                problems.append(f"{name} round {r}: redundancy {m.get('redundancy')!r}")
            unc = m.get("mean_pool_uncertainty", -1.0)
            if not (0.0 <= unc < math.log(2.0)):
                problems.append(f"{name} round {r}: mean_pool_uncertainty {unc!r}")
        if report.get("final", {}).get(name) != rounds[-1]:
            problems.append(f"{name}: final differs from the last round")
    return problems[:5]


class Checker:
    def __init__(self, workload, seed, workdir):
        self.kind = workloads.WORKLOADS[workload]["kind"]
        with open(os.path.join(HERE, "goldens.json"), encoding="utf-8") as f:
            self.golden = json.load(f).get(workload, {}).get(str(seed))
        self.spec = workloads.pool_spec(workload, seed)
        with open(os.path.join(workdir, "expected.json"), encoding="utf-8") as f:
            self.expected = json.load(f)

    def __call__(self, rc, out_path) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        if self.kind == "select":
            return check_select(out_path, self.expected, self.golden)
        return check_simulate(out_path, self.spec, self.expected, self.golden)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def prepare(workload, seed, workdir, env, src) -> dict:
    child = Child(python(os.path.join(HERE, "inputs.py"), "--workload", workload,
                         "--seed", str(seed), "--dir", workdir),
                  env, os.path.join(workdir, "inputs.log"))
    if child.rc != 0:
        raise RuntimeError(f"input generation failed:\n{child.output[-2000:]}")
    info = json.loads(child.output.strip().splitlines()[-1])
    taudis_file = os.path.realpath(info["taudis"])
    if not taudis_file.startswith(os.path.realpath(src) + os.sep):
        raise RuntimeError(f"taudis imported from {taudis_file}, not from {src}")
    return info


def measure_setup(env, workdir) -> float:
    log = os.path.join(workdir, "version.log")
    samples = []
    for i in range(SETUP_SAMPLES + 1):  # the first run is a warm-up
        child = Child(python(*CLI, "--version"), env, log)
        if child.rc != 0:
            raise RuntimeError(f"taudis --version failed:\n{child.output}")
        if i:
            samples.append(child.wall_s)
    return statistics.median(samples)


def timed_run(workload, seed, seconds, workdir, env, check) -> dict:
    setup_s = measure_setup(env, workdir)
    samples, failures = [], []
    deadline = time.perf_counter() + seconds
    while len(samples) < MIN_COMMANDS or time.perf_counter() < deadline:
        out = os.path.join(workdir, f"out{len(samples)}.json")
        child = Child(python(*CLI, *workloads.cli_args(workload, seed, workdir, out)),
                      env, os.path.join(workdir, "command.log"))
        problems = check(child.rc, out)
        if problems:
            failures.append(problems)
            print(f"command {len(samples)} failed: {problems}\n"
                  f"{child.output[-1000:]}", file=sys.stderr)
        samples.append(child)
    metrics = {
        "wall_s": (statistics.median(c.wall_s for c in samples), "s"),
        "cpu_s": (statistics.median(c.cpu_s for c in samples), "s"),
        "peak_rss_mb": (statistics.median(c.rss_mb for c in samples), "MiB"),
        "setup_s": (setup_s, "s"),
    }
    return {"attempted": len(samples), "failed": len(failures),
            "metrics": metrics, "wall_samples": [c.wall_s for c in samples]}


def import_times(env, workdir) -> dict:
    """Median cumulative import times of taudis.cli and taudis.simharness."""
    samples = {"taudis.cli": [], "taudis.simharness": []}
    for _ in range(IMPORT_SAMPLES):
        child = Child(python("-X", "importtime", "-c", "import taudis.cli"),
                      env, os.path.join(workdir, "importtime.log"))
        for line in child.output.splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
            if m and m.group(2) in samples:
                samples[m.group(2)].append(int(m.group(1)) / 1e6)
    return {name: statistics.median(v) if v else 0.0
            for name, v in samples.items()}


def traced_run(workload, seed, workdir, env, check, work_root) -> dict:
    probe = os.path.join(HERE, "probe.py")
    graph = os.path.join(workdir, "graph.npz")
    runs = {}
    for mode in ("plain", "traced"):
        out = os.path.join(workdir, f"{mode}.json")
        summary = os.path.join(workdir, f"{mode}-summary.json")
        extra = [graph] if mode == "traced" else []
        child = Child(python(probe, mode, summary, *extra, "--",
                             *workloads.cli_args(workload, seed, workdir, out)),
                      env, os.path.join(workdir, f"{mode}.log"))
        data, problem = _read_json(summary) if child.rc == 0 else (None, None)
        problems = check(data["rc"], out) if data else \
            [problem or f"probe exit code {child.rc}: {child.output[-1000:]}"]
        if problems:
            print(f"{mode} run failed: {problems}", file=sys.stderr)
        runs[mode] = (data, problems)
    failed = sum(1 for _, problems in runs.values() if problems)
    plain, traced = runs["plain"][0], runs["traced"][0]
    if plain is None or traced is None:
        return {"attempted": 2, "failed": failed, "metrics": {}}

    knob = {}
    if os.path.exists(graph):
        nproc = len(os.sched_getaffinity(0))
        for threads in (1, nproc):
            summary = os.path.join(workdir, f"knob{threads}.json")
            child = Child(python(probe, "knob", summary, graph, str(threads)),
                          env, os.path.join(workdir, "knob.log"))
            data, _ = _read_json(summary) if child.rc == 0 else (None, None)
            if data is None:
                print(f"trace: graph rebuild with {threads} threads failed:\n"
                      f"{child.output[-1000:]}")
                break
            knob[threads] = (data["build_s"], child.rss_mb)
        if nproc in knob:
            knob = {"build_s_1thread": knob[1][0],
                    "build_s_threads": knob[nproc][0],
                    "threads_rss_delta_mb": knob[nproc][1] - knob[1][1]}
    imports = import_times(env, workdir)
    with open(os.path.join(work_root, f"trace-{workload}-{seed}.json"), "w",
              encoding="utf-8") as f:
        json.dump({"request": f"{workload}/{seed}", "spans": traced["spans"],
                   "stats": traced["stats"], "counts": traced["counts"]}, f)
    if traced["missing"]:
        print(f"trace: not found, so not traced: {traced['missing']}")
    for error in traced["errors"]:
        print(f"trace: outcome count failed: {error}")
    metrics = layer_metrics(traced, plain["wall_s"], knob, imports)
    return {"attempted": 2, "failed": failed, "metrics": metrics}


def layer_metrics(traced, untraced_s, knob, imports) -> dict:
    stats, counts = traced["stats"], traced["counts"]

    def calls(key):
        return stats.get(key, [0])[0]

    def self_s(key):
        return stats.get(key, [0, 0.0, 0.0])[2]

    def layer_s(layer):
        return sum(self_s(f"{module}.{name}") for module, name, _ in TARGETS[layer])

    def count(key):
        return counts.get(key, 0)

    u = "taudis.uncertainty."
    instances = count("core.instances") + count("simharness.instances")
    picks = count("maxcover.picks")
    return {
        "cli.import_s": (imports["taudis.cli"], "s"),
        "cli.import_simharness_s": (imports["taudis.simharness"], "s"),
        "cli.self_s": (layer_s("cli"), "s"),
        "core.ingest_s": (self_s("taudis.core.ingest_predictions"), "s"),
        "core.self_s": (layer_s("core"), "s"),
        "core.instances": (count("core.instances"), "count"),
        "core.file_mb": (count("core.file_mb"), "MiB"),
        "uncertainty.self_s": (layer_s("uncertainty"), "s"),
        "uncertainty.mask_entropy_calls": (calls(u + "mean_binary_entropy"), "count"),
        "uncertainty.mask_entropy_s": (self_s(u + "mean_binary_entropy"), "s"),
        "uncertainty.seg_entropy_calls": (calls(u + "instance_seg_entropy"), "count"),
        "uncertainty.seg_entropy_s": (self_s(u + "instance_seg_entropy"), "s"),
        "uncertainty.image_score_calls": (
            sum(calls(u + name) for name in IMAGE_SCORES), "count"),
        "uncertainty.image_score_s": (
            sum(self_s(u + name) for name in IMAGE_SCORES), "s"),
        "uncertainty.mask_entropy_per_instance": (
            calls(u + "mean_binary_entropy") / instances if instances else 0.0,
            "ratio"),
        "strategies.select_s": (layer_s("strategies"), "s"),
        "strategies.rank_s": (self_s("taudis.strategies._ranked_instances"), "s"),
        "strategies.vote_s": (self_s("taudis.strategies.majority_vote"), "s"),
        "strategies.coreset_s": (self_s("taudis.strategies.coreset_select"), "s"),
        "strategies.vote_filled": (count("strategies.vote_filled"), "count"),
        "strategies.t_c_size": (count("strategies.t_c_size"), "count"),
        "strategies.t_d_size": (count("strategies.t_d_size"), "count"),
        "simgraph.build_s": (self_s("taudis.simgraph.build_similarity_matrix"), "s"),
        "simgraph.to_cover_s": (self_s("taudis.simgraph.to_cover_problem"), "s"),
        "simgraph.edges": (count("simgraph.edges"), "count"),
        "simgraph.rows": (count("simgraph.rows"), "count"),
        "simgraph.cols": (count("simgraph.cols"), "count"),
        "simgraph.block_mb": (256 * count("simgraph.cols") * 8 / 2**20, "MiB"),
        "simgraph.build_s_1thread": (knob.get("build_s_1thread", 0.0), "s"),
        "simgraph.build_s_threads": (knob.get("build_s_threads", 0.0), "s"),
        "simgraph.threads_rss_delta_mb": (knob.get("threads_rss_delta_mb", 0.0),
                                          "MiB"),
        "maxcover.solve_s": (self_s("taudis.maxcover.solve_max_cover"), "s"),
        "maxcover.picks": (picks, "count"),
        "maxcover.positive_gain_picks": (count("maxcover.positive_gain_picks"),
                                         "count"),
        "maxcover.useful_ratio": (
            count("maxcover.positive_gain_picks") / picks if picks else 0.0,
            "ratio"),
        "maxcover.coverage": (count("maxcover.coverage"), "count"),
        "simharness.self_s": (layer_s("simharness"), "s"),
        "simharness.generate_s": (self_s("taudis.simharness.generate_pool"), "s"),
        "simharness.mock_predictor_s": (
            self_s("taudis.simharness.mock_predictor"), "s"),
        "simharness.round_metrics_s": (
            self_s("taudis.simharness._round_metrics"), "s"),
        "simharness.rounds": (count("simharness.rounds"), "count"),
        "trace.untraced_s": (untraced_s, "s"),
        "trace.traced_s": (traced["wall_s"], "s"),
        "trace.overhead_ratio": (traced["wall_s"] / untraced_s - 1.0, "ratio"),
        "trace.outcome_s": (stats.get("trace.outcome", [0, 0.0])[1], "s"),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def report(workload, seed, trace, info, result) -> None:
    env = " ".join(f"{k}={v}" for k, v in info["env"].items())
    print(f"env: {env} TAUDIS_THREADS="
          f"{os.environ.get('TAUDIS_THREADS', 'unset')} (removed for the runs)")
    if "instances" in info:
        print(f"input: {info['instances']} instances, "
              f"{info['file_bytes'] / 2**20:.1f} MiB gzipped JSONL")
    attempted, failed = result["attempted"], result["failed"]
    kind = "traced in-process runs" if trace else "commands"
    print(f"{workload} seed {seed}: {attempted} {kind}, {failed} failed")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"  {'failed_ratio':40s} {failed / attempted:14.6g} ratio")
    if not trace:
        print(f"  wall_s, cpu_s and peak_rss_mb are medians of {attempted} "
              "commands; no tail percentile has ten samples beyond it")
        print("  wall_s of each command: "
              + " ".join(f"{w:.3f}" for w in result["wall_samples"]))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "taudis", "cli.py")):
        print(f"error: no taudis sources under {src}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    env = child_env(src)
    work_root = os.path.join(root, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                               dir=work_root)
    try:
        info = prepare(args.workload, args.seed, workdir, env, src)
        check = Checker(args.workload, args.seed, workdir)
        if args.trace:
            result = traced_run(args.workload, args.seed, workdir, env, check,
                                work_root)
        else:
            result = timed_run(args.workload, args.seed, args.seconds, workdir,
                               env, check)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report(args.workload, args.seed, args.trace, info, result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
