"""Child process: one in-process run of the taudis CLI, or one graph build.

    python3 perfbench/probe.py plain  SUMMARY -- CLI-ARGS...
    python3 perfbench/probe.py traced SUMMARY GRAPH -- CLI-ARGS...
    python3 perfbench/probe.py knob   SUMMARY GRAPH THREADS

``plain`` times ``taudis.cli.main`` with no tracing. ``traced`` installs the
tracer first, writes the per-function statistics, counts and spans to
SUMMARY, and saves the arguments of the largest similarity-graph build to
GRAPH (an .npz). ``knob`` rebuilds that graph with ``n_threads=THREADS`` and
records the time; its parent reads the peak RSS from ``os.wait4``.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from tracer import Tracer


def _save_graph(path: str, call) -> None:
    _, candidates, universe, sigma = call
    ids = [uid for uid, _ in universe]
    position = {uid: i for i, uid in enumerate(ids)}
    np.savez(path, ids=np.asarray(ids),
             vectors=np.asarray([vec for _, vec in universe], dtype=np.float64),
             candidates=np.asarray([position[cid] for cid, _ in candidates]),
             sigma=sigma)


def run_knob(summary: str, graph: str, threads: int) -> None:
    from taudis import simgraph
    data = np.load(graph)
    ids = [str(uid) for uid in data["ids"]]
    universe = list(zip(ids, data["vectors"]))
    candidates = [universe[i] for i in data["candidates"]]
    start = time.perf_counter()
    matrix = simgraph.build_similarity_matrix(
        candidates, universe, float(data["sigma"]), n_threads=threads)
    elapsed = time.perf_counter() - start
    with open(summary, "w", encoding="utf-8") as f:
        json.dump({"build_s": elapsed, "rows": len(matrix.rows)}, f)


def main() -> int:
    mode, summary = sys.argv[1], sys.argv[2]
    if mode == "knob":
        run_knob(summary, sys.argv[3], int(sys.argv[4]))
        return 0
    argv = sys.argv[sys.argv.index("--") + 1:]
    import taudis.cli
    tracer = None
    if mode == "traced":
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    rc = taudis.cli.main(argv)
    wall = time.perf_counter() - start
    result = {"rc": rc, "wall_s": wall}
    if tracer is not None:
        result.update(stats=tracer.stats, counts=tracer.counts,
                      missing=tracer.missing, errors=tracer.errors,
                      spans=tracer.spans)
        if tracer.graph_call is not None:
            _save_graph(sys.argv[3], tracer.graph_call)
    with open(summary, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
