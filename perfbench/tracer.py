"""Outside-in tracing of the taudis layers, installed from the benchmark.

Each traced function is replaced by a timing wrapper in every namespace a
caller looks it up in: its own module (for calls through ``module.name`` and
for calls inside the module), every module that did ``from module import
name``, and module-level dicts holding the function (such as the strategy
table of image metrics). Functions called once per instance or image are
"hot": they get a call counter and one accumulated timer, not a span per call.

Timing keeps a stack of open frames. A frame accumulates the time of its
children, so a function's self time is its duration minus the part its
children cover. Outcome counts are computed from returned objects after a
call ends; that work is charged to ``trace.outcome`` and to nobody's self
time. A count that fails is reported, never raised into the program.
"""

from __future__ import annotations

import itertools
import os
import sys
import time

# layer -> (module, function name, hot)
TARGETS = {
    "cli": [("taudis.cli", "main", False)],
    "core": [("taudis.core", "ingest_predictions", False),
             ("taudis.core", "make_pool_state", False),
             ("taudis.core", "apply_round", False),
             ("taudis.core", "image_embedding", True)],
    "uncertainty": [("taudis.uncertainty", name, True) for name in (
        "mean_binary_entropy", "instance_seg_entropy", "instance_uncertainty",
        "weighted_segmentation_entropy", "weighted_classification_entropy",
        "average_classification_margin", "class_conditional_wse")],
    "strategies": [("taudis.strategies", name, False) for name in (
        "select_batch", "taudis_select", "taudis_img_select", "random_select",
        "uncertainty_select", "coreset_select", "round_robin_select",
        "_ranked_instances", "majority_vote")],
    "simgraph": [("taudis.simgraph", "build_similarity_matrix", False),
                 ("taudis.simgraph", "to_cover_problem", False)],
    "maxcover": [("taudis.maxcover", "solve_max_cover", False)],
    "simharness": [("taudis.simharness", name, False) for name in (
        "run_simulation", "generate_pool", "initial_labeled_set",
        "mock_predictor", "_round_metrics")],
}

IMAGE_SCORES = ("weighted_segmentation_entropy", "weighted_classification_entropy",
                "average_classification_margin", "class_conditional_wse")


class Tracer:
    def __init__(self):
        self.frames = [[0.0, None]]  # [time covered by children, span id]
        self.stats = {}  # "module.function" -> [calls, total s, self s]
        self.spans = []
        self.counts = {}
        self.graph_call = None  # arguments of the largest graph build
        self.missing = []
        self.errors = []
        self._ids = itertools.count(1)

    def count(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, key: str, fn, hot: bool, on_return=None):
        frames, clock, ids = self.frames, time.perf_counter, self._ids
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        outcome = self.stats.setdefault("trace.outcome", [0, 0.0, 0.0])
        spans = self.spans

        def wrapper(*args, **kwargs):
            parent = frames[-1]
            frame = [0.0, parent[1] if hot else next(ids)]
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                elapsed = end - start
                parent[0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if not hot:
                    spans.append({"id": frame[1], "parent": parent[1],
                                  "name": key, "start": start, "end": end,
                                  "self_s": elapsed - frame[0]})
            if on_return is not None:
                t0 = clock()
                try:
                    on_return(args, result)
                except Exception as exc:  # noqa: BLE001 - never fail the run
                    self.errors.append(f"{key}: {exc!r}")
                spent = clock() - t0
                parent[0] += spent
                outcome[0] += 1
                outcome[1] += spent
            return result

        return wrapper

    # -- outcome counts, read from the objects the layers return ----------

    def _on_ingest(self, args, pool):
        self.count("core.instances", sum(len(img.instances)
                                         for img in pool.values()))
        self.count("core.file_mb", os.path.getsize(args[0]) / 2**20)

    def _on_select(self, args, output):
        diag = output.diagnostics
        if "t_c_size" in diag:
            selected = len(output.selected_images)
            self.count("strategies.t_c_size", diag["t_c_size"])
            self.count("strategies.t_d_size", diag["t_d_size"])
            self.count("strategies.vote_filled",
                       selected - min(len(diag["n_d"]), selected))

    def _on_graph(self, args, matrix):
        self.count("simgraph.edges", sum(len(r) for r in matrix.entries.values()))
        self.counts["simgraph.rows"] = max(self.counts.get("simgraph.rows", 0),
                                           len(matrix.rows))
        self.counts["simgraph.cols"] = max(self.counts.get("simgraph.cols", 0),
                                           len(matrix.cols))
        size = len(matrix.rows) * len(matrix.cols)
        if self.graph_call is None or size > self.graph_call[0]:
            self.graph_call = (size, args[0], args[1], args[2])

    def _on_cover(self, args, solution):
        subsets = dict(args[0].subsets)
        covered: set = set()
        positive = 0
        for cid in solution.selected:
            gain = subsets[cid] - covered
            if gain:
                positive += 1
                covered |= gain
        self.count("maxcover.picks", len(solution.selected))
        self.count("maxcover.positive_gain_picks", positive)
        self.count("maxcover.coverage", solution.coverage)

    def _on_generate(self, args, pool):
        self.count("simharness.instances", sum(len(img.instances)
                                               for img in pool.images.values()))

    def _on_simulation(self, args, results):
        self.count("simharness.rounds", sum(len(r) for r in results.values()))

    def install(self) -> None:
        """Wrap every target in every namespace that refers to it."""
        hooks = {"taudis.core.ingest_predictions": self._on_ingest,
                 "taudis.strategies.select_batch": self._on_select,
                 "taudis.simgraph.build_similarity_matrix": self._on_graph,
                 "taudis.maxcover.solve_max_cover": self._on_cover,
                 "taudis.simharness.generate_pool": self._on_generate,
                 "taudis.simharness.run_simulation": self._on_simulation}
        replace = {}
        for targets in TARGETS.values():
            for module, name, hot in targets:
                fn = getattr(sys.modules.get(module), name, None)
                if fn is None:
                    self.missing.append(f"{module}.{name}")
                    continue
                key = f"{module}.{name}"
                replace[id(fn)] = (fn, self.wrap(key, fn, hot, hooks.get(key)))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "taudis" and not mod_name.startswith("taudis."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replace and replace[id(value)][0] is value:
                    setattr(module, attr, replace[id(value)][1])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in replace and replace[id(v)][0] is v:
                            value[k] = replace[id(v)][1]
