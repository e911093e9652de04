"""Workload definitions shared by run.py and its child processes.

Every input is a pure function of the workload name and the seed. The select
workloads write a gzipped prediction file and a labeled-id list; the simulate
workload writes a pool spec and lets the program build the pool itself.
"""

from __future__ import annotations

INITIAL_FRACTION = 0.25
SIM_STRATEGIES = ("taudis", "taudis_img", "wse", "round_robin", "coreset",
                  "random")
SIM_ROUNDS = 10
SIM_BUDGET = 100
GAMMA = 0.7  # the simulate default, which the command does not override
SIGMA = 0.8

# alpha, beta and SIGMA are the README defaults; sigma is passed only where
# a workload departs from the default.
ALPHA = 7.5
BETA = 2.0

WORKLOADS = {
    # Production path at README defaults. Three hot clusters make the graph
    # collapse into a few dense blocks, so ingest and graph build dominate and
    # nearly every cover pick is rank padding: a cover-solver change should
    # leave this workload unchanged.
    "select_default": {
        "kind": "select",
        "spec": {"num_images": 20000, "num_clusters": 40, "embedding_dim": 64,
                 "num_classes": 5, "hot_clusters": [0, 1, 2],
                 "intra_similarity": 0.95},
        "budget": 400,
        "sigma": SIGMA,
        "pass_sigma": False,
    },
    # Same command and pool size with the diversity step kept alive: every
    # cluster is hot with overlapping entropies and looser clusters, so the
    # cover makes hundreds of positive-gain picks across many clusters.
    "select_diverse": {
        "kind": "select",
        "spec": {"num_images": 20000, "num_clusters": 40, "embedding_dim": 64,
                 "num_classes": 5, "hot_clusters": list(range(40)),
                 "hot_se_range": [0.50, 0.55], "se_jitter": 0.05,
                 "intra_similarity": 0.7},
        "budget": 800,
        "sigma": 0.73,
        "pass_sigma": True,
    },
    # Multi-round comparison of six strategies. Reads no file, so ingest is
    # bypassed; drives the simulator, stored-entropy uncertainty and every
    # baseline, including the coreset broadcast that sets peak RSS.
    "simulate_mixed": {
        "kind": "simulate",
        "spec": {"num_images": 3000, "num_clusters": 40, "embedding_dim": 64,
                 "num_classes": 5, "hot_clusters": [0, 1, 2]},
    },
}


def pool_spec(workload: str, seed: int) -> dict:
    return dict(WORKLOADS[workload]["spec"], seed=seed)


def cli_args(workload: str, seed: int, workdir: str, out: str) -> list[str]:
    """Arguments after the program name for one command of the workload."""
    w = WORKLOADS[workload]
    if w["kind"] == "select":
        args = ["select", f"{workdir}/pool.jsonl.gz",
                "--labeled", f"{workdir}/labeled.txt",
                "--strategy", "taudis", "--budget", str(w["budget"]),
                "--seed", str(seed), "--out", out]
        if w["pass_sigma"]:
            args += ["--sigma", str(w["sigma"])]
        return args
    return ["simulate", "--pool-spec", f"{workdir}/spec.json",
            "--strategies", ",".join(SIM_STRATEGIES),
            "--rounds", str(SIM_ROUNDS), "--budget", str(SIM_BUDGET),
            "--seed", str(seed), "--out", out]
