"""Independent reference for `taudis select --strategy taudis`, and for the
taudis, wse and random strategies of `taudis simulate`.

Written from the README's description of the strategy, not from the program:
rank instances by segmentation entropy (ties by instance id), keep the top
floor(alpha * budget), link each candidate to every unlabeled instance whose
cosine similarity is strictly above sigma (plus itself), solve max k-cover
with k = floor(beta * budget) greedily (ties by rank, padded by rank once no
pick gains), then vote images by survivor count, ties by summed entropy then
id, and fill any shortfall by weighted segmentation entropy.

The greedy keeps exact integer gains over a CSR/CSC pair, so its picks equal
those of any correct greedy or lazy-greedy solver.
"""

from __future__ import annotations

import math
import random

import numpy as np

LOG_EPS = 1e-12
_ROW_BLOCK = 256


def mean_binary_entropy(values) -> float:
    """Mean per-pixel binary entropy in nats, probabilities clamped by 1e-12."""
    p = np.clip(np.asarray(values, dtype=np.float64).reshape(-1),
                LOG_EPS, 1.0 - LOG_EPS)
    return float((-(p * np.log(p) + (1.0 - p) * np.log(1.0 - p))).mean())


def instance_entropy(rec: dict) -> float:
    """Segmentation entropy of one instance record; a dense mask wins."""
    if rec.get("mask") is not None:
        return mean_binary_entropy(rec["mask"]["values"])
    return float(rec["seg_entropy"])


def _scaled(multiplier: float, budget: int) -> int:
    return max(1, math.floor(multiplier * budget + 1e-9))


def _greedy_cover(indptr, indices, n_cols, k):
    """Greedy max k-cover on CSR rows; returns (picks, covered column count)."""
    n_rows = indptr.size - 1
    order = np.argsort(indices, kind="stable")
    col_rows = np.repeat(np.arange(n_rows), np.diff(indptr))[order]
    col_ptr = np.zeros(n_cols + 1, dtype=np.int64)
    np.cumsum(np.bincount(indices, minlength=n_cols), out=col_ptr[1:])

    gains = np.diff(indptr).astype(np.int64)
    covered = np.zeros(n_cols, dtype=bool)
    picks: list[int] = []
    take = min(k, n_rows)
    while len(picks) < take:
        best = int(np.argmax(gains))  # first maximum: the best-ranked row
        if gains[best] <= 0:
            break
        picks.append(best)
        cols = indices[indptr[best]:indptr[best + 1]]
        new = cols[~covered[cols]]
        covered[new] = True
        counts = col_ptr[new + 1] - col_ptr[new]
        starts = np.repeat(col_ptr[new] - np.cumsum(counts) + counts, counts)
        hit = col_rows[starts + np.arange(counts.sum())]
        gains -= np.bincount(hit, minlength=n_rows)
        gains[best] = -1
    positive = len(picks)
    chosen = set(picks)
    for row in range(n_rows):
        if len(picks) >= take:
            break
        if row not in chosen:
            picks.append(row)
    for row in picks[positive:]:
        covered[indices[indptr[row]:indptr[row + 1]]] = True
    return picks, int(covered.sum())


def reference_selection(images, budget: int, alpha: float, beta: float,
                        sigma: float) -> dict:
    """Expected `select` outcome for the unlabeled ``images``.

    ``images`` is a list of (image_id, [(instance_id, se, size_ratio,
    embedding), ...]) for the unlabeled images, sorted by image id.
    """
    inst_ids, owners, se, emb = [], [], [], []
    for image_id, instances in images:
        for instance_id, entropy, _, embedding in instances:
            inst_ids.append(instance_id)
            owners.append(image_id)
            se.append(entropy)
            emb.append(embedding)
    vectors = np.asarray(emb, dtype=np.float64)
    vectors /= np.linalg.norm(vectors, axis=1)[:, None]

    ranked = sorted(range(len(inst_ids)), key=lambda i: (-se[i], inst_ids[i]))
    t_c = ranked[:_scaled(alpha, budget)]

    rows = []
    for start in range(0, len(t_c), _ROW_BLOCK):
        block = t_c[start:start + _ROW_BLOCK]
        sims = np.clip(vectors[block] @ vectors.T, -1.0, 1.0)
        for own, row in zip(block, sims):
            keep = np.flatnonzero(row > sigma)
            rows.append(np.union1d(keep, [own]))
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([r.size for r in rows], out=indptr[1:])
    indices = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
    picks, coverage = _greedy_cover(
        indptr, indices, len(inst_ids), _scaled(beta, budget))
    t_d = [t_c[p] for p in picks]

    counts: dict[str, int] = {}
    hits: dict[str, list[float]] = {}
    for i in t_d:
        counts[owners[i]] = counts.get(owners[i], 0) + 1
        hits.setdefault(owners[i], []).append(se[i])
    se_sums = {iid: math.fsum(v) for iid, v in hits.items()}
    voted = sorted(counts, key=lambda iid: (-counts[iid], -se_sums[iid], iid))
    take = min(budget, len(images))
    selected = voted[:take]
    if len(selected) < take:
        wse = {image_id: math.fsum(size * entropy
                                   for _, entropy, size, _ in instances)
               for image_id, instances in images if image_id not in counts}
        rest = sorted(wse, key=lambda iid: (-wse[iid], iid))
        selected += rest[:take - len(selected)]
    return {"selected_images": selected, "t_c_size": len(t_c),
            "t_d_size": len(t_d), "coverage": coverage}


def simulate_reference(images, initial, seed: int, rounds: int, budget: int,
                       gamma: float, num_clusters: int, alpha: float,
                       beta: float, sigma: float) -> dict:
    """Expected per-round metrics of the taudis, wse and random strategies.

    ``images`` maps image id to [(instance_id, se, size_ratio, embedding,
    cluster), ...]. Each round the mock predictor scales an instance's
    entropy by gamma ** (labeled instances of its cluster); round r uses the
    seed ``seed + r``.
    """
    results = {}
    for name in ("taudis", "wse", "random"):
        labeled = set(initial)
        metrics = []
        for r in range(rounds):
            unlabeled = sorted(images.keys() - labeled)
            counts = [0] * num_clusters
            for iid in labeled:
                for *_, cluster in images[iid]:
                    counts[cluster] += 1
            pred = {iid: [(inst_id, se * gamma ** counts[cluster], size, emb)
                          for inst_id, se, size, emb, cluster in images[iid]]
                    for iid in unlabeled}
            take = min(budget, len(unlabeled))
            if name == "random":
                selected = random.Random(seed + r).sample(unlabeled, take)
            elif name == "wse":
                wse = {iid: math.fsum(size * se for _, se, size, _ in pred[iid])
                       for iid in unlabeled}
                selected = sorted(unlabeled, key=lambda i: (-wse[i], i))[:take]
            else:
                selected = reference_selection(
                    [(iid, pred[iid]) for iid in unlabeled], budget, alpha,
                    beta, sigma)["selected_images"]
            labeled.update(selected)
            remaining = [se for iid in unlabeled if iid not in labeled
                         for _, se, _, _ in pred[iid]]
            covered = {inst[4] for iid in labeled for inst in images[iid]}
            chosen = np.asarray([inst[3] for iid in selected
                                 for inst in images[iid]], dtype=np.float64)
            redundancy = 0.0
            if len(chosen) > 1:
                chosen /= np.linalg.norm(chosen, axis=1)[:, None]
                sims = chosen @ chosen.T
                n = len(chosen)
                redundancy = float((sims.sum() - np.trace(sims)) / (n * (n - 1)))
            metrics.append({
                "round_index": r, "cluster_coverage": len(covered) / num_clusters,
                "redundancy": redundancy,
                "mean_pool_uncertainty": (math.fsum(remaining) / len(remaining)
                                          if remaining else 0.0),
                "num_selected": len(selected), "labeled_total": len(labeled)})
        results[name] = metrics
    return results
