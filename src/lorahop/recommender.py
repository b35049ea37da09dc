"""Collaborative-filtering study: sparsify a ratings matrix, impute missing
cells from cosine-similar rows, and score the result with confusion matrices.

Ratings live in a float ndarray with NaN as the MISSING sentinel; present
entries are integers in [1, 5].  Cosine similarity is computed over the
coordinates both rows have present (set `missing_as_zero=True` for the literal
zero-filled alternative).
"""

from __future__ import annotations

import math

import numpy as np

MISSING = np.nan
RATING_MIN, RATING_MAX = 1, 5


def present_mask(matrix):
    return ~np.isnan(matrix)


def check_matrix(matrix):
    m = np.asarray(matrix, dtype=np.float64)
    vals = m[present_mask(m)]
    if vals.size and ((vals < RATING_MIN) | (vals > RATING_MAX) | (vals != np.round(vals))).any():
        raise ValueError("present ratings must be integers in [1, 5]")
    return m


def sparsity(matrix):
    return float(np.isnan(matrix).mean())


def cosine(x, y, missing_as_zero=False):
    """Cosine similarity of two rating rows; None when undefined."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError("rows must have equal length")
    if missing_as_zero:
        xv = np.nan_to_num(x)
        yv = np.nan_to_num(y)
    else:
        common = present_mask(x) & present_mask(y)
        if not common.any():
            return None
        xv = x[common]
        yv = y[common]
    nx = np.linalg.norm(xv)
    ny = np.linalg.norm(yv)
    if nx == 0.0 or ny == 0.0:
        return None
    return float(np.dot(xv, yv) / (nx * ny))


def similarity_matrix(matrix, missing_as_zero=False):
    """Pairwise row similarities; NaN where undefined.  Vectorized."""
    m = np.asarray(matrix, dtype=np.float64)
    mask = present_mask(m).astype(np.float64)
    z = np.nan_to_num(m)
    num = z @ z.T
    if missing_as_zero:
        norms = np.linalg.norm(z, axis=1)
        denom = np.outer(norms, norms)
    else:
        sq = z * z
        nx = sq @ mask.T          # |x|^2 over the common support with each y
        denom = np.sqrt(nx * nx.T)
    overlap = mask @ mask.T
    with np.errstate(invalid="ignore", divide="ignore"):
        sim = num / denom
    sim[(denom == 0) | (overlap == 0)] = np.nan
    return sim


def sparsify(full, sparsity_pct, seed):
    """Remove exactly floor(m*n*pct/100) random cells, keeping every row nonempty."""
    full = check_matrix(full)
    if np.isnan(full).any():
        raise ValueError("input matrix must be complete")
    if not 0 <= sparsity_pct <= 99:
        raise ValueError("sparsity_pct must be in 0..99")
    m, n = full.shape
    target = (m * n * sparsity_pct) // 100
    if target > m * n - m:
        raise ValueError("requested sparsity would empty at least one row")
    rng = np.random.default_rng(seed)
    out = full.copy()
    remaining = np.full(m, n)
    removed = 0
    for cell in rng.permutation(m * n):
        if removed == target:
            break
        i, j = divmod(int(cell), n)
        if remaining[i] > 1:
            out[i, j] = MISSING
            remaining[i] -= 1
            removed += 1
    return out


def _round_half_up(v):
    return math.floor(v + 0.5)


def impute(sparse, k_neighbors=20, missing_as_zero=False):
    """Fill missing cells with similarity-weighted neighbor averages.

    Neighbors for cell (i, j): rows with column j present and a defined
    similarity to row i; the k most similar vote with weight = similarity.
    Degenerate cells fall back to the rounded row mean.
    """
    if k_neighbors < 1:
        raise ValueError("k_neighbors must be at least 1")
    sparse = check_matrix(sparse)
    mask = present_mask(sparse)
    if not mask.any(axis=1).all():
        raise ValueError("every row needs at least one present rating")
    sim = similarity_matrix(sparse, missing_as_zero=missing_as_zero)
    np.fill_diagonal(sim, np.nan)
    row_means = np.array([sparse[i, mask[i]].mean() for i in range(sparse.shape[0])])

    out = sparse.copy()
    for j in range(sparse.shape[1]):
        holders = np.nonzero(mask[:, j])[0]
        for i in np.nonzero(~mask[:, j])[0]:
            sims = sim[i, holders]
            valid = ~np.isnan(sims)
            cand_rows = holders[valid]
            cand_sims = sims[valid]
            value = None
            if cand_rows.size:
                top = np.lexsort((cand_rows, -cand_sims))[:k_neighbors]
                weight = cand_sims[top].sum()
                if weight > 0:
                    value = float(np.dot(cand_sims[top], sparse[cand_rows[top], j]) / weight)
            if value is None:
                value = float(row_means[i])
            out[i, j] = min(max(_round_half_up(value), RATING_MIN), RATING_MAX)
    return out


def evaluate(full_truth, imputed, mask):
    """Confusion matrix over masked (removed) cells; rows = truth, cols = predicted."""
    full_truth = np.asarray(full_truth, dtype=np.float64)
    imputed = np.asarray(imputed, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if not (full_truth.shape == imputed.shape == mask.shape):
        raise ValueError("shape mismatch")
    confusion = np.zeros((5, 5), dtype=np.int64)
    for t, p in zip(full_truth[mask].astype(int), imputed[mask].astype(int)):
        confusion[t - 1, p - 1] += 1
    row_sums = confusion.sum(axis=1)
    with np.errstate(invalid="ignore"):
        per_class = np.where(row_sums > 0, np.diag(confusion) / np.maximum(row_sums, 1), np.nan)
    return confusion, per_class


def rating_distribution(matrix):
    """Histogram of present ratings over values 1..5."""
    m = np.asarray(matrix, dtype=np.float64)
    vals = m[present_mask(m)].astype(int)
    return np.bincount(vals, minlength=6)[1:6]


def synthetic_ratings(num_soils=500, num_plants=20, seed=0, archetypes=5, noise_prob=0.08):
    """Low-rank synthetic soils-by-plants ratings matrix.

    Soils belong to archetypes sharing a plant rating profile; a small fraction
    of cells get a +/-1 perturbation.  Guarantees every rating value 1..5
    appears in the profiles.
    """
    rng = np.random.default_rng(seed)
    profiles = rng.integers(RATING_MIN, RATING_MAX + 1, size=(archetypes, num_plants))
    for v in range(RATING_MIN, RATING_MAX + 1):
        if v not in profiles:
            profiles[rng.integers(archetypes), rng.integers(num_plants)] = v
    clusters = rng.integers(0, archetypes, size=num_soils)
    ratings = profiles[clusters].astype(np.float64)
    flips = rng.random(ratings.shape) < noise_prob
    ratings[flips] += rng.choice([-1.0, 1.0], size=int(flips.sum()))
    return np.clip(ratings, RATING_MIN, RATING_MAX)


def run_study(num_soils=500, num_plants=20, sparsities=(10, 30, 50, 70, 90),
              num_seeds=5, k_neighbors=20, base_seed=0, missing_as_zero=False):
    """Full sparsity sweep: returns per-sparsity confusion and accuracy stats."""
    full = synthetic_ratings(num_soils, num_plants, seed=base_seed)
    report = {"num_soils": num_soils, "num_plants": num_plants,
              "k_neighbors": k_neighbors, "base_seed": base_seed,
              "distribution": rating_distribution(full).tolist(),
              "sparsities": []}
    for pct in sparsities:
        confusions = np.zeros((5, 5), dtype=np.int64)
        per_seed_acc = []
        per_class_acc = []
        for s in range(num_seeds):
            sparse = sparsify(full, pct, seed=[base_seed, pct, s])
            imputed = impute(sparse, k_neighbors=k_neighbors,
                             missing_as_zero=missing_as_zero)
            removed = np.isnan(sparse)
            confusion, per_class = evaluate(full, imputed, removed)
            confusions += confusion
            per_seed_acc.append(float(np.diag(confusion).sum() / confusion.sum()))
            per_class_acc.append(per_class)
        mean_per_class = np.nanmean(np.vstack(per_class_acc), axis=0)
        report["sparsities"].append({
            "sparsity_pct": pct,
            "confusion": confusions.tolist(),
            "mean_accuracy": float(np.mean(per_seed_acc)),
            "per_seed_accuracy": per_seed_acc,
            "per_class_accuracy": [None if np.isnan(v) else float(v) for v in mean_per_class],
        })
    return report


def save_matrix_csv(matrix, path):
    with open(path, "w") as fh:
        for row in np.asarray(matrix, dtype=np.float64):
            fh.write(",".join("" if np.isnan(v) else str(int(v)) for v in row) + "\n")


def load_matrix_csv(path):
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line and not rows:
                continue
            rows.append([MISSING if cell == "" else float(cell) for cell in line.split(",")])
    return check_matrix(np.asarray(rows, dtype=np.float64))
