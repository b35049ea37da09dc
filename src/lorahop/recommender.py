"""Collaborative-filtering study: sparsify a ratings matrix, impute missing
cells from cosine-similar rows, and score the result with confusion matrices.

Ratings live in a float ndarray with NaN as the MISSING sentinel; present
entries are integers in [1, 5].  Cosine similarity is computed over the
coordinates both rows have present (set `missing_as_zero=True` for the literal
zero-filled alternative).
"""

from __future__ import annotations

import numpy as np

MISSING = np.nan
RATING_MIN, RATING_MAX = 1, 5
_ARCHETYPES = 5       # rating profiles in `synthetic_ratings`
_NOISE_PROB = 0.08    # share of synthetic cells moved by +/-1


def present_mask(matrix):
    return ~np.isnan(matrix)


def _check_ratings(vals, what):
    if ((vals < RATING_MIN) | (vals > RATING_MAX) | (vals != np.round(vals))).any():
        raise ValueError(f"{what} must be integers in [1, 5]")


def check_matrix(matrix):
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"ratings matrix must be 2-D and non-empty, got shape {m.shape}")
    _check_ratings(m[present_mask(m)], "present ratings")
    return m


def similarity_matrix(matrix, missing_as_zero=False):
    """Pairwise cosine similarities of the rows; NaN where undefined."""
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
    perm = np.random.default_rng(seed).permutation(m * n)
    # a cell goes if it is among the first n-1 draws of its row and among the
    # first `target` such cells in draw order
    rank_in_row = np.empty(m * n, dtype=np.intp)
    rank_in_row[np.argsort(perm // n, kind="stable")] = np.arange(m * n) % n
    out = full.copy()
    out.flat[perm[rank_in_row < n - 1][:target]] = MISSING
    return out


def _round_half_up(v):
    return np.floor(v + 0.5)


def impute(sparse, k_neighbors=20, missing_as_zero=False):
    """Fill missing cells with similarity-weighted neighbor averages.

    Neighbors for cell (i, j): rows with column j present and a defined
    similarity to row i, ranked by similarity, highest first, ties to the
    lower row index; the first k vote with weight = similarity.  Each row's
    neighbors are ranked once, then a whole column is filled per step.  The
    weight and the weighted sum are numpy row sums over the k votes in rank
    order, zero-padded, so the result does not depend on the BLAS build.
    Cells with no neighbor or no positive weight fall back to the row mean.
    """
    if k_neighbors < 1:
        raise ValueError("k_neighbors must be at least 1")
    sparse = check_matrix(sparse)
    mask = present_mask(sparse)
    if not mask.any(axis=1).all():
        raise ValueError("every row needs at least one present rating")
    sim = similarity_matrix(sparse, missing_as_zero=missing_as_zero)
    np.fill_diagonal(sim, np.nan)
    row_means = np.nansum(sparse, axis=1) / mask.sum(axis=1)
    n = sparse.shape[0]
    k = min(k_neighbors, n)
    order = np.argsort(-sim, axis=1, kind="stable")     # undefined (NaN) last
    defined = np.count_nonzero(~np.isnan(sim), axis=1)  # leading defined ranks per row

    out = sparse.copy()
    for j in range(sparse.shape[1]):
        missing = np.flatnonzero(~mask[:, j])
        cand = mask[:, j][order[missing]] & (np.arange(n) < defined[missing, None])
        taken = np.cumsum(cand, axis=1, dtype=np.int32)
        row, rank = np.nonzero(cand & (taken <= k))
        slot = taken[row, rank] - 1
        voter = order[missing[row], rank]
        sims, ratings = np.zeros((2, missing.size, k))
        sims[row, slot] = sim[missing[row], voter]
        ratings[row, slot] = sparse[voter, j]
        weight = sims.sum(axis=1)
        value = np.divide((sims * ratings).sum(axis=1), weight,
                          out=row_means[missing], where=weight > 0)
        out[missing, j] = np.clip(_round_half_up(value), RATING_MIN, RATING_MAX)
    return out


def evaluate(full_truth, imputed, mask):
    """Confusion matrix over masked (removed) cells; rows = truth, cols = predicted."""
    full_truth = np.asarray(full_truth, dtype=np.float64)
    imputed = np.asarray(imputed, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if not (full_truth.shape == imputed.shape == mask.shape):
        raise ValueError("shape mismatch")
    truth, pred = full_truth[mask], imputed[mask]
    _check_ratings(truth, "true ratings")
    _check_ratings(pred, "predicted ratings")
    cells = (truth.astype(np.intp) - RATING_MIN) * 5 + (pred.astype(np.intp) - RATING_MIN)
    confusion = np.bincount(cells, minlength=25).reshape(5, 5)
    row_sums = confusion.sum(axis=1)
    with np.errstate(invalid="ignore"):
        per_class = np.where(row_sums > 0, np.diag(confusion) / np.maximum(row_sums, 1), np.nan)
    return confusion, per_class


def rating_distribution(matrix):
    """Histogram of present ratings over values 1..5."""
    m = np.asarray(matrix, dtype=np.float64)
    vals = m[present_mask(m)].astype(int)
    return np.bincount(vals, minlength=6)[1:6]


def synthetic_ratings(num_soils=500, num_plants=20, seed=0):
    """Low-rank synthetic soils-by-plants ratings matrix.

    Soils belong to archetypes sharing a plant rating profile; a small fraction
    of cells get a +/-1 perturbation.  Guarantees every rating value 1..5
    appears in the profiles.
    """
    rng = np.random.default_rng(seed)
    profiles = rng.integers(RATING_MIN, RATING_MAX + 1, size=(_ARCHETYPES, num_plants))
    for v in range(RATING_MIN, RATING_MAX + 1):
        if v not in profiles:
            profiles[rng.integers(_ARCHETYPES), rng.integers(num_plants)] = v
    clusters = rng.integers(0, _ARCHETYPES, size=num_soils)
    ratings = profiles[clusters].astype(np.float64)
    flips = rng.random(ratings.shape) < _NOISE_PROB
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
        per_class_acc = np.vstack(per_class_acc)
        seeds_with_class = np.count_nonzero(~np.isnan(per_class_acc), axis=0)
        mean_per_class = np.divide(np.nansum(per_class_acc, axis=0), seeds_with_class,
                                   out=np.full(5, np.nan), where=seeds_with_class > 0)
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
