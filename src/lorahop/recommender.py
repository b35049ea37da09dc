"""Collaborative-filtering study: sparsify a ratings matrix, impute missing
cells from cosine-similar rows, and score the result with confusion matrices.

Ratings live in a float ndarray with NaN as the MISSING sentinel; present
entries are integers in [1, 5].  Cosine similarity is computed over the
coordinates both rows have present (set `missing_as_zero=True` for the literal
zero-filled alternative).
"""

from __future__ import annotations

import io
import json

import numpy as np

from .core import integers

MISSING = np.nan
RATING_MIN, RATING_MAX = 1, 5
_ARCHETYPES = 5       # rating profiles in `synthetic_ratings`
_NOISE_PROB = 0.08    # share of synthetic cells moved by +/-1
_BLOCK_ROWS = 128     # rows `impute` fills at once: its memory is O(_BLOCK_ROWS x rows)
_INT32_KEY_ROWS = 1 << 15   # rows up to which `impute`'s keys (at most n << bits) fit int32
_F32_EXACT_COLS = ((1 << 24) - 1) // 25   # columns while 25 x columns < 2**24: exact float32 sums


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


def similarity_matrix(matrix, missing_as_zero=False, rows=slice(None)):
    """Cosine similarities of the matrix's `rows` with every row; NaN where undefined.

    Ratings are integers in [1, 5] (`check_matrix`), so each of the three products
    is an integer sum of at most 25 x columns.  While that stays below 2**24, up to
    `_F32_EXACT_COLS` columns, float32 holds every partial sum exactly: the products
    run in float32 and are cast to float64 for the arithmetic that follows.  Past
    the guard they run in float64.  Either way every sum is exact, so a block of
    rows is bit-equal to those rows of the full matrix, whatever BLAS kernel its
    shape takes.
    """
    m = np.asarray(matrix, dtype=np.float64)
    z = np.nan_to_num(m)
    exact = np.float32 if m.shape[1] <= _F32_EXACT_COLS else np.float64
    mask = present_mask(m).astype(exact)
    zx = z.astype(exact)
    sim = (zx[rows] @ zx.T).astype(np.float64)
    if missing_as_zero:
        norms = np.linalg.norm(z, axis=1)
        denom = np.outer(norms[rows], norms) * (mask[rows] @ mask.T > 0)   # 0 for disjoint support
    else:
        sq = zx * zx
        denom = (sq[rows] @ mask.T).astype(np.float64)   # |x|^2 over the support shared with y
        denom *= mask[rows] @ sq.T                       # times |y|^2 over it
        np.sqrt(denom, out=denom)     # 0 (or NaN, from inf * 0) without common support
    with np.errstate(invalid="ignore", divide="ignore"):
        sim /= denom
    sim[denom == 0] = np.nan
    return sim


def check_sparsity(sparsity_pct):
    """The one sparsity rule: an integer percentage (`core.integers`) in 0..99, as an int."""
    pct, = integers("sparsity_pct", (sparsity_pct,))
    if not 0 <= pct <= 99:
        raise ValueError(f"sparsity_pct must be in 0..99, got {pct}")
    return pct


def sparsify(full, sparsity_pct, seed):
    """Remove exactly floor(m*n*pct/100) random cells, keeping every row nonempty."""
    full = check_matrix(full)
    if np.isnan(full).any():
        raise ValueError("input matrix must be complete")
    sparsity_pct = check_sparsity(sparsity_pct)
    m, n = full.shape
    target = (m * n * sparsity_pct) // 100
    if target > m * n - m:
        raise ValueError("requested sparsity would empty at least one row")
    perm = np.random.default_rng(seed).permutation(m * n)
    # a cell goes if it is not the last-drawn cell of its row and is among the
    # first `target` such cells in draw order
    drawn = np.empty_like(perm)
    drawn[perm] = np.arange(m * n)
    keep = np.zeros(m * n, dtype=bool)
    keep[drawn.reshape(m, n).argmax(axis=1) + n * np.arange(m)] = True
    out = full.copy()
    out.flat[perm[~keep[perm]][:target]] = MISSING
    return out


def _round_half_up(v):
    return np.floor(v + 0.5)


def impute(sparse, k_neighbors=20, missing_as_zero=False):
    """Fill missing cells with similarity-weighted neighbor averages.

    Neighbors for cell (i, j): rows with column j present and a defined
    similarity to row i, ranked by similarity, highest first, ties to the
    lower row index; the first k vote with weight = similarity.

    That order is kept as one integer key per pair: key[i, r] = (first << bits)
    | r, where `first` is the place in row i's sorted similarities of the
    first value equal to sim[i, r], and the low `bits` hold r.  Keys are unique
    per row and sort like the order above, whatever order the (unstable) sort
    gave equal values; an undefined similarity gets `never` = n << bits, above
    every defined key, and never votes.  Per column, a partition of the
    holders' keys picks the k best, sorted back into order, into one row of k
    keys per missing cell, padded with `never`; the voter is the key's low bits.
    The cells then vote in slices of `_BLOCK_ROWS`: weight and weighted sum
    are zero-padded numpy row sums over each cell's k keys in that order, so
    the result depends neither on the slicing nor on the BLAS build.  Cells
    with no neighbor or no positive weight take the row mean.

    Rows are filled in blocks of `_BLOCK_ROWS`: each block takes its rows of
    the similarity matrix and their keys, fills its missing cells and drops
    them, so memory grows as `_BLOCK_ROWS` x rows.  A cell reads only its own
    row's similarities, so the blocks change no output byte.
    """
    if k_neighbors < 1:
        raise ValueError("k_neighbors must be at least 1")
    sparse = check_matrix(sparse)
    mask = present_mask(sparse)
    if not mask.any(axis=1).all():
        raise ValueError("every row needs at least one present rating")
    row_means = np.nansum(sparse, axis=1) / mask.sum(axis=1)
    n = sparse.shape[0]
    k = min(k_neighbors, n)
    bits = (n - 1).bit_length()
    low, never = (1 << bits) - 1, n << bits
    itype = np.int32 if n <= _INT32_KEY_ROWS else np.int64
    places = np.arange(n, dtype=itype)
    holders = [np.flatnonzero(column) for column in mask.T]
    out = sparse.copy()
    for lo in range(0, n, _BLOCK_ROWS):
        block = slice(lo, min(lo + _BLOCK_ROWS, n))
        sim = similarity_matrix(sparse, missing_as_zero=missing_as_zero, rows=block)
        b = sim.shape[0]
        sim[np.arange(b), np.arange(lo, lo + b)] = np.nan
        # buffers are dropped as soon as they are used: the live set stays under
        # the peak of similarity_matrix
        undefined = np.isnan(sim)
        vals = np.negative(sim)
        vals[undefined] = np.inf                          # undefined sorts last
        o = np.argsort(vals, axis=1).astype(itype, copy=False)   # ties in any order
        vals.sort(axis=1)
        starts = np.empty((b, n), dtype=bool)             # a sorted value differs from the last
        starts[:, 0] = True
        np.not_equal(vals[:, 1:], vals[:, :-1], out=starts[:, 1:])
        del vals
        first = starts * places                           # its place where it does, else 0
        del starts
        np.maximum.accumulate(first, axis=1, out=first)   # first place of each value
        first <<= bits
        first |= o
        o += places[:b, None] * n                         # flat offsets: b x n fits itype
        key = np.empty_like(first)
        key.reshape(-1)[o] = first
        del o, first
        key[undefined] = never

        # the block's missing cells by column, then row; one row of k keys each
        cols, rows = np.nonzero(~mask[block].T)
        bounds = np.searchsorted(cols, np.arange(sparse.shape[1] + 1)).tolist()
        keys = np.full((rows.size, k), never, dtype=itype)
        for j, (start, end) in enumerate(zip(bounds, bounds[1:])):
            if start == end:
                continue
            column = key.take(rows[start:end], axis=0).take(holders[j], axis=1)
            if column.shape[1] > k:
                column = np.partition(column, k - 1, axis=1)[:, :k]
            column.sort(axis=1)
            keys[start:end, :column.shape[1]] = column
        del key

        for start in range(0, rows.size, _BLOCK_ROWS):
            row, col = rows[start:start + _BLOCK_ROWS], cols[start:start + _BLOCK_ROWS]
            best = keys[start:start + _BLOCK_ROWS]
            voted = best < never
            voter = best & low
            # C-ordered (cells, k) rows: a Fortran-ordered gather changes the bits of the sums
            sims = np.where(voted, np.take(sim, voter + (row * n)[:, None]), 0.0)
            ratings = np.where(voted, sparse[voter, col[:, None]], 0.0)
            weight = sims.sum(axis=1)
            value = np.divide((sims * ratings).sum(axis=1), weight,
                              out=row_means[lo + row], where=weight > 0)
            out[lo + row, col] = np.clip(_round_half_up(value), RATING_MIN, RATING_MAX)
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
    if num_soils < 1 or num_plants < 1:
        raise ValueError(f"need at least 1 soil and 1 plant, got {num_soils} x {num_plants}")
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
    """Full sparsity sweep: returns per-sparsity confusion and accuracy stats.

    A seed whose sparsity removes no cell has no accuracy (null); `mean_accuracy` is the
    mean over the seeds that have one, or null if none has."""
    if num_seeds < 1:
        raise ValueError(f"num_seeds must be at least 1, got {num_seeds}")
    _distinct_sparsities(sparsities)
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
            # null when the sparsity removes no cell: nothing was scored
            cells = confusion.sum()
            per_seed_acc.append(float(np.diag(confusion).sum() / cells) if cells else None)
            per_class_acc.append(per_class)
        per_class_acc = np.vstack(per_class_acc)
        seeds_with_class = np.count_nonzero(~np.isnan(per_class_acc), axis=0)
        mean_per_class = np.divide(np.nansum(per_class_acc, axis=0), seeds_with_class,
                                   out=np.full(5, np.nan), where=seeds_with_class > 0)
        scored = [acc for acc in per_seed_acc if acc is not None]
        report["sparsities"].append({
            "sparsity_pct": pct,
            "confusion": confusions.tolist(),
            "mean_accuracy": float(np.mean(scored)) if scored else None,
            "per_seed_accuracy": per_seed_acc,
            "per_class_accuracy": [None if np.isnan(v) else float(v) for v in mean_per_class],
        })
    return report


def study_to_json(report):
    return json.dumps(report, sort_keys=True)


def _counts(what, cells, shape):
    """`cells` as given, checked to be counts in `shape`: non-negative integers."""
    array = np.array(cells, dtype=object)
    if array.shape != shape or min(integers(what, array.ravel())) < 0:
        raise ValueError(f"{what} must be non-negative integer counts in shape {shape}")
    return cells


def _distinct_sparsities(sparsities):
    """`sparsities` as given, checked to hold no value twice: each names its own figure."""
    if len(set(sparsities)) != len(sparsities):
        raise ValueError(f"sparsities must be distinct, got {list(sparsities)}")
    return sparsities


def confusion_tables(data):
    """The `figdata` tables (file name, header, rows) of a `study_to_json` document's bytes:
    each sparsity's 5x5 confusion matrix, then the rating distribution, cells as given."""
    report = json.loads(data)
    entries = report["sparsities"]
    pcts = _distinct_sparsities([check_sparsity(entry["sparsity_pct"]) for entry in entries])
    tables = [(f"fig_confusion_sparsity{pct}.csv",
               ["true\\pred"] + [str(v) for v in range(RATING_MIN, RATING_MAX + 1)],
               [[t] + row for t, row in enumerate(_counts("confusion", entry["confusion"], (5, 5)),
                                                  start=RATING_MIN)])
              for pct, entry in zip(pcts, entries)]
    return tables + [("fig_rating_distribution.csv", ["rating", "count"],
                      list(enumerate(_counts("distribution", report["distribution"], (5,)),
                                     start=RATING_MIN)))]


def save_matrix_csv(matrix, path):
    with open(path, "w") as fh:
        for row in np.asarray(matrix, dtype=np.float64):
            fh.write(",".join("" if np.isnan(v) else str(int(v)) for v in row) + "\n")


def load_matrix_csv(data):
    """The ratings matrix in a CSV file's bytes (`save_matrix_csv`'s format)."""
    rows = []
    for line in io.StringIO(data.decode(), newline=None):   # any line ending
        line = line.rstrip("\n")
        if not line and not rows:
            continue
        rows.append([MISSING if cell == "" else float(cell) for cell in line.split(",")])
    return check_matrix(np.asarray(rows, dtype=np.float64))
