import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorahop import recommender as rec
from oracle import cosine, stable_order_impute


def test_cosine_basic():
    assert cosine([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)
    assert cosine([1, 0], [0, 1]) == pytest.approx(0.0)
    assert cosine([1, 2], [2, 4]) == pytest.approx(1.0)


def test_cosine_common_support_vs_zero_fill():
    x = [5.0, np.nan, 1.0]
    y = [5.0, 3.0, np.nan]
    # common support is just the first coordinate -> perfectly aligned
    assert cosine(x, y) == pytest.approx(1.0)
    zero = cosine(x, y, missing_as_zero=True)
    assert zero == pytest.approx(25.0 / (np.sqrt(26) * np.sqrt(34)))


def test_cosine_undefined_cases():
    assert cosine([np.nan, 1.0], [2.0, np.nan]) is None
    assert cosine([0.0, 0.0], [1.0, 1.0]) is None


def test_similarity_matrix_matches_pairwise():
    rng = np.random.default_rng(4)
    m = rng.integers(1, 6, size=(8, 6)).astype(float)
    m[rng.random((8, 6)) < 0.3] = rec.MISSING
    m[:, 0] = 3.0   # keep every row nonempty
    for missing_as_zero in (False, True):
        sim = rec.similarity_matrix(m, missing_as_zero=missing_as_zero)
        for i in range(8):
            for j in range(8):
                expect = cosine(m[i], m[j], missing_as_zero=missing_as_zero)
                if expect is None:
                    assert np.isnan(sim[i, j])
                else:
                    assert sim[i, j] == pytest.approx(expect)


@pytest.mark.parametrize("missing_as_zero", [False, True])
def test_similarity_matrix_is_undefined_for_disjoint_support(missing_as_zero):
    m = np.array([[1.0, rec.MISSING], [rec.MISSING, 2.0], [3.0, 4.0]])
    sim = rec.similarity_matrix(m, missing_as_zero=missing_as_zero)
    assert np.isnan(sim[0, 1]) and np.isnan(sim[1, 0])
    assert not np.isnan(sim[[0, 1, 2], [2, 2, 0]]).any()


@pytest.mark.parametrize("missing_as_zero", [False, True])
@pytest.mark.parametrize("n", [5, rec._BLOCK_ROWS - 1, 2 * rec._BLOCK_ROWS + 1])
def test_similarity_matrix_row_blocks_are_bit_equal_to_the_full_matrix(n, missing_as_zero):
    # BLAS may take another kernel for another shape: `impute`'s blocks must not move a bit,
    # the last block partial or the whole matrix one partial block
    for seed in range(2):
        random = np.random.default_rng(seed).integers(1, 6, size=(n, 20)).astype(float)
        for full in (rec.synthetic_ratings(n, 20, seed=seed), random):
            for pct in (0, 50, 90):
                sparse = rec.sparsify(full, pct, seed=[seed, pct])
                whole = rec.similarity_matrix(sparse, missing_as_zero=missing_as_zero)
                for size in (1, 7, rec._BLOCK_ROWS):
                    blocks = [rec.similarity_matrix(sparse, missing_as_zero=missing_as_zero,
                                                    rows=slice(lo, lo + size))
                              for lo in range(0, n, size)]
                    assert np.vstack(blocks).tobytes() == whole.tobytes()


def test_float32_guard_keeps_every_product_below_2_to_the_24():
    # a product sums at most 25 (5 x 5) per column: float32 is exact while that stays below 2**24
    assert 25 * rec._F32_EXACT_COLS < 2**24 <= 25 * (rec._F32_EXACT_COLS + 1)


@pytest.mark.parametrize("missing_as_zero", [False, True])
def test_float32_products_are_byte_equal_to_float64_products(monkeypatch, missing_as_zero):
    """At the guard 0 every column count takes the float64 products: the float32 ones must
    give the same bytes, for the full matrix, row slices and `impute`."""
    def outputs():
        whole = rec.similarity_matrix(sparse, missing_as_zero=missing_as_zero)
        sliced = [rec.similarity_matrix(sparse, missing_as_zero=missing_as_zero,
                                        rows=slice(lo, lo + size))
                  for size in (7, rec._BLOCK_ROWS) for lo in range(0, n, size)]
        return [whole, *sliced, *(rec.impute(sparse, k_neighbors=k,
                                             missing_as_zero=missing_as_zero) for k in (3, 20))]

    # at 400 columns most sums pass 2,048, where a float narrower than float32 stops being exact
    shapes = [(300, 20), (2 * rec._BLOCK_ROWS + 1, 12), (9, 3), (40, 400)]
    for seed, (n, columns) in enumerate(shapes):
        random = np.random.default_rng(seed).integers(1, 6, size=(n, columns)).astype(float)
        for full in (rec.synthetic_ratings(n, columns, seed=seed), random):
            for pct in (0, 50, 60):
                sparse = rec.sparsify(full, pct, seed=[seed, pct])
                float32 = outputs()
                with monkeypatch.context() as m:
                    m.setattr(rec, "_F32_EXACT_COLS", 0)
                    float64 = outputs()
                assert [a.tobytes() for a in float32] == [a.tobytes() for a in float64]


@pytest.mark.parametrize("missing_as_zero", [False, True])
@pytest.mark.parametrize("f32_cols", [rec._F32_EXACT_COLS, 0])   # float32, then float64 products
def test_similarity_is_nan_exactly_where_two_rows_share_no_present_column(
        monkeypatch, f32_cols, missing_as_zero):
    # no common support makes both the product and `denom` 0, and 0/0 is the only NaN
    monkeypatch.setattr(rec, "_F32_EXACT_COLS", f32_cols)
    disjoint = 0
    for seed in range(3):
        full = np.random.default_rng(seed).integers(1, 6, size=(70, 6)).astype(float)
        for pct in (0, 50, 80):
            sparse = rec.sparsify(full, pct, seed=[seed, pct])
            mask = rec.present_mask(sparse).astype(int)
            undefined = (mask @ mask.T) == 0
            disjoint += undefined.sum()
            for rows in (slice(None), slice(0, 7), slice(64, 70)):
                sim = rec.similarity_matrix(sparse, missing_as_zero=missing_as_zero, rows=rows)
                assert np.array_equal(np.isnan(sim), undefined[rows])
    assert disjoint > 1000


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_similarity_matrix_symmetric(seed):
    rng = np.random.default_rng(seed)
    m = rng.integers(1, 6, size=(6, 5)).astype(float)
    m[rng.random((6, 5)) < 0.25] = rec.MISSING
    sim = rec.similarity_matrix(m)
    assert np.allclose(sim, sim.T, equal_nan=True)


def test_sparsify_exact_count_and_row_retention():
    rng = np.random.default_rng(0)
    full = rng.integers(1, 6, size=(30, 10)).astype(float)
    for pct in (10, 50, 85):
        sp = rec.sparsify(full, pct, seed=1)
        assert int(np.isnan(sp).sum()) == (300 * pct) // 100
        assert rec.present_mask(sp).any(axis=1).all()
        present = rec.present_mask(sp)
        assert np.array_equal(sp[present], full[present])


@pytest.mark.parametrize("pct,error", [(True, TypeError), (10.5, TypeError), (10.0, TypeError),
                                       ("10", TypeError), (None, TypeError), (-1, ValueError),
                                       (100, ValueError)])
def test_sparsify_takes_only_an_integer_percentage_in_0_to_99(pct, error):
    full = np.random.default_rng(3).integers(1, 6, size=(10, 4)).astype(float)
    with pytest.raises(error, match="sparsity_pct"):
        rec.sparsify(full, pct, seed=0)
    assert np.array_equal(rec.sparsify(full, np.int64(10), seed=0), rec.sparsify(full, 10, seed=0),
                          equal_nan=True)


def test_sparsify_deterministic():
    full = np.random.default_rng(2).integers(1, 6, size=(20, 8)).astype(float)
    a = rec.sparsify(full, 40, seed=5)
    b = rec.sparsify(full, 40, seed=5)
    assert np.array_equal(a, b, equal_nan=True)
    c = rec.sparsify(full, 40, seed=6)
    assert not np.array_equal(a, c, equal_nan=True)


def _reference_sparsify(full, sparsity_pct, seed):
    """The earlier per-cell sparsify, kept to check the vectorised one."""
    m, n = full.shape
    target = (m * n * sparsity_pct) // 100
    out = full.copy()
    remaining = np.full(m, n)
    removed = 0
    for cell in np.random.default_rng(seed).permutation(m * n):
        if removed == target:
            break
        i, j = divmod(int(cell), n)
        if remaining[i] > 1:
            out[i, j] = rec.MISSING
            remaining[i] -= 1
            removed += 1
    return out


def test_sparsify_matches_per_cell_reference():
    full = np.random.default_rng(8).integers(1, 6, size=(13, 7)).astype(float)
    for pct in range(100):
        if (13 * 7 * pct) // 100 > 13 * 7 - 13:
            with pytest.raises(ValueError, match="empty at least one row"):
                rec.sparsify(full, pct, seed=0)
            continue
        for seed in (0, [4, pct]):
            assert np.array_equal(rec.sparsify(full, pct, seed),
                                  _reference_sparsify(full, pct, seed), equal_nan=True)


@pytest.mark.parametrize("rows", [1 << 16, (1 << 16) + 1])
def test_sparsify_matches_per_cell_reference_on_tall_matrices(rows):
    full = np.full((rows, 2), 3.0)
    for pct in (20, 50):   # 50 takes one cell from every row
        assert np.array_equal(rec.sparsify(full, pct, seed=pct),
                              _reference_sparsify(full, pct, seed=pct), equal_nan=True)


def test_sparsify_rejects_bad_input():
    full = np.ones((3, 2))
    with pytest.raises(ValueError):
        rec.sparsify(full, 70, seed=0)   # would empty a row
    full_nan = full.copy()
    full_nan[0, 0] = rec.MISSING
    with pytest.raises(ValueError):
        rec.sparsify(full_nan, 10, seed=0)


def test_round_half_up():
    assert rec._round_half_up(2.5) == 3
    assert rec._round_half_up(2.49) == 2
    assert rec._round_half_up(3.5) == 4


def test_impute_fills_all_and_clamps():
    rng = np.random.default_rng(7)
    full = rec.synthetic_ratings(40, 8, seed=7)
    sp = rec.sparsify(full, 30, seed=7)
    filled = rec.impute(sp, k_neighbors=5)
    assert not np.isnan(filled).any()
    assert ((filled >= 1) & (filled <= 5)).all()
    assert (filled == np.round(filled)).all()
    # present cells are untouched
    present = rec.present_mask(sp)
    assert np.array_equal(filled[present], sp[present])


def test_impute_recovers_identical_rows():
    # two clones of each archetype row: neighbors fully determine missing cells
    base = np.array([[1, 5, 3, 2], [4, 4, 1, 5]], dtype=float)
    m = np.vstack([base, base, base])
    sp = m.copy()
    sp[0, 1] = rec.MISSING
    sp[3, 2] = rec.MISSING
    filled = rec.impute(sp, k_neighbors=2)
    assert filled[0, 1] == 5
    assert filled[3, 2] == 1


def _reference_impute_values(sparse, k_neighbors=20, missing_as_zero=False):
    """Unrounded cell values of the earlier per-cell impute (NaN at present cells).

    Its numerator is a BLAS dot product, so a value that is exactly a half in
    exact arithmetic may land on either side of it.
    """
    mask = rec.present_mask(sparse)
    sim = rec.similarity_matrix(sparse, missing_as_zero=missing_as_zero)
    np.fill_diagonal(sim, np.nan)
    row_means = np.array([sparse[i, mask[i]].mean() for i in range(sparse.shape[0])])
    values = np.full(sparse.shape, np.nan)
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
            values[i, j] = float(row_means[i]) if value is None else value
    return values


def _assert_impute_matches_reference(sparse, k, missing_as_zero):
    filled = rec.impute(sparse, k_neighbors=k, missing_as_zero=missing_as_zero)
    values = _reference_impute_values(sparse, k, missing_as_zero)
    missing = np.isnan(sparse)
    assert np.array_equal(filled[~missing], sparse[~missing])
    expect = np.clip(np.floor(values + 0.5), 1, 5)
    # an exact half rounds by the last bits of the sum: either side is right
    exact_half = np.abs(values - np.floor(values) - 0.5) < 1e-9
    check = missing & ~exact_half
    assert np.array_equal(filled[check], expect[check])
    return filled


@pytest.mark.parametrize("missing_as_zero", [False, True])
@pytest.mark.parametrize("k", [1, 3, 20, 61])   # 61 is more than the 60 rows
def test_impute_matches_per_cell_reference(k, missing_as_zero):
    for seed in range(3):
        random = np.random.default_rng(seed).integers(1, 6, size=(60, 8)).astype(float)
        for full in (rec.synthetic_ratings(60, 8, seed=seed), random):
            for pct in (10, 30, 50, 70, 85):
                sparse = rec.sparsify(full, pct, seed=[seed, pct])
                _assert_impute_matches_reference(sparse, k, missing_as_zero)


@pytest.mark.parametrize("missing_as_zero", [False, True])
def test_impute_falls_back_to_the_row_mean_when_no_holder_has_a_similarity(missing_as_zero):
    # no two rows share a present column, so every similarity is undefined
    sparse = np.array([[1, np.nan, np.nan],
                       [np.nan, 3, 5],
                       [np.nan, 4, 2]])
    filled = _assert_impute_matches_reference(sparse, 2, missing_as_zero)
    assert filled[0, 1] == filled[0, 2] == 1
    assert (filled[1, 0], filled[2, 0]) == (4, 3)


@pytest.mark.parametrize("missing_as_zero", [False, True])
@pytest.mark.parametrize("k", [1, 2, 5, 10])   # column 1 has 2 holders; 10 is more than the 6 rows
def test_impute_edge_columns_match_per_cell_reference(k, missing_as_zero):
    nan = np.nan
    sparse = np.array([[3, 4, nan, 1],
                       [3, nan, 2, 1],
                       [4, nan, 5, 2],
                       [2, 5, nan, nan],
                       [5, nan, 1, 4],
                       [1, nan, 3, nan]])   # column 0 has no missing cell
    filled = _assert_impute_matches_reference(sparse, k, missing_as_zero)
    assert np.array_equal(filled[:, 0], sparse[:, 0])
    assert not np.isnan(filled).any()


def test_impute_exact_half_cell_rounds_by_fixed_numpy_sums():
    # run_study(base_seed=11), sparsity 90, sub-seed 4: ten neighbours at
    # similarity 1.0 and two at 0.976 average exactly 4.5 in exact arithmetic
    sparse = rec.sparsify(rec.synthetic_ratings(500, 20, seed=11), 90, seed=[11, 90, 4])
    value = _reference_impute_values(sparse)[390, 6]
    assert math.isclose(value, 4.5, abs_tol=1e-9)
    assert rec.impute(sparse)[390, 6] == 4


@pytest.mark.parametrize("extra", [0, 30])   # holders outside the top 3: none, or many
@pytest.mark.parametrize("holders", list(itertools.permutations([1, 2, 3])))
def test_impute_sums_votes_in_rank_order(monkeypatch, holders, extra):
    # in rank order, (0.3*1 + 0.2*5 + 0.1*2) / 0.6 rounds to 3; most other orders give 2
    n = 4 + extra
    sparse = np.full((n, 2), 3.0)
    sparse[0, 1] = rec.MISSING
    sim = np.full((n, n), 0.5)
    sim[0, 4:] = sim[4:, 0] = 0.05
    for row, s, r in zip(holders, (0.3, 0.2, 0.1), (1, 5, 2)):
        sim[0, row] = sim[row, 0] = s
        sparse[row, 1] = r
    monkeypatch.setattr(rec, "similarity_matrix",
                        lambda m, missing_as_zero=False, rows=slice(None): sim[rows].copy())
    assert rec.impute(sparse, k_neighbors=3)[0, 1] == 3


def _assert_impute_is_byte_equal_to_stable_order(sparse, k, missing_as_zero):
    filled = rec.impute(sparse, k_neighbors=k, missing_as_zero=missing_as_zero)
    expect = stable_order_impute(sparse, k_neighbors=k, missing_as_zero=missing_as_zero)
    assert filled.tobytes() == expect.tobytes()


def _ties_cut_by_k(sparse, k, missing_as_zero):
    """Missing cells whose k-th and (k+1)-th best defined holder similarities are equal."""
    mask = rec.present_mask(sparse)
    sim = rec.similarity_matrix(sparse, missing_as_zero=missing_as_zero)
    np.fill_diagonal(sim, np.nan)
    cuts = 0
    for j in range(sparse.shape[1]):
        for i in np.flatnonzero(~mask[:, j]):
            sims = np.sort(sim[i, mask[:, j]])[::-1]
            sims = sims[~np.isnan(sims)]
            cuts += sims.size > k and sims[k - 1] == sims[k]
    return cuts


@pytest.mark.parametrize("missing_as_zero", [False, True])
# the key's row bits grow from 6 to 7 at 65; the last spans three row blocks
@pytest.mark.parametrize("n", [1, 2, 64, 65, 2 * rec._BLOCK_ROWS + 1])
def test_impute_is_byte_equal_to_the_stable_order_reference(n, missing_as_zero):
    for seed in range(3):
        random = np.random.default_rng(seed).integers(1, 6, size=(n, 8)).astype(float)
        for full in (rec.synthetic_ratings(n, 8, seed=seed), random):
            for pct in (0, 30, 60, 85):
                sparse = rec.sparsify(full, pct, seed=[seed, pct])
                for k in (1, 3, 20, n + 1):
                    _assert_impute_is_byte_equal_to_stable_order(sparse, k, missing_as_zero)


@pytest.mark.parametrize("missing_as_zero", [False, True])
def test_impute_keeps_the_tie_order_where_k_cuts_a_group_of_equal_similarities(
        missing_as_zero):
    # ratings 1 and 2 at high sparsity: many rows share one present column with
    # row i, so many holders tie at similarity 1.0 with different ratings
    cuts = 0
    for seed, n in itertools.product(range(4), (65, 2 * rec._BLOCK_ROWS + 1)):
        rng = np.random.default_rng(seed)
        full = rng.integers(1, 3, size=(n, 6)).astype(float)
        for pct in (50, 70, 80):
            sparse = rec.sparsify(full, pct, seed=[seed, pct])
            for k in (1, 2, 5):
                cuts += _ties_cut_by_k(sparse, k, missing_as_zero)
                _assert_impute_is_byte_equal_to_stable_order(sparse, k, missing_as_zero)
    assert cuts > 100


@pytest.mark.parametrize("missing_as_zero", [False, True])
@pytest.mark.parametrize("k", [1, 4, 20])
def test_impute_rows_with_every_similarity_undefined_match_the_stable_order(
        k, missing_as_zero):
    rng = np.random.default_rng(5)
    sparse = rng.integers(1, 6, size=(12, 7)).astype(float)
    sparse[:, 5:] = rec.MISSING
    sparse[:, :5][rng.random((12, 5)) < 0.3] = rec.MISSING
    sparse[:, 0] = 2.0
    sparse[3] = sparse[7] = rec.MISSING
    sparse[3, 5], sparse[7, 6] = 4.0, 1.0   # each alone in its column: no similarity is defined
    sim = rec.similarity_matrix(sparse, missing_as_zero=missing_as_zero)
    np.fill_diagonal(sim, np.nan)
    assert np.isnan(sim[[3, 7]]).all()
    _assert_impute_is_byte_equal_to_stable_order(sparse, k, missing_as_zero)
    filled = rec.impute(sparse, k_neighbors=k, missing_as_zero=missing_as_zero)
    assert (filled[3] == 4).all() and (filled[7] == 1).all()


@pytest.mark.parametrize("missing_as_zero", [False, True])
@pytest.mark.parametrize("pct", [50, 90])   # at 10% a block holds about 256 missing cells
def test_impute_votes_in_slices_at_the_study_shape(pct, missing_as_zero):
    """The study's matrix: a block's missing cells span several vote slices of `_VOTE_CELLS`
    cells, and at 90% some cells have fewer than k holders with a defined similarity."""
    sparse = rec.sparsify(rec.synthetic_ratings(500, 20, seed=0), pct, seed=[0, pct, 0])
    mask = rec.present_mask(sparse)
    assert (~mask[:rec._BLOCK_ROWS]).sum() > rec._VOTE_CELLS
    if pct == 90:
        sim = rec.similarity_matrix(sparse, missing_as_zero=missing_as_zero)
        np.fill_diagonal(sim, np.nan)
        defined = (~np.isnan(sim)).astype(int) @ mask   # [i, j]: holders of j defined for row i
        assert (defined[~mask] < 20).any()
    _assert_impute_is_byte_equal_to_stable_order(sparse, 20, missing_as_zero)


@pytest.mark.parametrize("missing_as_zero", [False, True])
@pytest.mark.parametrize("pct", [10, 50, 90])
def test_impute_is_byte_equal_whatever_the_vote_slice(monkeypatch, pct, missing_as_zero):
    # each cell's weight and weighted sum are row sums over its own k keys: the slicing of
    # the cells cannot move a bit, from one cell a slice to the default
    sparse = rec.sparsify(rec.synthetic_ratings(500, 20, seed=0), pct, seed=[0, pct, 0])
    expect = stable_order_impute(sparse, k_neighbors=20, missing_as_zero=missing_as_zero)
    for cells in (1, 7, rec._VOTE_CELLS):
        with monkeypatch.context() as m:
            m.setattr(rec, "_VOTE_CELLS", cells)
            filled = rec.impute(sparse, missing_as_zero=missing_as_zero)
        assert filled.tobytes() == expect.tobytes()


@pytest.mark.parametrize("n", [1, rec._BLOCK_ROWS, rec._BLOCK_ROWS + 1, 500])
def test_impute_calls_similarity_matrix_once_per_row_block(monkeypatch, n):
    # the bench tracer and the MemoryError test wrap this module attribute
    blocks, similarity_matrix = [], rec.similarity_matrix

    def counted(matrix, missing_as_zero=False, rows=slice(None)):
        blocks.append((rows.start, rows.stop))
        return similarity_matrix(matrix, missing_as_zero=missing_as_zero, rows=rows)

    monkeypatch.setattr(rec, "similarity_matrix", counted)
    sparse = rec.sparsify(rec.synthetic_ratings(n, 6, seed=n), 30, seed=n)
    rec.impute(sparse, k_neighbors=3)
    starts = range(0, n, rec._BLOCK_ROWS)
    assert blocks == [(lo, min(lo + rec._BLOCK_ROWS, n)) for lo in starts]


@pytest.mark.parametrize("pct", [10, 90])
def test_impute_peak_memory_stays_within_that_of_similarity_matrix(pct):
    # the study's matrix: the neighbour keys must not outgrow the similarity pass
    sparse = rec.sparsify(rec.synthetic_ratings(500, 20, seed=0), pct, seed=[0, pct, 0])
    tracemalloc.start()
    try:
        rec.similarity_matrix(sparse)
        _, similarity_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        rec.impute(sparse)
        _, impute_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert impute_peak <= similarity_peak + 64 * 1024


def test_impute_peak_memory_grows_linearly_in_the_rows():
    # row blocks: doubling the rows about doubles the peak, where n x n arrays would quadruple it
    peaks = []
    for n in (256, 512, 1024, 2048):
        sparse = rec.sparsify(rec.synthetic_ratings(n, 20, seed=0), 50, seed=[0, n])
        tracemalloc.start()
        try:
            rec.impute(sparse)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert all(peak <= 2.3 * before for before, peak in zip(peaks, peaks[1:])), peaks


def test_evaluate_confusion():
    truth = np.array([[1.0, 2.0], [3.0, 4.0]])
    imputed = np.array([[1.0, 3.0], [3.0, 4.0]])
    mask = np.array([[True, True], [True, False]])
    conf, per_class = rec.evaluate(truth, imputed, mask)
    assert conf[0, 0] == 1        # true 1 predicted 1
    assert conf[1, 2] == 1        # true 2 predicted 3
    assert conf[2, 2] == 1
    assert per_class[0] == 1.0
    assert per_class[1] == 0.0
    assert np.isnan(per_class[3])


def test_evaluate_rejects_ratings_outside_one_to_five():
    mask = np.ones((1, 2), dtype=bool)
    with pytest.raises(ValueError):
        rec.evaluate([[0.0, 3.0]], [[5.0, 3.0]], mask)   # must not wrap to class 5
    with pytest.raises(ValueError):
        rec.evaluate([[1.0, 3.0]], [[6.0, 3.0]], mask)
    with pytest.raises(ValueError):
        rec.evaluate([[1.0, 3.0]], [[np.nan, 3.0]], mask)
    with pytest.raises(ValueError):
        rec.evaluate([[2.5, 3.0]], [[2.0, 3.0]], mask)
    conf, _ = rec.evaluate([[0.0, 3.0]], [[5.0, 3.0]], np.array([[False, True]]))
    assert conf.sum() == conf[2, 2] == 1   # unmasked cells are not checked


@pytest.mark.parametrize("matrix", [[], [[]], [1.0, 2.0], [[[1.0]]]])
def test_check_matrix_rejects_non_2d_or_empty(matrix):
    with pytest.raises(ValueError, match="2-D and non-empty"):
        rec.check_matrix(matrix)


def test_synthetic_ratings_properties():
    m = rec.synthetic_ratings(500, 20, seed=0)
    assert m.shape == (500, 20)
    assert not np.isnan(m).any()
    assert set(np.unique(m)) <= {1.0, 2.0, 3.0, 4.0, 5.0}
    assert set(np.unique(m)) == {1.0, 2.0, 3.0, 4.0, 5.0}
    again = rec.synthetic_ratings(500, 20, seed=0)
    assert np.array_equal(m, again)


def test_csv_roundtrip(tmp_path):
    m = rec.synthetic_ratings(15, 6, seed=3)
    sp = rec.sparsify(m, 25, seed=3)
    path = tmp_path / "m.csv"
    rec.save_matrix_csv(sp, path)
    back = rec.load_matrix_csv(path.read_bytes())
    assert np.array_equal(sp, back, equal_nan=True)


def test_run_study_shape():
    report = rec.run_study(num_soils=60, num_plants=10, sparsities=(10, 30),
                           num_seeds=2, k_neighbors=5, base_seed=1)
    assert [e["sparsity_pct"] for e in report["sparsities"]] == [10, 30]
    for entry in report["sparsities"]:
        assert len(entry["per_class_accuracy"]) == 5
        assert np.asarray(entry["confusion"]).shape == (5, 5)
        assert len(entry["per_seed_accuracy"]) == 2
        assert 0.0 <= entry["mean_accuracy"] <= 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_study_reports_a_class_no_seed_removed_as_none():
    # one soil: at 10% sparsity no seed removes a cell rated 1
    report = rec.run_study(num_soils=1)
    assert report["sparsities"][0]["per_class_accuracy"] == [None, 0.0, 1.0, 0.0, 0.0]


@pytest.mark.parametrize("k", [0, -1])
def test_impute_rejects_k_below_one(k):
    sp = rec.sparsify(rec.synthetic_ratings(10, 4, seed=3), 20, seed=3)
    with pytest.raises(ValueError):
        rec.impute(sp, k_neighbors=k)


@pytest.mark.parametrize("missing_as_zero", [False, True])
@pytest.mark.parametrize("n", [257, 300])
def test_impute_int64_keys_are_byte_equal_to_int32_keys(monkeypatch, n, missing_as_zero):
    """Above `_INT32_KEY_ROWS` rows `impute` keeps its neighbour keys as int64.  Forced on
    the 300 x 12 matrix of the CLI pins and on 257 rows, that path writes the bytes of the
    int32 path and of the stable-order reference."""
    sparse = rec.sparsify(rec.synthetic_ratings(n, 12, seed=5), 60, seed=5)
    for k in (3, 20):
        int32 = rec.impute(sparse, k_neighbors=k, missing_as_zero=missing_as_zero)
        with monkeypatch.context() as m:
            m.setattr(rec, "_INT32_KEY_ROWS", 0)
            int64 = rec.impute(sparse, k_neighbors=k, missing_as_zero=missing_as_zero)
        expect = stable_order_impute(sparse, k_neighbors=k, missing_as_zero=missing_as_zero)
        assert int64.tobytes() == int32.tobytes() == expect.tobytes()
