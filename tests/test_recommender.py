import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorahop import recommender as rec
from oracle import cosine


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
    sim = rec.similarity_matrix(m)
    for i in range(8):
        for j in range(8):
            expect = cosine(m[i], m[j])
            if expect is None:
                assert np.isnan(sim[i, j])
            else:
                assert sim[i, j] == pytest.approx(expect)


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


@pytest.mark.parametrize("missing_as_zero", [False, True])
@pytest.mark.parametrize("k", [1, 3, 20, 61])   # 61 is more than the 60 rows
def test_impute_matches_per_cell_reference(k, missing_as_zero):
    for seed in range(3):
        random = np.random.default_rng(seed).integers(1, 6, size=(60, 8)).astype(float)
        for full in (rec.synthetic_ratings(60, 8, seed=seed), random):
            for pct in (10, 30, 50, 70, 85):
                sparse = rec.sparsify(full, pct, seed=[seed, pct])
                filled = rec.impute(sparse, k_neighbors=k, missing_as_zero=missing_as_zero)
                values = _reference_impute_values(sparse, k, missing_as_zero)
                missing = np.isnan(sparse)
                assert np.array_equal(filled[~missing], sparse[~missing])
                expect = np.clip(np.floor(values + 0.5), 1, 5)
                # an exact half rounds by the last bits of the sum: either side is right
                exact_half = np.abs(values - np.floor(values) - 0.5) < 1e-9
                check = missing & ~exact_half
                assert np.array_equal(filled[check], expect[check]), (seed, pct)


def test_impute_exact_half_cell_rounds_by_fixed_numpy_sums():
    # run_study(base_seed=11), sparsity 90, sub-seed 4: ten neighbours at
    # similarity 1.0 and two at 0.976 average exactly 4.5 in exact arithmetic
    sparse = rec.sparsify(rec.synthetic_ratings(500, 20, seed=11), 90, seed=[11, 90, 4])
    value = _reference_impute_values(sparse)[390, 6]
    assert math.isclose(value, 4.5, abs_tol=1e-9)
    assert rec.impute(sparse)[390, 6] == 4


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
    back = rec.load_matrix_csv(path)
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
