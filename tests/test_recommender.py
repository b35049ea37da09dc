import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorahop import recommender as rec


def test_cosine_basic():
    assert rec.cosine([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)
    assert rec.cosine([1, 0], [0, 1]) == pytest.approx(0.0)
    assert rec.cosine([1, 2], [2, 4]) == pytest.approx(1.0)


def test_cosine_common_support_vs_zero_fill():
    x = [5.0, np.nan, 1.0]
    y = [5.0, 3.0, np.nan]
    # common support is just the first coordinate -> perfectly aligned
    assert rec.cosine(x, y) == pytest.approx(1.0)
    zero = rec.cosine(x, y, missing_as_zero=True)
    assert zero == pytest.approx(25.0 / (np.sqrt(26) * np.sqrt(34)))


def test_cosine_undefined_cases():
    assert rec.cosine([np.nan, 1.0], [2.0, np.nan]) is None
    assert rec.cosine([0.0, 0.0], [1.0, 1.0]) is None


def test_similarity_matrix_matches_pairwise():
    rng = np.random.default_rng(4)
    m = rng.integers(1, 6, size=(8, 6)).astype(float)
    m[rng.random((8, 6)) < 0.3] = rec.MISSING
    m[:, 0] = 3.0   # keep every row nonempty
    sim = rec.similarity_matrix(m)
    for i in range(8):
        for j in range(8):
            expect = rec.cosine(m[i], m[j])
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


@pytest.mark.parametrize("k", [0, -1])
def test_impute_rejects_k_below_one(k):
    sp = rec.sparsify(rec.synthetic_ratings(10, 4, seed=3), 20, seed=3)
    with pytest.raises(ValueError):
        rec.impute(sp, k_neighbors=k)
