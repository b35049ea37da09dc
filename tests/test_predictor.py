import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorahop import predictor, telemetry
from lorahop.telemetry import Dataset
from oracle import parse_c_array

PARAM_NAMES = ["w1", "b1", "w2", "b2", "w3", "b3"]


def dataset_of(pairs):
    """A telemetry.Dataset from (features, label) pairs; `train` reads only the arrays."""
    features, labels = zip(*pairs)
    return Dataset(np.array(features, dtype=np.float64), np.array(labels, dtype=np.int64),
                   ts=1, num_freqs=max(labels) + 1)


def numeric_grad_worst_error(model, x, y, eps=1e-3):
    params = [p.astype(np.float64) for p in model.params()]
    _, grads = predictor.loss_and_grads(model, x, y, params)
    worst = 0.0
    for p, g in zip(params, grads):
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            lp, _ = predictor.loss_and_grads(model, x, y, params)
            flat[idx] = orig - eps
            lm, _ = predictor.loss_and_grads(model, x, y, params)
            flat[idx] = orig
            num = (lp - lm) / (2 * eps)
            worst = max(worst, abs(num - gflat[idx]) / max(abs(num), abs(gflat[idx]), 1e-8))
    return worst


def test_init_is_seeded_and_shaped():
    a = predictor.init_model(12, 4, seed=9)
    b = predictor.init_model(12, 4, seed=9)
    assert all(np.array_equal(p, q) for p, q in zip(a.params(), b.params()))
    assert a.w1.shape == (12, 10) and a.w2.shape == (10, 10) and a.w3.shape == (10, 4)
    assert all(p.dtype == np.float32 for p in a.params())
    with pytest.raises(ValueError):
        predictor.init_model(12, 1)


def test_forward_probabilities():
    m = predictor.init_model(6, 3, seed=0)
    x = np.random.default_rng(1).normal(size=(5, 6))
    probs = predictor.forward(m, x)
    assert probs.shape == (5, 3)
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert (probs >= 0).all()
    single = predictor.forward(m, x[0])
    assert single.shape == (3,)
    with pytest.raises(ValueError):
        predictor.forward(m, np.full(6, np.nan))
    with pytest.raises(ValueError):
        predictor.forward(m, np.zeros(7))


def test_gradient_check_cross_entropy():
    m = predictor.init_model(16, 3, seed=5, l1_lambda=0.0)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(8, 16))
    y = rng.integers(0, 3, size=8)
    assert numeric_grad_worst_error(m, x, y) < 1e-4


def test_l1_gradient_away_from_kinks():
    # check the penalty term only on weights safely away from zero
    m = predictor.init_model(8, 3, seed=2, l1_lambda=1e-2)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 8))
    y = rng.integers(0, 3, size=4)
    params = [p.astype(np.float64) for p in m.params()]
    _, grads = predictor.loss_and_grads(m, x, y, params)
    m0 = predictor.FcnnModel(*[p.astype(np.float32) for p in params], l1_lambda=0.0)
    _, grads0 = predictor.loss_and_grads(m0, x, y, params)
    for p, g, g0 in zip(params, grads, grads0):
        if p.ndim == 2:   # weights carry the penalty, biases do not
            far = np.abs(p) > 0.05
            assert np.allclose((g - g0)[far], 1e-2 * np.sign(p)[far])


def reference_loss_and_grads(model, x, labels, params):
    """The backward pass with a new array for every intermediate and gradient: the
    arithmetic `loss_and_grads` must match bit for bit."""
    w1, b1, w2, b2, w3, b3 = params
    n, lam = len(x), model.l1_lambda
    a1 = x @ w1 + b1
    h1 = np.maximum(a1, 0.0)
    a2 = h1 @ w2 + b2
    h2 = np.maximum(a2, 0.0)
    logits = h2 @ w3 + b3
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    ce = -np.log(np.clip(probs[np.arange(n), labels], 1e-300, None)).mean()
    loss = ce + lam * sum(np.abs(w).sum() for w in (w1, w2, w3))
    d_logits = probs.copy()
    d_logits[np.arange(n), labels] -= 1.0
    d_logits /= n
    dh2 = d_logits @ w3.T
    dh2[a2 <= 0] = 0.0
    dh1 = dh2 @ w2.T
    dh1[a1 <= 0] = 0.0
    return loss, [x.T @ dh1 + lam * np.sign(w1), dh1.sum(axis=0),
                  h1.T @ dh2 + lam * np.sign(w2), dh2.sum(axis=0),
                  h2.T @ d_logits + lam * np.sign(w3), d_logits.sum(axis=0)]


@pytest.mark.parametrize("n", [1, 32, 1000])
def test_loss_and_grads_paths_are_bit_equal(n):
    rng = np.random.default_rng(n)
    model = predictor.init_model(40, 3, seed=n)
    x = rng.normal(size=(n, 40))
    y = rng.integers(0, 3, size=n)
    params = [p.astype(np.float64) for p in model.params()]
    want_loss, want = reference_loss_and_grads(model, x, y, params)
    loss, grads = predictor.loss_and_grads(model, x, y, params)
    # `out` views of one NaN-filled vector: every element must be written
    flat = np.full(sum(p.size for p in params), np.nan)
    views = predictor._views(flat, [p.shape for p in params])
    out_loss, out_grads = predictor.loss_and_grads(model, x, y, params, out=views)
    assert len(out_grads) == 6 and all(g is view for g, view in zip(out_grads, views))
    only_loss, no_grads = predictor.loss_and_grads(model, x, y, params, grads=False)
    assert no_grads is None
    assert loss == out_loss == only_loss == want_loss
    for got in (grads, out_grads):
        assert all(g.dtype == np.float64 and g.tobytes() == w.tobytes()
                   for g, w in zip(got, want))


def test_training_learns_separable_data():
    rng = np.random.default_rng(0)
    pairs = []
    for _ in range(600):
        label = int(rng.integers(0, 3))
        center = np.zeros(6)
        center[label] = 2.0
        pairs.append((center + rng.normal(0, 0.3, 6), label))
    rows = dataset_of(pairs)
    m = predictor.init_model(6, 3, seed=1)
    report = predictor.train(m, rows, epochs=60, seed=1)
    assert report.test_accuracy > 0.9
    assert report.train_loss[-1] < report.train_loss[0]
    assert report.split_sizes == (360, 120, 120)


def test_training_deterministic():
    rng = np.random.default_rng(5)
    rows = dataset_of((rng.normal(size=4), int(rng.integers(0, 2))) for _ in range(100))
    m1 = predictor.init_model(4, 2, seed=7)
    r1 = predictor.train(m1, rows, epochs=5, seed=7)
    m2 = predictor.init_model(4, 2, seed=7)
    r2 = predictor.train(m2, rows, epochs=5, seed=7)
    assert r1.train_loss == r2.train_loss
    assert all(np.array_equal(p, q) for p, q in zip(m1.params(), m2.params()))


def test_zero_epochs_leaves_model_unchanged():
    rng = np.random.default_rng(5)
    rows = dataset_of((rng.normal(size=4), 0) for _ in range(50))
    m = predictor.init_model(4, 2, seed=3)
    before = [p.copy() for p in m.params()]
    predictor.train(m, rows, epochs=0, seed=0)
    assert all(np.array_equal(p, q) for p, q in zip(before, m.params()))


def test_predict_channel_uses_window():
    m = predictor.init_model(telemetry.TelemetryWindow.feature_dim(2, 3), 3, seed=0)
    w = telemetry.TelemetryWindow(ts=2, num_freqs=3)
    choice = predictor.predict_channel(m, w)
    assert choice in (0, 1, 2)
    probs = predictor.forward(m, w.snapshot())
    assert choice == int(np.argmax(probs))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 9), st.integers(1, 40))
def test_flat_roundtrip_bit_identical(seed, num_channels, input_dim):
    m = predictor.init_model(input_dim, num_channels, seed=seed)
    blob = predictor.export_flat(m)
    back = predictor.import_flat(blob)
    assert all(np.array_equal(p, q) for p, q in zip(m.params(), back.params()))
    assert predictor.export_flat(back) == blob
    assert len(blob) == predictor.flat_size_bytes(input_dim, num_channels)


def test_import_flat_rejects_garbage():
    m = predictor.init_model(4, 2, seed=0)
    blob = predictor.export_flat(m)
    with pytest.raises(predictor.ModelFormatError):
        predictor.import_flat(b"XXXX" + blob[4:])
    with pytest.raises(predictor.ModelFormatError):
        predictor.import_flat(blob[:-1])
    with pytest.raises(predictor.ModelFormatError):
        predictor.import_flat(blob + b"\x00")


def test_c_array_roundtrip():
    m = predictor.init_model(10, 3, seed=4)
    blob = predictor.export_flat(m)
    text = predictor.export_c_array(m, "hop_model")
    assert "hop_model" in text and "hop_model_len" in text
    assert parse_c_array(text) == blob
    with pytest.raises(ValueError):
        predictor.export_c_array(m, "bad name")


def test_flat_size_grows_per_channel():
    ts = 8
    sizes = []
    for num_channels in range(2, 10):
        dim = telemetry.TelemetryWindow.feature_dim(ts, num_channels)
        sizes.append(predictor.flat_size_bytes(dim, num_channels))
    deltas = [b - a for a, b in zip(sizes, sizes[1:])]
    # each extra channel adds ts availability inputs and 11 output parameters
    assert all(d == 4 * (ts * 10 + 11) for d in deltas)


def test_train_rejects_non_finite_features():
    pairs = [((0.1 * k, 0.5, 1.0), k % 2) for k in range(20)]
    pairs[7] = ((np.nan, 0.5, 1.0), 1)
    rows = dataset_of(pairs)
    with pytest.raises(ValueError, match="non-finite"):
        predictor.train(predictor.init_model(3, 2, seed=0), rows, epochs=2)


def reference_train(model, rows, epochs, batch_size, lr, seed,
                    beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam kept per tensor, one update per tensor and step, and validation accuracy
    on the float32 cast of the parameters: the loop that `train` must match bit for bit."""
    x, y = rows.features, rows.labels
    rng = np.random.default_rng(seed)
    tr, va, _ = predictor._split_indices(len(rows), rng)
    params = [p.astype(np.float64) for p in model.params()]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    step = 0
    train_losses, val_losses, val_accs = [], [], []
    for _ in range(epochs):
        order = tr[rng.permutation(len(tr))]
        epoch_loss = 0.0
        for start in range(0, len(order), batch_size):
            batch = order[start:start + batch_size]
            loss, grads = predictor.loss_and_grads(model, x[batch], y[batch], params)
            epoch_loss += loss * len(batch)
            step += 1
            for j, g in enumerate(grads):
                m[j] = beta1 * m[j] + (1 - beta1) * g
                v[j] = beta2 * v[j] + (1 - beta2) * g * g
                m_hat = m[j] / (1 - beta1 ** step)
                v_hat = v[j] / (1 - beta2 ** step)
                params[j] = params[j] - lr * m_hat / (np.sqrt(v_hat) + eps)
        train_losses.append(epoch_loss / len(order))
        val_losses.append(float(predictor.loss_and_grads(model, x[va], y[va], params)[0]))
        as_f32 = predictor.FcnnModel(*[p.astype(np.float32) for p in params])
        val_accs.append(float((predictor.forward(as_f32, x[va]).argmax(axis=1) == y[va]).mean()))
    return params, train_losses, val_losses, val_accs


def train_beside_reference(batch_size):
    """Run `train` and `reference_train` on one seeded dataset, assert that they match
    bit for bit, and return the parameters each passed to `loss_and_grads`."""
    rng = np.random.default_rng(8)
    rows = dataset_of((rng.normal(size=6), int(rng.integers(0, 3))) for _ in range(90))
    # the float64 parameters of every step and validation, which the float32 export and
    # the rounded losses could hide a last-bit difference in
    seen = []
    real_loss_and_grads = predictor.loss_and_grads

    def spy(model, x, labels, params, **kwargs):
        seen.append(np.concatenate([p.ravel() for p in params]))
        return real_loss_and_grads(model, x, labels, params, **kwargs)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(predictor, "loss_and_grads", spy)
        params, train_losses, val_losses, val_accs = reference_train(
            predictor.init_model(6, 3, seed=4, l1_lambda=1e-3), rows, epochs=3,
            batch_size=batch_size, lr=0.01, seed=2)
        reference_seen, seen = seen, []
        model = predictor.init_model(6, 3, seed=4, l1_lambda=1e-3)
        report = predictor.train(model, rows, epochs=3, batch_size=batch_size, lr=0.01,
                                 seed=2)
    assert len(seen) == len(reference_seen)
    assert all(np.array_equal(a, b) for a, b in zip(seen, reference_seen))
    assert report.train_loss == train_losses
    assert report.val_loss == val_losses
    assert report.val_accuracy == val_accs
    for got, want in zip(model.params(), params):
        assert got.dtype == np.float32
        assert np.array_equal(got, want.astype(np.float32))
    return seen, reference_seen


def test_train_matches_per_tensor_adam_bit_for_bit():
    seen, reference_seen = train_beside_reference(batch_size=8)
    assert len(seen) == len(reference_seen) == 3 * (54 // 8 + 1 + 1)
    # the edges of slicing batches from the gathered epoch: one row per batch, and one
    # batch larger than the 54-row training split
    seen, reference_seen = train_beside_reference(batch_size=1)
    assert len(seen) == len(reference_seen) == 3 * (54 + 1)
    seen, reference_seen = train_beside_reference(batch_size=60)
    assert len(seen) == len(reference_seen) == 3 * (1 + 1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverging_train_fails_before_overflow_and_leaves_the_model_unchanged():
    rng = np.random.default_rng(5)
    rows = dataset_of((rng.normal(size=4), int(rng.integers(0, 2))) for _ in range(50))
    model = predictor.init_model(4, 2, seed=3)
    arrays = model.params()
    before = [p.copy() for p in arrays]
    with pytest.raises(FloatingPointError, match="float32"):
        predictor.train(model, rows, epochs=3, lr=1e300)
    assert all(p is q for p, q in zip(arrays, model.params()))
    assert all(np.array_equal(p, q) for p, q in zip(before, model.params()))
