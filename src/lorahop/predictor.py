"""Two-hidden-layer dense network (width 10, softmax head) for channel prediction.

Pure numpy: forward pass, cross-entropy + L1 training with Adam, and two
deployable exports (a compact little-endian flat binary and a C byte-array
header).  Parameters are stored as float32 so the flat export round-trips
bit-exactly; arithmetic runs in float64.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass

import numpy as np

HIDDEN_WIDTH = 10
FLAT_MAGIC = b"FHOP"
FLAT_VERSION = 1
_FLAT_HEADER = struct.Struct("<4sBII")


class ModelFormatError(ValueError):
    pass


@dataclass
class FcnnModel:
    w1: np.ndarray   # (input_dim, 10)
    b1: np.ndarray
    w2: np.ndarray   # (10, 10)
    b2: np.ndarray
    w3: np.ndarray   # (10, F)
    b3: np.ndarray
    l1_lambda: float = 1e-4

    @property
    def input_dim(self):
        return self.w1.shape[0]

    @property
    def num_channels(self):
        return self.w3.shape[1]

    def params(self):
        return [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3]

    def set_params(self, params):
        self.w1, self.b1, self.w2, self.b2, self.w3, self.b3 = \
            [np.asarray(p, dtype=np.float32) for p in params]


@dataclass
class TrainReport:
    train_loss: list
    val_loss: list
    val_accuracy: list
    test_accuracy: float
    split_sizes: tuple


def _param_shapes(input_dim, num_channels):
    """Shapes of (w1, b1, w2, b2, w3, b3): the layer order, and the flat export's order."""
    return [(input_dim, HIDDEN_WIDTH), (HIDDEN_WIDTH,),
            (HIDDEN_WIDTH, HIDDEN_WIDTH), (HIDDEN_WIDTH,),
            (HIDDEN_WIDTH, num_channels), (num_channels,)]


def _views(flat, shapes):
    """Consecutive views into a flat vector, one per shape."""
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    return [part.reshape(shape) for part, shape in zip(np.split(flat, ends[:-1]), shapes)]


def init_model(input_dim, num_channels, seed=0, l1_lambda=1e-4):
    """Seeded uniform fan-in/fan-out initialization, zero biases."""
    if input_dim < 1:
        raise ValueError("input_dim must be positive")
    if num_channels < 2:
        raise ValueError("need at least two output channels")
    rng = np.random.default_rng(seed)
    params = []
    for shape in _param_shapes(input_dim, num_channels):
        if len(shape) == 2:   # weights, drawn in layer order
            bound = np.sqrt(6.0 / sum(shape))
            params.append(rng.uniform(-bound, bound, size=shape).astype(np.float32))
        else:
            params.append(np.zeros(shape, dtype=np.float32))
    return FcnnModel(*params, l1_lambda=l1_lambda)


def _softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def forward(model, features):
    """Softmax class probabilities for one feature vector or a batch."""
    x = np.asarray(features, dtype=np.float64)
    squeeze = x.ndim == 1
    x = np.atleast_2d(x)
    if x.shape[1] != model.input_dim:
        raise ValueError(f"expected {model.input_dim} features, got {x.shape[1]}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite input features")
    h1 = np.maximum(x @ model.w1.astype(np.float64) + model.b1, 0.0)
    h2 = np.maximum(h1 @ model.w2.astype(np.float64) + model.b2, 0.0)
    probs = _softmax(h2 @ model.w3.astype(np.float64) + model.b3)
    return probs[0] if squeeze else probs


def loss_and_grads(model, x, labels, params=None):
    """Mean cross-entropy plus L1 penalty; analytic gradients via backprop."""
    if params is None:
        params = [p.astype(np.float64) for p in model.params()]
    w1, b1, w2, b2, w3, b3 = params
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    n = x.shape[0]

    a1 = x @ w1 + b1
    h1 = np.maximum(a1, 0.0)
    a2 = h1 @ w2 + b2
    h2 = np.maximum(a2, 0.0)
    probs = _softmax(h2 @ w3 + b3)
    lam = model.l1_lambda
    ce = -np.log(np.clip(probs[np.arange(n), labels], 1e-300, None)).mean()
    loss = ce + lam * sum(np.abs(w).sum() for w in (w1, w2, w3))

    d_logits = probs.copy()
    d_logits[np.arange(n), labels] -= 1.0
    d_logits /= n
    dw3 = h2.T @ d_logits + lam * np.sign(w3)
    db3 = d_logits.sum(axis=0)
    dh2 = d_logits @ w3.T
    dh2[a2 <= 0] = 0.0
    dw2 = h1.T @ dh2 + lam * np.sign(w2)
    db2 = dh2.sum(axis=0)
    dh1 = dh2 @ w2.T
    dh1[a1 <= 0] = 0.0
    dw1 = x.T @ dh1 + lam * np.sign(w1)
    db1 = dh1.sum(axis=0)
    return loss, [dw1, db1, dw2, db2, dw3, db3]


def _split_indices(n, rng):
    """60/20/20 split, rounded down, remainder to training."""
    order = rng.permutation(n)
    n_val = n // 5
    n_test = n // 5
    n_train = n - n_val - n_test
    return order[:n_train], order[n_train:n_train + n_val], order[n_train + n_val:]


def train(model, rows, epochs=200, batch_size=32, lr=1e-3,
          beta1=0.9, beta2=0.999, eps=1e-8, seed=0):
    """Adam on the training split; deterministic given the seed."""
    if not rows:
        raise ValueError("empty dataset")
    x = np.asarray([r.features for r in rows], dtype=np.float64)
    y = np.asarray([r.label for r in rows], dtype=np.int64)
    if not np.isfinite(x).all():
        raise ValueError("non-finite input features")
    if y.max() >= model.num_channels:
        raise ValueError("label exceeds model output width")
    rng = np.random.default_rng(seed)
    tr, va, te = _split_indices(len(rows), rng)

    # `params` are views into one float64 vector; Adam is element-wise, so it updates the vector
    shapes = _param_shapes(model.input_dim, model.num_channels)
    flat = np.concatenate([p.astype(np.float64).ravel() for p in model.params()])
    params = _views(flat, shapes)
    m = np.zeros_like(flat)
    v = np.zeros_like(flat)
    step = 0
    train_losses, val_losses, val_accs = [], [], []

    for _ in range(epochs):
        order = tr[rng.permutation(len(tr))]
        epoch_loss = 0.0
        for start in range(0, len(order), batch_size):
            batch = order[start:start + batch_size]
            loss, grads = loss_and_grads(model, x[batch], y[batch], params)
            if not np.isfinite(loss):
                raise FloatingPointError(
                    "loss diverged to NaN/inf; lower the learning rate")
            epoch_loss += loss * len(batch)
            step += 1
            grad = np.concatenate([g.ravel() for g in grads])
            m = beta1 * m + (1 - beta1) * grad
            v = beta2 * v + (1 - beta2) * grad * grad
            m_hat = m / (1 - beta1 ** step)
            v_hat = v / (1 - beta2 ** step)
            flat -= lr * m_hat / (np.sqrt(v_hat) + eps)
            # the export is float32: stop before a parameter would be written as inf
            if not np.abs(flat).max() <= np.finfo(np.float32).max:
                raise FloatingPointError(
                    "parameters left the float32 range; lower the learning rate")
        train_losses.append(epoch_loss / len(order))
        vl, _ = loss_and_grads(model, x[va], y[va], params) if len(va) else (float("nan"), None)
        val_losses.append(float(vl))
        if len(va):
            # accuracy of the float32 model that would be exported after this epoch
            exported = FcnnModel(*_views(flat.astype(np.float32), shapes))
            val_accs.append(float((forward(exported, x[va]).argmax(axis=1) == y[va]).mean()))
        else:
            val_accs.append(float("nan"))

    model.set_params(params)
    if len(te):
        test_acc = float((forward(model, x[te]).argmax(axis=1) == y[te]).mean())
    else:
        test_acc = float("nan")
    return TrainReport(train_loss=train_losses, val_loss=val_losses,
                       val_accuracy=val_accs, test_accuracy=test_acc,
                       split_sizes=(len(tr), len(va), len(te)))


def predict_channel(model, window):
    """Argmax channel for a telemetry window; ties go to the lowest index."""
    probs = forward(model, window.snapshot())
    return int(np.argmax(probs))


def export_flat(model):
    """Compact little-endian binary: magic, version, dims, float32 tensors."""
    header = _FLAT_HEADER.pack(FLAT_MAGIC, FLAT_VERSION, model.input_dim, model.num_channels)
    blobs = [np.ascontiguousarray(p, dtype=np.float32).tobytes() for p in model.params()]
    return header + b"".join(blobs)


def import_flat(blob):
    if len(blob) < _FLAT_HEADER.size:
        raise ModelFormatError("truncated header")
    magic, version, input_dim, n_ch = _FLAT_HEADER.unpack_from(blob)
    if magic != FLAT_MAGIC:
        raise ModelFormatError(f"bad magic {magic!r}")
    if version != FLAT_VERSION:
        raise ModelFormatError(f"unsupported version {version}")
    need = flat_size_bytes(input_dim, n_ch)
    if len(blob) != need:
        raise ModelFormatError(f"expected {need} bytes, got {len(blob)}")
    flat = np.frombuffer(blob, dtype="<f4", offset=_FLAT_HEADER.size).copy()
    return FcnnModel(*_views(flat, _param_shapes(input_dim, n_ch)))


def flat_size_bytes(input_dim, num_channels):
    return _FLAT_HEADER.size + 4 * sum(
        math.prod(shape) for shape in _param_shapes(input_dim, num_channels))


_IDENTIFIER = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def export_c_array(model, symbol_name):
    """C header text holding the flat export as an unsigned char array."""
    if not _IDENTIFIER.match(symbol_name or ""):
        raise ValueError(f"invalid C identifier: {symbol_name!r}")
    blob = export_flat(model)
    lines = [f"const unsigned char {symbol_name}[] = {{"]
    for start in range(0, len(blob), 12):
        chunk = blob[start:start + 12]
        lines.append("  " + ", ".join(f"0x{b:02x}" for b in chunk) + ",")
    lines.append("};")
    lines.append(f"const unsigned int {symbol_name}_len = {len(blob)};")
    return "\n".join(lines) + "\n"


def parse_c_array(text):
    """Recover the byte payload from an `export_c_array` header."""
    match = re.search(r"=\s*\{(.*?)\};", text, re.S)
    if not match:
        raise ModelFormatError("no byte array found")
    tokens = [t.strip() for t in match.group(1).replace("\n", " ").split(",") if t.strip()]
    return bytes(int(t, 16) for t in tokens)
