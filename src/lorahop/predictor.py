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
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


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
    """Row-wise softmax, computed in place: pass a temporary."""
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


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


def loss_and_grads(model, x, labels, params, grads=True, out=None):
    """Mean cross-entropy plus L1 penalty at `params` (the model's six arrays as
    float64); gradients (into `out` if given) or None."""
    w1, b1, w2, b2, w3, b3 = params
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    n = x.shape[0]
    rows = np.arange(n)

    a1 = x @ w1 + b1
    h1 = np.maximum(a1, 0.0)
    a2 = h1 @ w2 + b2
    h2 = np.maximum(a2, 0.0)
    probs = _softmax(h2 @ w3 + b3)
    lam = model.l1_lambda
    ce = -np.log(np.maximum(probs[rows, labels], 1e-300)).sum() / n
    loss = ce + lam * sum(np.abs(w).sum() for w in (w1, w2, w3))
    if not grads:
        return loss, None

    if out is None:
        out = [np.empty(p.shape) for p in params]
    dw1, db1, dw2, db2, dw3, db3 = out
    d_logits = probs
    d_logits[rows, labels] -= 1.0
    d_logits /= n
    np.add(np.matmul(h2.T, d_logits, out=dw3), lam * np.sign(w3), out=dw3)
    d_logits.sum(axis=0, out=db3)
    dh2 = d_logits @ w3.T
    dh2[a2 <= 0] = 0.0
    np.add(np.matmul(h1.T, dh2, out=dw2), lam * np.sign(w2), out=dw2)
    dh2.sum(axis=0, out=db2)
    dh1 = dh2 @ w2.T
    dh1[a1 <= 0] = 0.0
    np.add(np.matmul(x.T, dh1, out=dw1), lam * np.sign(w1), out=dw1)
    dh1.sum(axis=0, out=db1)
    return loss, out


def _split_indices(n, rng):
    """60/20/20 split, rounded down, remainder to training."""
    order = rng.permutation(n)
    n_val = n // 5
    n_test = n // 5
    n_train = n - n_val - n_test
    return order[:n_train], order[n_train:n_train + n_val], order[n_train + n_val:]


def check_train_args(rows, epochs, batch_size=32, lr=1e-3):
    """Raise ValueError unless `train` accepts these; the defaults are `train`'s."""
    if rows < 1:
        raise ValueError("empty dataset")
    if batch_size < 1 or epochs < 0:
        raise ValueError(f"need batch_size >= 1 and epochs >= 0, got {batch_size} and {epochs}")
    if not 0 < lr < math.inf:
        raise ValueError(f"learning rate must be finite and positive, got {lr}")


def train(model, dataset, epochs=200, batch_size=32, lr=1e-3, seed=0):
    """Adam on the training split of a `telemetry.Dataset`; deterministic given the seed."""
    check_train_args(len(dataset), epochs, batch_size, lr)
    x, y = dataset.features, dataset.labels
    if not np.isfinite(x).all():
        raise ValueError("non-finite input features")
    if y.max() >= model.num_channels:
        raise ValueError("label exceeds model output width")
    rng = np.random.default_rng(seed)
    tr, va, te = _split_indices(len(dataset), rng)

    # `params`, `grads`: views into float64 vectors; Adam updates `flat` in place via `s`, `t`
    shapes = _param_shapes(model.input_dim, model.num_channels)
    flat = np.concatenate([p.astype(np.float64).ravel() for p in model.params()])
    params = _views(flat, shapes)
    grad, m, v, s, t = (np.zeros_like(flat) for _ in range(5))
    grads = _views(grad, shapes)
    step = 0
    train_losses, val_losses, val_accs = [], [], []

    for _ in range(epochs):
        order = tr[rng.permutation(len(tr))]
        x_ep, y_ep = x[order], y[order]
        epoch_loss = 0.0
        for start in range(0, len(order), batch_size):
            x_b, y_b = x_ep[start:start + batch_size], y_ep[start:start + batch_size]
            loss, _ = loss_and_grads(model, x_b, y_b, params, out=grads)
            if not np.isfinite(loss):
                raise FloatingPointError(
                    "loss diverged to NaN/inf; lower the learning rate")
            epoch_loss += loss * len(y_b)
            step += 1
            # m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g; flat -= lr*m_hat/(sqrt(v_hat)+eps)
            m *= _ADAM_BETA1
            m += np.multiply(1 - _ADAM_BETA1, grad, out=s)
            v *= _ADAM_BETA2
            v += np.multiply(np.multiply(1 - _ADAM_BETA2, grad, out=s), grad, out=s)
            np.multiply(lr, np.divide(m, 1 - _ADAM_BETA1 ** step, out=s), out=s)
            np.sqrt(np.divide(v, 1 - _ADAM_BETA2 ** step, out=t), out=t)
            t += _ADAM_EPS
            flat -= np.divide(s, t, out=s)
            # the export is float32: stop before a parameter would be written as inf
            if not np.abs(flat, out=t).max() <= np.finfo(np.float32).max:
                raise FloatingPointError(
                    "parameters left the float32 range; lower the learning rate")
        train_losses.append(epoch_loss / len(order))
        vl, _ = (loss_and_grads(model, x[va], y[va], params, grads=False) if len(va)
                 else (float("nan"), None))
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

