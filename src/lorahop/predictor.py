"""Two-hidden-layer dense network (width 10, one logit per channel) for channel prediction.

Pure numpy: forward pass, cross-entropy + L1 training with Adam, and two
deployable exports (a compact little-endian flat binary and a C byte-array
header).  Parameters are stored as float32 so the flat export round-trips
bit-exactly; arithmetic runs in float64.  Softmax appears only in the training
loss.  Inference takes the channel of the largest logit, as a microcontroller
does: softmax is monotone, so that is the most probable channel.
"""

from __future__ import annotations

import functools
import json
import math
import re
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .telemetry import TelemetryWindow

HIDDEN_WIDTH = 10
FLAT_MAGIC = b"FHOP"
FLAT_VERSION = 1
_FLAT_HEADER = struct.Struct("<4sBII")
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8
_F32_MAX = float(np.finfo(np.float32).max)


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
    """Training curves, one entry per epoch.  The report of a stack (`train` on lists) holds
    a list with one value per model in each entry and in `test_accuracy`."""
    train_loss: list
    val_loss: list
    val_accuracy: list
    test_accuracy: float
    split_sizes: tuple

    def to_json(self):
        """The training curves document.  NaN, the figure of a split too small to hold a row
        (under 5 rows), is written as null: the document holds numbers only, so each `NaN`
        json.dumps writes is one of those figures."""
        return json.dumps(asdict(self), sort_keys=True).replace("NaN", "null")


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
    logits -= np.maximum.reduce(logits, axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits, axis=-1, keepdims=True)
    return logits


def forward(model, features):
    """The output layer's logits, one per channel, for one feature vector or a batch, on
    one path: `matmul` takes a vector as one row on the same kernel, so a vector's logits
    have the bits of its row in a batch.  Each layer adds its bias and takes the ReLU in
    place, on the array its `matmul` just made.  `_softmax` of the logits gives the class
    probabilities, which only the training loss reads.

    The model's arrays may be float32, as stored, or float64: the features are
    float64, so every layer computes in float64 either way, with the same bits.
    A float32 model pays numpy's slower mixed-dtype matmul at every layer, so
    a caller that runs one window at a time should convert the model to
    float64 once, as `sim.PredictorHopStrategy` does.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != model.input_dim:
        raise ValueError(f"expected {model.input_dim} features, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite input features")
    h = x @ model.w1
    h += model.b1
    np.maximum(h, 0.0, out=h)
    h = h @ model.w2
    h += model.b2
    np.maximum(h, 0.0, out=h)
    logits = h @ model.w3
    logits += model.b3
    return logits


class ParamStack:
    """The parameters of K models of one shape as one flat float64 vector, for training.

    The vector holds every model's w1, then every model's w2 and w3, then the biases b1, b2
    and b3 the same way.  The weights thus form one contiguous segment at the front, so the
    L1 penalty and its gradient take one call each over all of them; Adam is elementwise and
    does not see the order.  `arrays` are stacked (K, ...) views of the six tensors in layer
    order (w1, b1, w2, b2, w3, b3), and `model(k)` is model k at the vector's values.  The
    vector is a float64 copy of the models' arrays, or `flat`, which the views then share.
    """

    def __init__(self, models, flat=None):
        k = len(models)
        shapes = _param_shapes(models[0].input_dim, models[0].num_channels)
        order = (0, 2, 4, 1, 3, 5)   # w1 w2 w3 b1 b2 b3
        if flat is None:
            flat = np.concatenate([m.params()[i].astype(np.float64).ravel()
                                   for i in order for m in models])
        self.models, self.flat = models, flat
        stacked = dict(zip(order, _views(flat, [(k, *shapes[i]) for i in order])))
        self.arrays = [stacked[i] for i in range(6)]
        weights = self.arrays[0::2]
        self.weights = flat[:sum(w.size for w in weights)]
        # per weight element, its model's L1 weight; per model, its w1, w2, w3 in `weights`
        self.lams = [m.l1_lambda for m in models]
        self.lam = np.concatenate([np.repeat(self.lams, w[0].size) for w in weights])
        starts = np.cumsum([0] + [w.size for w in weights[:2]])
        self.l1_parts = [[slice(start + j * w[0].size, start + (j + 1) * w[0].size)
                          for start, w in zip(starts, weights)] for j in range(k)]

    def like(self, flat):
        """The same models' stack over another vector of this layout."""
        return ParamStack(self.models, flat)

    def model(self, k):
        return FcnnModel(*(a[k] for a in self.arrays))


@functools.lru_cache(maxsize=16)
def _row_starts(k, n, f):
    """(k, n): where each (model, row) of a raveled (k, n, f) stack starts; shared by every
    call, so never written."""
    return np.arange(0, k * n * f, f).reshape(k, n)


def loss_and_grads(params, x, labels, grads=True, out=None):
    """Mean cross-entropy plus L1 penalty of each of the K models in `params` (a
    `ParamStack`), each on its own batch: `x` is (K, b, d) float64 and `labels` (K, b).
    Returns a list of the K losses, and the six stacked gradients (`out.arrays`, if `out`
    is given) or None."""
    w1, b1, w2, b2, w3, b3 = params.arrays
    k, n = labels.shape

    a1 = x @ w1 + b1[:, None]
    h1 = np.maximum(a1, 0.0)
    a2 = h1 @ w2 + b2[:, None]
    h2 = np.maximum(a2, 0.0)
    probs = _softmax(h2 @ w3 + b3[:, None])
    picked = _row_starts(k, n, probs.shape[2]) + labels   # each label's place in `flat_probs`
    flat_probs = probs.reshape(-1)
    log_p = np.log(np.maximum(flat_probs[picked], 1e-300))
    abs_w = np.abs(params.weights)
    # 1-D sums per model: a (K, n) reduction along axis 1 can round another way
    add = np.add.reduce
    losses = [-add(log_p[j]) / n + lam * (add(abs_w[s1]) + add(abs_w[s2]) + add(abs_w[s3]))
              for j, (lam, (s1, s2, s3)) in enumerate(zip(params.lams, params.l1_parts))]
    if not grads:
        return losses, None

    if out is None:
        out = params.like(np.empty_like(params.flat))
    dw1, db1, dw2, db2, dw3, db3 = out.arrays
    flat_probs[picked] -= 1.0   # through the view: probs minus the one-hot labels
    d_logits = probs
    d_logits /= n
    np.matmul(h2.transpose(0, 2, 1), d_logits, out=dw3)
    add(d_logits, axis=1, out=db3)
    dh2 = d_logits @ w3.transpose(0, 2, 1)
    dh2[a2 <= 0] = 0.0
    np.matmul(h1.transpose(0, 2, 1), dh2, out=dw2)
    add(dh2, axis=1, out=db2)
    dh1 = dh2 @ w2.transpose(0, 2, 1)
    dh1[a1 <= 0] = 0.0
    np.matmul(x.transpose(0, 2, 1), dh1, out=dw1)
    add(dh1, axis=1, out=db1)
    penalty = np.sign(params.weights)   # the L1 gradient over the whole weight segment
    penalty *= params.lam
    out.weights += penalty
    return losses, out.arrays


def _split_indices(n, rng):
    """60/20/20 split, rounded down, remainder to training."""
    order = rng.permutation(n)
    n_val = n // 5
    n_test = n // 5
    n_train = n - n_val - n_test
    return order[:n_train], order[n_train:n_train + n_val], order[n_train + n_val:]


def _divergence(losses, params):
    """The error of the lowest-index model that failed this step: its loss is not finite,
    or a parameter in `params` (a `ParamStack`) left the float32 range."""
    for j, loss in enumerate(losses):
        if not math.isfinite(loss):
            return FloatingPointError("loss diverged to NaN/inf; lower the learning rate")
        if not all((np.abs(a[j]) <= _F32_MAX).all() for a in params.arrays):
            return FloatingPointError(
                "parameters left the float32 range; lower the learning rate")
    raise AssertionError("no model failed")


def train(model, dataset, epochs=200, batch_size=32, lr=1e-3, seed=0):
    """Adam on the training split of a `telemetry.Dataset`; deterministic given the seed.

    `model` and `dataset` may also be equal-length lists, the way `forward` takes one vector
    or a batch, and `seed` then a list of the same length, one per model.  The models then
    train in lockstep, one stacked `loss_and_grads` call and one Adam update per step, each
    with the split and batch order of its own seed (of `seed`, if that is one value), so
    each ends as its own `train` would leave it, bit for bit.  The report's per-epoch
    entries and its `test_accuracy` are then lists with one value per model.  If any model
    diverges, every model is left unchanged and the error is that of the lowest-index model
    that failed at the first step where one did.
    """
    single = isinstance(model, FcnnModel)
    models, datasets = ([model], [dataset]) if single else (list(model), list(dataset))
    if not models or len(models) != len(datasets):
        raise ValueError(f"need one dataset per model, got {len(datasets)} for {len(models)}")
    seeds = [seed] if single or not isinstance(seed, (list, tuple)) else list(seed)
    if len(seeds) not in (1, len(models)):
        raise ValueError(f"need one seed per model, got {len(seeds)} for {len(models)}")
    if any(len(ds) < 1 for ds in datasets):
        raise ValueError("empty dataset")
    if batch_size < 1 or epochs < 0:
        raise ValueError(f"need batch_size >= 1 and epochs >= 0, got {batch_size} and {epochs}")
    if not 0 < lr < math.inf:
        raise ValueError(f"learning rate must be finite and positive, got {lr}")
    for mdl in models:
        if not 0 <= mdl.l1_lambda < math.inf:
            raise ValueError(f"l1_lambda must be finite and non-negative, got {mdl.l1_lambda}")
    if len({(len(ds), ds.features.shape[1]) for ds in datasets}) > 1:
        raise ValueError("stacked datasets differ in row count or feature width")
    if len({(mdl.input_dim, mdl.num_channels) for mdl in models}) > 1:
        raise ValueError("stacked models differ in input width or channel count")
    for mdl, ds in zip(models, datasets):
        if not np.isfinite(ds.features).all():
            raise ValueError("non-finite input features")
        if ds.labels.max() >= mdl.num_channels:
            raise ValueError("label exceeds model output width")
    xs = [np.asarray(ds.features, dtype=np.float64) for ds in datasets]
    ys = [np.asarray(ds.labels, dtype=np.intp) for ds in datasets]
    k = len(models)
    rngs = [np.random.default_rng(s) for s in seeds]
    # per model, its split: (k, size) arrays, the rows of one seed repeated if it is shared
    tr, va, te = (np.broadcast_to(np.stack(part), (k, len(part[0])))
                  for part in zip(*(_split_indices(len(ys[0]), rng) for rng in rngs)))

    # Adam updates `params.flat` in place via `s`, `t`; gradients go into `grads.flat`
    params = ParamStack(models)
    grads = params.like(np.zeros_like(params.flat))
    flat, grad = params.flat, grads.flat
    m, v, s, t = (np.zeros_like(flat) for _ in range(4))
    # each epoch gathers every model's labels in its batch order into `y_ep`, and each step
    # gathers every model's batch of features from its own dataset into `x_b`
    n_tr = tr.shape[1]
    x_b = np.empty((k, min(batch_size, n_tr), xs[0].shape[1]))
    y_ep = np.empty((k, n_tr), dtype=np.intp)
    x_va = np.stack([x[rows] for x, rows in zip(xs, va)])
    y_va = np.stack([y[rows] for y, rows in zip(ys, va)])
    step = 0
    train_losses, val_losses, val_accs = [], [], []

    for _ in range(epochs):
        orders = np.broadcast_to(np.stack([rows[rng.permutation(n_tr)]
                                           for rows, rng in zip(tr, rngs)]), (k, n_tr))
        for y, y_out, order in zip(ys, y_ep, orders):
            y.take(order, out=y_out)
        epoch_loss = [0.0] * k
        for start in range(0, n_tr, batch_size):
            batches = orders[:, start:start + batch_size]
            nb = batches.shape[1]
            for x, x_out, batch in zip(xs, x_b, batches):
                x.take(batch, axis=0, out=x_out[:nb])
            loss, _ = loss_and_grads(params, x_b[:, :nb], y_ep[:, start:start + nb], out=grads)
            epoch_loss = [total + value * nb for total, value in zip(epoch_loss, loss)]
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
            if not (all(map(math.isfinite, loss))
                    and np.maximum.reduce(np.abs(flat, out=t)) <= _F32_MAX):
                raise _divergence(loss, params)
        train_losses.append([float(total / n_tr) for total in epoch_loss])
        if va.shape[1]:
            vl, _ = loss_and_grads(params, x_va, y_va, grads=False)
            val_losses.append([float(value) for value in vl])
            # accuracy of the float32 models that would be exported after this epoch
            exported = params.like(flat.astype(np.float32))
            val_accs.append([float((forward(exported.model(j), x_va[j]).argmax(axis=1)
                                    == y_va[j]).mean()) for j in range(k)])
        else:
            val_losses.append([float("nan")] * k)
            val_accs.append([float("nan")] * k)

    test_accs = []
    for j, (mdl, x, y, rows) in enumerate(zip(models, xs, ys, te)):
        mdl.set_params(a[j] for a in params.arrays)
        test_accs.append(float((forward(mdl, x[rows]).argmax(axis=1) == y[rows]).mean())
                         if len(rows) else float("nan"))

    def per_model(values):   # one model's report holds its own values, a stack's their lists
        return values[0] if single else values
    return TrainReport(train_loss=[per_model(e) for e in train_losses],
                       val_loss=[per_model(e) for e in val_losses],
                       val_accuracy=[per_model(e) for e in val_accs],
                       test_accuracy=per_model(test_accs),
                       split_sizes=(n_tr, va.shape[1], te.shape[1]))


def predict_channel(model, window):
    """The channel of the largest logit for a telemetry window; ties go to the lowest
    index."""
    return int(forward(model, window.snapshot()).argmax())


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
    if not np.isfinite(flat).all():
        raise ModelFormatError("non-finite weight")
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


def model_size_tables(ts):
    """The `figdata` table (file name, header, rows) of the flat and C-array export sizes of
    a model over windows of `ts` slots, for 2 to 9 channels (no size depends on a weight)."""
    rows = []
    for n_ch in range(2, 10):
        model = init_model(TelemetryWindow.feature_dim(ts, n_ch), n_ch)
        rows.append([n_ch, len(export_flat(model)),
                     len(export_c_array(model, "hopping_model").encode())])
    return [("fig_model_sizes.csv", ["channels", "flat_bytes", "c_array_bytes"], rows)]
