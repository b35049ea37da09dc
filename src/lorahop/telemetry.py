"""End-node telemetry: sliding windows of channel availability, RSSI and SNR.

Windows feed the channel predictor; a `TelemetryWindow` keeps its window laid
out as the model's input vector, so a snapshot is one copy.
`generate_labeled_dataset` replays a single node against a trace on every
candidate channel per row and labels each row with the channel that realized
the highest RSSI.  It draws every outcome as three arrays, from three
generators: delivery per (row, channel), RSSI and SNR jitter per (row,
channel), and two uniforms per row that pick the channel the window records.
A quarter of the rows record the outcome of a uniformly drawn channel instead
of the label's, lost packets included, so the windows hold losses as a node's
own mistakes put them there at run time.  All windows are then built as one
array, returned as a `Dataset` of feature and label arrays that also records
its window length and channel count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import integers
from .trace import (DEFAULT_BLOCK_LEN, DEFAULT_PAYLOAD_SCHEDULE, DEFAULT_RSSI_JITTER_DB,
                    DEFAULT_SNR_JITTER_DB, RSSI_FLOOR_DBM, SNR_FLOOR_DB)

DEFAULT_WINDOW_SLOTS = 8
RSSI_NORM_DBM = -120.0
SNR_NORM_DB = 10.0
_ROWS_PER_WRITE = 256   # dataset rows `write_dataset` formats and writes at a time
_NORMALIZATION = "v1"   # features of RSSI / RSSI_NORM_DBM and SNR / SNR_NORM_DB
_EXPLORE_P = 0.25   # share of dataset rows whose window slot follows a uniformly drawn channel


class TelemetryWindow:
    """The last `ts` slots of per-frequency availability, RSSI and SNR.

    The window is kept as the model's input vector: ts * F availabilities, then ts
    RSSI values, then ts SNR values, each part oldest first, RSSI and SNR
    normalised.  Slots not recorded yet hold the cold-start values.  `record`
    shifts each part one slot towards the front and writes the new slot at its
    end; `snapshot` copies the vector.
    """

    def __init__(self, ts, num_freqs):
        if ts < 1 or num_freqs < 1:
            raise ValueError("ts and num_freqs must be positive")
        self.ts = int(ts)
        self.num_freqs = int(num_freqs)
        n_avail = self.ts * self.num_freqs
        self._features = f = np.zeros(self.feature_dim(self.ts, self.num_freqs))
        f[n_avail:n_avail + self.ts] = RSSI_FLOOR_DBM / RSSI_NORM_DBM
        f[n_avail + self.ts:] = SNR_FLOOR_DB / SNR_NORM_DB
        # (destination, source) of the two shifts.  RSSI and SNR shift as one run: SNR's
        # oldest value lands in RSSI's newest place, which `record` then writes.
        self._shifts = ((f[:n_avail - self.num_freqs], f[self.num_freqs:n_avail]),
                        (f[n_avail:-1], f[n_avail + 1:]))
        self._new_avail = f[n_avail - self.num_freqs:n_avail]
        self._new_rssi = n_avail + self.ts - 1

    def record(self, availability_vec, rssi, snr):
        vec = availability_vec
        if not (isinstance(vec, np.ndarray) and vec.dtype == np.float64):
            vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.num_freqs,):
            raise ValueError(f"availability vector must have length {self.num_freqs}")
        (avail_to, avail_from), (link_to, link_from) = self._shifts
        avail_to[...] = avail_from
        link_to[...] = link_from
        self._new_avail[...] = vec
        f = self._features
        f[self._new_rssi] = float(rssi) / RSSI_NORM_DBM
        f[-1] = float(snr) / SNR_NORM_DB

    def snapshot(self):
        """The ts*(F+2) features, oldest first, cold-start slots padded: a copy."""
        return self._features.copy()

    @staticmethod
    def feature_dim(ts, num_freqs):
        return ts * (num_freqs + 2)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Labelled windows of `ts` slots over `num_freqs` channels: (n, ts * (num_freqs + 2))
    float64 features and (n,) int64 labels, one row each."""
    features: np.ndarray
    labels: np.ndarray
    ts: int
    num_freqs: int

    def __len__(self):
        return len(self.labels)

    def __eq__(self, other):
        return (isinstance(other, Dataset)
                and (self.ts, self.num_freqs) == (other.ts, other.num_freqs)
                and np.array_equal(self.features, other.features)
                and np.array_equal(self.labels, other.labels))


def generate_labeled_dataset(trace, source, n_rows, seed, ts=DEFAULT_WINDOW_SLOTS):
    """Counterfactual replay: per row, try every channel from the same state.

    Three generators, `default_rng([seed, k])` for k = 0, 1, 2, are read row by row:
    stream 0 gives one uniform per (row, channel) that decides delivery against the
    trace PDR, stream 1 two standard normals per (row, channel), the RSSI jitter then
    the SNR jitter, drawn whether or not the packet was delivered, and stream 2 two
    uniforms per row, u0 and u1.  A lost packet realizes the floor values.  The label
    is the channel of the highest realized RSSI, ties to the lowest index.  The row's
    window slot then records the label's outcome, or, if u0 < `_EXPLORE_P`, the
    outcome of channel int(u1 * F): an exploration row, which puts the losses of
    channels the label avoids into later windows, as a node's own mistakes put them
    into its window at run time.  No draw depends on the window, so all outcomes are
    drawn first and the windows built in one array, and a shorter dataset is a prefix
    of a longer one.  Payload sizes and link jitter follow the trace module's defaults.
    """
    if n_rows <= 0:
        raise ValueError("n_rows must be positive")
    if ts < 1:
        raise ValueError("ts must be positive")
    freqs = trace.frequencies
    if source not in trace.sources:
        raise ValueError(f"trace has no source {source!r}")
    seed, = integers("seed", (seed,))
    if seed < 0:
        raise ValueError("expected non-negative integer")
    num_freqs = len(freqs)
    rows = np.arange(n_rows)
    # (pdr, mean RSSI, mean SNR) per (payload size, channel), for the sizes the rows reach,
    # then per (row, channel): row r sends in block r // DEFAULT_BLOCK_LEN of the schedule
    schedule = DEFAULT_PAYLOAD_SCHEDULE[:(n_rows - 1) // DEFAULT_BLOCK_LEN + 1]
    table = np.array([[(e.pdr, e.mean_rssi, e.mean_snr)
                       for e in (trace.lookup(source, freq, size) for freq in freqs)]
                      for size in schedule])
    block = rows // DEFAULT_BLOCK_LEN % len(DEFAULT_PAYLOAD_SCHEDULE)
    pdr, mean_rssi, mean_snr = np.moveaxis(table[block], -1, 0)

    delivered = np.random.default_rng([seed, 0]).random((n_rows, num_freqs)) < pdr
    jitter = np.random.default_rng([seed, 1]).standard_normal((n_rows, num_freqs, 2))
    explore = np.random.default_rng([seed, 2]).random((n_rows, 2))
    # `ChannelSampler`'s link model on arrays: minimum(0, x) is x unless 0 < x, as min(x, 0.0)
    rssi = np.where(delivered,
                    np.minimum(0.0, mean_rssi + jitter[..., 0] * DEFAULT_RSSI_JITTER_DB),
                    RSSI_FLOOR_DBM)
    snr = np.where(delivered, mean_snr + jitter[..., 1] * DEFAULT_SNR_JITTER_DB, SNR_FLOOR_DB)
    labels = np.argmax(rssi, axis=1)   # ties resolve to the lowest index
    sent = np.where(explore[:, 0] < _EXPLORE_P, (explore[:, 1] * num_freqs).astype(np.intp),
                    labels)

    # slot ts + r holds row r's outcome on the channel it sent on; slots 0..ts-1 are the
    # cold start
    history = np.zeros((n_rows + ts, num_freqs + 2))
    history[:ts, -2:] = RSSI_FLOOR_DBM, SNR_FLOOR_DB
    history[ts + rows, sent] = 1.0   # the node's own transmission counts toward availability
    history[ts:, -2] = rssi[rows, sent]
    history[ts:, -1] = snr[rows, sent]
    # row r sees slots r..r+ts-1, oldest first, laid out as `TelemetryWindow.snapshot`
    windows = np.lib.stride_tricks.sliding_window_view(history[:-1], ts, axis=0)
    features = np.concatenate([windows[:, :-2].transpose(0, 2, 1).reshape(n_rows, -1),
                               windows[:, -2] / RSSI_NORM_DBM, windows[:, -1] / SNR_NORM_DB],
                              axis=1)
    return Dataset(features=features, labels=labels.astype(np.int64), ts=ts,
                   num_freqs=num_freqs)


def write_dataset(dataset, fh):
    """Write the dataset document (`json.dumps(..., sort_keys=True)` of its metadata and
    rows) to the text stream `fh`, `_ROWS_PER_WRITE` rows at a time.  Each distinct float64
    bit pattern of a block is formatted once, by `json`, so -0.0, NaN and ±inf read as
    `json` writes them."""
    meta = {"ts": dataset.ts, "F": dataset.num_freqs, "normalization": _NORMALIZATION}
    fh.write(f'{{"metadata": {json.dumps(meta, sort_keys=True)}, "rows": [')
    features = np.asarray(dataset.features, dtype=np.float64)
    for lo in range(0, len(dataset), _ROWS_PER_WRITE):
        block = features[lo:lo + _ROWS_PER_WRITE]
        bits, inverse = np.unique(block.view(np.uint64), return_inverse=True)
        # one list of all distinct values: `json` spells each, ", " parts them
        texts = np.array(json.dumps(bits.view(np.float64).tolist())[1:-1].split(", "),
                         dtype=object)
        labels = dataset.labels[lo:lo + _ROWS_PER_WRITE].tolist()
        rows = texts[inverse.reshape(block.shape)].tolist()
        fh.write(("" if lo == 0 else ", ") + ", ".join(
            f'{{"features": [{", ".join(row)}], "label": {label}}}'
            for row, label in zip(rows, labels)))
    fh.write("]}")


def dataset_from_json(text):
    doc = json.loads(text)
    meta = doc["metadata"]
    if meta["normalization"] != _NORMALIZATION:
        raise ValueError(f"unsupported normalization {meta['normalization']!r}")
    expected = TelemetryWindow.feature_dim(meta["ts"], meta["F"])
    labels = [int(r["label"]) for r in doc["rows"]]
    for r, label in zip(doc["rows"], labels):
        if len(r["features"]) != expected:
            raise ValueError("feature length does not match metadata")
        if not 0 <= label < meta["F"]:
            raise ValueError("label out of range")
    features = np.array([r["features"] for r in doc["rows"]], dtype=np.float64)
    labels = np.array(labels, dtype=np.int64)
    return Dataset(features=features.reshape(len(labels), expected), labels=labels,
                   ts=meta["ts"], num_freqs=meta["F"])
